"""Bit-exact interchange formats for CSI matrices.

Two formats live here:

* CSIF, a tiny binary container: a 16-byte little-endian header
  (magic ``CSIF``, version, payload-kind flags, row and column counts)
  followed by the matrix row-major as 64-bit floats, interleaved
  (re, im) pairs for complex payloads. Round trips are byte-identical.
  Writes stream: no copy of the whole payload is made, and a matrix
  from ``recompose`` is written in row blocks as its cartesian values
  are formed, without ever holding them all.
* CSV tables with 1-based ``s,k`` coordinates and 17-significant-digit
  values, so a CSIF -> CSV -> CSIF round trip is lossless.

Readers reject malformed input instead of repairing it; the exception
classes below say what was wrong and where.
"""

from __future__ import annotations

import csv
import os
import stat
import struct
from pathlib import Path

import numpy as np

from .core import AmplitudeMatrix, CsiMatrix, PhaseMatrix

__all__ = [
    "CsifError",
    "CsifMagicError",
    "CsifVersionError",
    "CsifTruncatedError",
    "write_csif",
    "read_csif",
    "write_csv",
    "read_csv",
    "write_table",
]

_MAGIC = b"CSIF"
_VERSION = 1
_FLAG_COMPLEX = 0x0001
_FLAG_REAL = 0x0002
_HEADER = struct.Struct("<4sHHII")


class CsifError(ValueError):
    """A CSIF file violates the format."""


class CsifMagicError(CsifError):
    """The four magic bytes at offset 0 are wrong."""


class CsifVersionError(CsifError):
    """The version field at offset 4 names an unsupported format version."""


class CsifTruncatedError(CsifError):
    """The file ends before the declared payload does."""


def _payload_array(matrix) -> tuple[np.ndarray, int]:
    if isinstance(matrix, (PhaseMatrix, AmplitudeMatrix)):
        return np.ascontiguousarray(matrix.values, dtype="<f8"), _FLAG_REAL
    arr = np.asarray(matrix)
    if arr.ndim != 2:
        raise ValueError(f"need a 2-D matrix, got shape {arr.shape}")
    if np.iscomplexobj(arr):
        return np.ascontiguousarray(arr, dtype="<c16"), _FLAG_COMPLEX
    return np.ascontiguousarray(arr, dtype="<f8"), _FLAG_REAL


def write_csif(path: str | Path, matrix) -> None:
    """Write a complex or real matrix as a CSIF file.

    ``CsiMatrix`` payloads are flagged complex; ``PhaseMatrix``,
    ``AmplitudeMatrix`` and plain real arrays are flagged real.

    Writes stream: a matrix from ``recompose`` whose values have not
    been read is written row block by row block as the blocks are
    formed, and its values stay unformed; any other payload is written
    from its own buffer. Either way no copy of the whole payload is made.
    A non-finite cell found while streaming raises ``ValueError`` and
    leaves no file behind.
    """
    if isinstance(matrix, CsiMatrix):
        s, k = matrix.shape
        flags, dtype = _FLAG_COMPLEX, "<c16"
        blocks = matrix._row_blocks()
    else:
        arr, flags = _payload_array(matrix)
        s, k = arr.shape
        dtype, blocks = arr.dtype, (arr,)
    header = _HEADER.pack(_MAGIC, _VERSION, flags, s, k)
    with open(path, "wb") as fh:
        try:
            fh.write(header)
            for block in blocks:
                # The contiguous block's own buffer, as bytes: no copy is made.
                fh.write(np.ascontiguousarray(block, dtype=dtype).view(np.uint8))
        except ValueError:
            # Only a streamed block that fails to form lands here. The
            # partial file goes; a target that is not a regular file
            # (a pipe, /dev/stdout) is never removed.
            fh.close()
            if Path(path).is_file():
                Path(path).unlink()
            raise


def _read_header(fh) -> tuple[np.dtype, int, int]:
    """Parse and check the 16-byte header at the start of an open CSIF
    file: the payload's element type and its row and column counts."""
    header = fh.read(_HEADER.size)
    if len(header) < _HEADER.size:
        raise CsifTruncatedError(
            f"header needs {_HEADER.size} bytes, file has only {len(header)}"
        )
    magic, version, flags, s, k = _HEADER.unpack(header)
    if magic != _MAGIC:
        raise CsifMagicError(f"bad magic {magic!r} at offset 0, expected {_MAGIC!r}")
    if version != _VERSION:
        raise CsifVersionError(
            f"unsupported version {version} at offset 4, expected {_VERSION}"
        )
    if flags not in (_FLAG_COMPLEX, _FLAG_REAL):
        raise CsifError(
            f"flags 0x{flags:04x} at offset 6 must set exactly one of "
            f"bit0 (complex) or bit1 (real)"
        )
    if s < 1 or k < 1:
        raise CsifError(f"dimensions {s}x{k} in header must both be at least 1")
    return np.dtype("<c16" if flags == _FLAG_COMPLEX else "<f8"), s, k


def _check_payload(actual: int, expected: int) -> None:
    """Raise unless the payload after the header is exactly as declared."""
    if actual < expected:
        raise CsifTruncatedError(
            f"payload at offset {_HEADER.size} needs {expected} bytes, found {actual}"
        )
    if actual > expected:
        raise CsifTruncatedError(
            f"payload at offset {_HEADER.size} declares {expected} bytes but "
            f"{actual - expected} trailing bytes follow"
        )


def _csif_shape(path: str | Path) -> tuple[int, int]:
    """Rows and columns a CSIF file declares, read from its header alone."""
    with open(path, "rb") as fh:
        _, s, k = _read_header(fh)
    return s, k


def read_csif(path: str | Path) -> CsiMatrix | np.ndarray:
    """Read a CSIF file.

    The header is parsed and checked first; then exactly the declared
    payload is read, and the file must end there.

    Returns:
        A ``CsiMatrix`` for complex payloads, or a plain read-only
        float64 array for real payloads (the file does not record
        whether a real payload was phase or amplitude).

    Raises:
        CsifMagicError: the file does not start with ``CSIF``.
        CsifVersionError: the version field is not 1.
        CsifTruncatedError: header or payload is shorter than declared,
            or trailing bytes follow the payload.
        CsifError: the flags or dimension fields are invalid.
    """
    with open(path, "rb") as fh:
        dtype, s, k = _read_header(fh)
        expected = s * k * dtype.itemsize
        # A regular file's size is checked before its payload is read, so a
        # header that declares more than the file holds allocates nothing.
        info = os.fstat(fh.fileno())
        if stat.S_ISREG(info.st_mode):
            _check_payload(info.st_size - _HEADER.size, expected)
        blob = fh.read(expected)
        _check_payload(len(blob) + (len(fh.read()) if len(blob) == expected else 0), expected)

    # A view over the immutable payload is read-only without a copy.
    values = np.frombuffer(blob, dtype=dtype).reshape(s, k)
    return CsiMatrix(values) if dtype.kind == "c" else values


_CSV_WHAT = {"complex": ("s", "k", "re", "im"), "phase": ("s", "k", "value"), "amplitude": ("s", "k", "value")}


def write_csv(path: str | Path, matrix, what: str | None = None) -> None:
    """Write a matrix as a CSV table with 1-based (s, k) coordinates.

    ``what`` picks the schema: "complex" (columns s,k,re,im) for a
    ``CsiMatrix``, "phase" or "amplitude" (columns s,k,value) for the
    matching real container. When omitted it is inferred from the
    matrix type. Values carry 17 significant digits, enough for an
    exact float64 round trip.
    """
    if what is None:
        what = {CsiMatrix: "complex", PhaseMatrix: "phase", AmplitudeMatrix: "amplitude"}.get(type(matrix))
        if what is None:
            raise ValueError(f"cannot infer CSV schema for {type(matrix).__name__}")
    if what not in _CSV_WHAT:
        raise ValueError(f"what must be one of {sorted(_CSV_WHAT)}, got {what!r}")
    expected_type = {"complex": CsiMatrix, "phase": PhaseMatrix, "amplitude": AmplitudeMatrix}[what]
    if not isinstance(matrix, expected_type):
        raise ValueError(
            f"schema {what!r} needs a {expected_type.__name__}, got {type(matrix).__name__}"
        )

    s, k = (np.indices(matrix.values.shape) + 1).reshape(2, -1)
    values = matrix.values.ravel()
    parts = (values.real, values.imag) if what == "complex" else (values,)
    write_table(path, _CSV_WHAT[what], (s, k, *parts))


def _parse_coord(text: str, name: str, line: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"line {line}: {name}={text!r} is not an integer") from None
    if value < 1:
        raise ValueError(f"line {line}: {name}={value} must be at least 1")
    return value


def _parse_value(text: str, name: str, line: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"line {line}: {name}={text!r} is not a number") from None
    if not np.isfinite(value):
        raise ValueError(f"line {line}: {name}={text!r} is not finite")
    return value


def read_csv(path: str | Path) -> CsiMatrix | np.ndarray:
    """Read a CSV table written by :func:`write_csv`.

    The header row decides the payload kind: ``s,k,re,im`` yields a
    ``CsiMatrix``, ``s,k,value`` a read-only float64 array. Every (s, k)
    cell of the implied grid must appear exactly once; ragged rows,
    non-numeric cells and duplicate coordinates are rejected with their
    line number.
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError("empty CSV file")
    header = tuple(h.strip() for h in rows[0])
    if header == _CSV_WHAT["complex"]:
        n_fields = 4
    elif header == _CSV_WHAT["phase"]:
        n_fields = 3
    else:
        raise ValueError(
            f"line 1: header {','.join(header)!r} is neither 's,k,re,im' nor 's,k,value'"
        )

    cells: dict[tuple[int, int], complex | float] = {}
    for offset, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != n_fields:
            raise ValueError(
                f"line {offset}: expected {n_fields} fields, got {len(row)}"
            )
        s = _parse_coord(row[0], "s", offset)
        k = _parse_coord(row[1], "k", offset)
        if (s, k) in cells:
            raise ValueError(f"line {offset}: duplicate cell (s={s}, k={k})")
        if n_fields == 4:
            cells[(s, k)] = complex(
                _parse_value(row[2], "re", offset), _parse_value(row[3], "im", offset)
            )
        else:
            cells[(s, k)] = _parse_value(row[2], "value", offset)

    if not cells:
        raise ValueError("CSV file has a header but no data rows")
    s_max = max(s for s, _ in cells)
    k_max = max(k for _, k in cells)
    if len(cells) != s_max * k_max:
        raise ValueError(
            f"incomplete grid: found {len(cells)} cells, the coordinates imply "
            f"{s_max}x{k_max} = {s_max * k_max}"
        )

    values = np.empty((s_max, k_max), dtype=np.complex128 if n_fields == 4 else np.float64)
    for (s, k), v in cells.items():
        values[s - 1, k - 1] = v
    # Just allocated here: read-only hands it over uncopied.
    values.setflags(write=False)
    return CsiMatrix(values) if n_fields == 4 else values


# Rows converted to text at a time; bounds the memory a long table takes.
_TABLE_BLOCK = 1 << 12


def write_table(
    path: str | Path,
    header: tuple[str, ...],
    columns,
    *,
    comments: tuple[str, ...] = (),
) -> None:
    """Write equally long columns as a CSV table, after ``#`` comment lines.

    Columns are arrays or sequences. A float array is rendered with 17
    significant digits, enough for an exact float64 round trip; every
    other cell with ``str``. Comment lines carry metadata (fitted
    moments, group means) without disturbing the column grid.

    Raises:
        ValueError: the columns differ in length; the file then ends
            where the shortest column does.
    """
    with open(path, "w", newline="") as fh:
        fh.writelines(f"# {comment}\n" for comment in comments)
        writer = csv.writer(fh)
        writer.writerow(header)
        for start in range(0, max(map(len, columns), default=0), _TABLE_BLOCK):
            cells = []
            for column in columns:
                block = column[start : start + _TABLE_BLOCK]
                if isinstance(block, np.ndarray):
                    fmt = "%.17g".__mod__ if block.dtype.kind == "f" else str
                    block = map(fmt, block.tolist())
                cells.append(block)
            writer.writerows(zip(*cells, strict=True))

