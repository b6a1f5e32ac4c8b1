"""Bit-exact interchange formats for CSI matrices.

Two formats live here:

* CSIF, a tiny binary container: a 16-byte little-endian header
  (magic ``CSIF``, version, payload-kind flags, row and column counts)
  followed by the matrix row-major as 64-bit floats, interleaved
  (re, im) pairs for complex payloads. Round trips are byte-identical.
  Writes stream: no copy of the whole payload is made, and a matrix
  from ``recompose`` is written a row block at a time by the one
  cartesian fill (``core._fill_cartesian``), never held whole; the
  streamed ``synth.gen_dataset`` and CLI ``process`` write theirs so.
  Reads can stream too:
  :class:`CsifReader` opens a file once, knows its shape from the
  header before the payload is read, and splits a complex payload into
  amplitude and principal phase a row block at a time as it is read,
  with the bytes of ``decompose(read_csif(path))``, keeping the
  amplitude or each block's alone. As the file is opened once, a pipe
  reads like a regular file.
* CSV tables with 1-based ``s,k`` coordinates and 17-significant-digit
  values, so a CSIF -> CSV -> CSIF round trip is lossless.

Every file written here, CSIF or text, is opened by :func:`_replacing`:
a regular or new target is renamed into place when whole, so an error
leaves it as it was.

Readers reject malformed input instead of repairing it; the exception
classes below say what was wrong and where.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import os
import stat
import struct
from pathlib import Path

import numpy as np

from .core import (
    AmplitudeMatrix,
    CsiMatrix,
    PhaseMatrix,
    Stage,
    _check_finite,
    _check_shape,
    _polar_block,
    _row_blocks,
    _sealed,
)

__all__ = [
    "CsifError",
    "CsifMagicError",
    "CsifVersionError",
    "CsifTruncatedError",
    "write_csif",
    "read_csif",
    "CsifReader",
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


def _payload_dtype(flags: int) -> np.dtype:
    return np.dtype("<c16" if flags == _FLAG_COMPLEX else "<f8")


class _PayloadWriter:
    """Writes row blocks of an S x K payload to a CSIF file opened for
    writing, whose header is written.

    ``write(block, row)`` writes a block at its first row ``row``: into a
    regular file (``seekable``) with ``os.pwrite`` at the row's offset, so
    blocks may come in any order and from any thread; into a pipe it
    appends, so the rows must come in order. A contiguous block of the
    payload's dtype is written from its own buffer, so no copy is made.
    """

    def __init__(self, fh, dtype: np.dtype, columns: int) -> None:
        self._fh, self._dtype = fh, dtype
        self._row_bytes = columns * dtype.itemsize
        self.seekable = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
        if self.seekable:
            fh.flush()  # the header, before any block is written past it

    def __call__(self, block: np.ndarray, row: int) -> None:
        data = np.ascontiguousarray(block, dtype=self._dtype).view(np.uint8)
        if not self.seekable:
            self._fh.write(data)
            return
        data, offset = memoryview(data).cast("B"), _HEADER.size + row * self._row_bytes
        while data:
            written = os.pwrite(self._fh.fileno(), data, offset)
            data, offset = data[written:], offset + written


@contextlib.contextmanager
def _replacing(path: str | Path, mode: str = "w", **kwargs):
    """Open ``path`` for writing with ``open``'s ``mode`` and ``kwargs``.

    A regular or new target is written to a partial file beside the file
    it resolves to, which replaces that file when the ``with`` block ends
    without error and is removed otherwise, so the old target stays whole
    (it may be the input being read). Any other target (a pipe,
    /dev/stdout, /dev/null) is written in place.
    """
    in_place = os.path.exists(path) and not os.path.isfile(path)
    target = os.path.realpath(path)
    partial = path if in_place else f"{target}.partial"
    with open(partial, mode, **kwargs) as fh:
        try:
            yield fh
            fh.close()  # a failed flush is an error of the write too
            if not in_place:
                os.replace(partial, target)
        except BaseException:
            if not in_place:
                os.unlink(partial)
            raise


@contextlib.contextmanager
def _csif_writer(path: str | Path, shape: tuple[int, int], flags: int = _FLAG_COMPLEX):
    """Open ``path`` as a CSIF file of an S x K payload of the kind
    ``flags`` names (by :func:`_replacing`), write its header, and give a
    :class:`_PayloadWriter` of the payload's row blocks."""
    with _replacing(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, _VERSION, flags, *shape))
        yield _PayloadWriter(fh, _payload_dtype(flags), shape[1])


def write_csif(path: str | Path, matrix) -> None:
    """Write a complex or real matrix as a CSIF file.

    ``CsiMatrix`` payloads are flagged complex; ``PhaseMatrix``,
    ``AmplitudeMatrix`` and plain real arrays are flagged real.

    Writes stream: a matrix from ``recompose`` whose values have not
    been read is written row block by row block as the cartesian fill
    forms them, and its values stay unformed; into a regular file the
    blocks are formed and written on every worker thread
    (``core._run_blocks``), into a pipe in order. Any other payload is
    written from its own buffer. Either way no copy of the whole payload
    is made. A non-finite cell found while streaming raises
    ``ValueError`` naming the first one, and, like any error, leaves
    ``path`` as it was; a hard link to a replaced file keeps its bytes.
    """
    if isinstance(matrix, CsiMatrix):
        with _csif_writer(path, matrix.shape) as write:
            matrix._write(write)
        return
    arr, flags = _payload_array(matrix)
    with _csif_writer(path, arr.shape, flags) as write:
        write(arr, 0)


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
    return _payload_dtype(flags), s, k


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


class CsifReader:
    """A CSIF file opened once, with its header parsed and checked.

    ``shape`` and ``complex`` are known as soon as the reader is built,
    before any payload byte is read, and a regular file's size is checked
    against the header then too. The payload is then read front to back
    by one of the following; a regular file's payload can be read again
    after :meth:`_rewind`, which refuses a file that changed meanwhile:

    * :meth:`read`, which splits a complex payload into amplitude and
      principal phase a row block of about ``core._BLOCK`` cells at a
      time, as it is read, so the complex payload never exists whole
      (``_phase`` gives the phase as a plain array, the amplitude into
      the caller's array or each block's into scratch);
    * :meth:`blocks`, which yields the payload's row blocks as read;
    * :meth:`values`, which reads the whole payload as one array.

    A pipe (``/dev/stdin``) reads like a regular file. Use the reader as a
    context manager; it closes the file on exit. On a regular file every
    error is raised as by :func:`read_csif`; on a pipe, where the size is
    learned only by reading, a bad cell is reported before a truncation
    that follows it.
    """

    def __init__(self, path: str | Path) -> None:
        self._fh = open(path, "rb")
        try:
            self.dtype, s, k = _read_header(self._fh)
            self.shape = (s, k)
            self._expected = s * k * self.dtype.itemsize
            self._seen = 0
            # A regular file's size is checked before its payload is read, so
            # a header that declares more than the file holds allocates nothing.
            self._info = os.fstat(self._fh.fileno())
            self._regular = stat.S_ISREG(self._info.st_mode)
            if self._regular:
                _check_payload(self._info.st_size - _HEADER.size, self._expected)
        except BaseException:
            self._fh.close()
            raise

    def __enter__(self) -> "CsifReader":
        return self

    def __exit__(self, *exc) -> None:
        self._fh.close()

    @property
    def complex(self) -> bool:
        """Whether the payload is complex (else real float64)."""
        return self.dtype.kind == "c"

    def _account(self, got: int, want: int) -> None:
        """Count ``got`` of ``want`` payload bytes just read. Raises
        ``CsifTruncatedError`` when the file ended early, or when bytes
        follow the end of the payload."""
        self._seen += got
        if self._seen == self._expected:
            _check_payload(self._seen + len(self._fh.read()), self._expected)
        elif got < want:
            _check_payload(self._seen, self._expected)

    def values(self) -> np.ndarray:
        """The whole payload as one read-only array, viewed over the bytes
        read without a copy."""
        blob = self._fh.read(self._expected)
        self._account(len(blob), self._expected)
        return np.frombuffer(blob, dtype=self.dtype).reshape(self.shape)

    def blocks(self):
        """Yield ``(rows, block)``: consecutive row slices of about
        ``core._BLOCK`` cells, and the payload's rows there as read.

        Every block is a read-only view of one scratch buffer, which the
        next block is read into: a block is valid until the next is asked
        for, and the scratch stays at one block whatever the file size.
        """
        k = self.shape[1]
        row_bytes = k * self.dtype.itemsize
        slices = _row_blocks(*self.shape)
        scratch = bytearray(slices[0].stop * row_bytes)
        block_rows = np.frombuffer(scratch, dtype=self.dtype).reshape(-1, k)
        block_rows.setflags(write=False)
        view = memoryview(scratch)
        for rows in slices:
            count = rows.stop - rows.start
            want, got = count * row_bytes, 0
            while got < want and (n := self._fh.readinto(view[got:want])):
                got += n
            self._account(got, want)
            yield rows, block_rows[:count]

    def read(self) -> tuple[AmplitudeMatrix, PhaseMatrix]:
        """The complex payload, decomposed as it is read.

        Returns:
            ``(amplitude, phase)`` bit for bit as
            ``decompose(read_csif(path))`` gives them: each block is
            checked for non-finite cells (the error names the global row
            and column, as ``CsiMatrix`` does) and split by the rule
            ``decompose`` applies to a matrix built from values. Zero
            cells are where the amplitude is zero; their phase is +0.0.

        Raises:
            ValueError: the payload is real, naming the file; read a
                real payload with :meth:`values`.
        """
        amplitude = np.empty(self.shape)
        phase = self._phase(amplitude)
        return _sealed(AmplitudeMatrix, amplitude), _sealed(PhaseMatrix, phase, Stage.RAW)

    def _phase(self, amplitude: np.ndarray | None = None, digests=None) -> np.ndarray:
        """The raw phase of :meth:`read`, bit for bit, as a new plain array,
        which the caller alone holds and may compute in.

        Each row block is checked and split by ``core._polar_block`` as it
        is read: its amplitude into its rows of ``amplitude``, an S x K
        array, when given, else into a block of scratch, so no S x K
        amplitude exists. Each block's amplitude is checked too (a finite
        cell's magnitude may overflow), and its SHA-256 digest appended to
        ``digests`` when given.
        """
        if not self.complex:
            raise ValueError(f"{self._fh.name} holds a real payload, not complex CSI")
        _check_shape(self.shape, "CSI matrix")
        phase = np.empty(self.shape)
        for rows, values in self.blocks():
            _check_finite(values, "CSI matrix", rows.start)
            a = np.empty(values.shape) if amplitude is None else amplitude[rows]
            _polar_block(values, a, phase[rows])
            _check_finite(a, "amplitude matrix", rows.start)
            if digests is not None:
                digests.append(hashlib.sha256(a).digest())
            del a  # a block of scratch goes before the next is made
        return phase

    def _rewind(self) -> None:
        """Seek back to the start of a regular file's payload, to read it
        again through the descriptor opened first, so a file put in its
        path meanwhile is not read.

        Raises:
            ValueError: the file's size or modification time is not what
                it was when the reader opened it, naming the file.
        """
        now = os.fstat(self._fh.fileno())
        if (now.st_size, now.st_mtime_ns) != (self._info.st_size, self._info.st_mtime_ns):
            raise ValueError(f"{self._fh.name} changed on disk while it was being read")
        self._fh.seek(_HEADER.size)
        self._seen = 0


def read_csif(path: str | Path) -> CsiMatrix | np.ndarray:
    """Read a CSIF file.

    The header is parsed and checked first; then exactly the declared
    payload is read, and the file must end there. :class:`CsifReader`
    reads the same files, and can decompose a complex payload as it reads.

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
    with CsifReader(path) as reader:
        # A view over the immutable payload is read-only without a copy.
        values = reader.values()
    return CsiMatrix(values) if reader.complex else values


_CSV_COMPLEX = ("s", "k", "re", "im")
_CSV_REAL = ("s", "k", "value")
_CSV_SCHEMA = {CsiMatrix: _CSV_COMPLEX, PhaseMatrix: _CSV_REAL, AmplitudeMatrix: _CSV_REAL}


def write_csv(path: str | Path, matrix) -> None:
    """Write a matrix as a CSV table with 1-based (s, k) coordinates.

    The matrix type picks the schema: columns s,k,re,im for a
    ``CsiMatrix``, s,k,value for a ``PhaseMatrix`` or an
    ``AmplitudeMatrix``. Values carry 17 significant digits, enough for
    an exact float64 round trip.
    """
    header = _CSV_SCHEMA.get(type(matrix))
    if header is None:
        raise ValueError(f"cannot infer CSV schema for {type(matrix).__name__}")
    s, k = (np.indices(matrix.values.shape) + 1).reshape(2, -1)
    values = matrix.values.ravel()
    parts = (values.real, values.imag) if header is _CSV_COMPLEX else (values,)
    write_table(path, header, (s, k, *parts))


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
    if header == _CSV_COMPLEX:
        n_fields = 4
    elif header == _CSV_REAL:
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

    The file is written by :func:`_replacing`, so an error leaves a
    regular ``path`` as it was.

    Raises:
        ValueError: the columns differ in length.
    """
    with _replacing(path, newline="") as fh:
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

