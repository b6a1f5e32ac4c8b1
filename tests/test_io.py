"""CSIF binary container and CSV tables."""

import csv
import io
import re
import struct
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from csiphase.core import (
    _FILL_BLOCK,
    AmplitudeMatrix,
    CsiMatrix,
    PhaseMatrix,
    Stage,
    SubcarrierMap,
    recompose,
)
from csiphase.io import (
    CsifError,
    CsifMagicError,
    CsifTruncatedError,
    CsifVersionError,
    read_csif,
    read_csv,
    write_csif,
    write_csv,
    write_table,
)
from csiphase.tsfr import METHODS, process


def small_csi(rng, s=3, k=4):
    return CsiMatrix(rng.normal(size=(s, k)) + 1j * rng.normal(size=(s, k)))


# ---------------------------------------------------------------------------
# CSIF


def test_csif_golden_bytes_for_tiny_complex_matrix(tmp_path):
    # 16-byte header (magic, version 1, complex flag, 1x2) followed by
    # the two complex cells as little-endian (re, im) float64 pairs.
    path = tmp_path / "tiny.csif"
    write_csif(path, CsiMatrix(np.array([[1 + 0j, 0 + 1j]])))
    expected = b"CSIF" + struct.pack("<HHII", 1, 1, 1, 2) + struct.pack(
        "<4d", 1.0, 0.0, 0.0, 1.0
    )
    assert path.read_bytes() == expected
    assert path.stat().st_size == 16 + 32


def test_csif_complex_round_trip_is_byte_identical(tmp_path):
    rng = np.random.default_rng(1)
    first = tmp_path / "a.csif"
    second = tmp_path / "b.csif"
    csi = small_csi(rng, s=5, k=7)
    write_csif(first, csi)
    back = read_csif(first)
    assert isinstance(back, CsiMatrix)
    assert_array_equal(back.values, csi.values)
    write_csif(second, back)
    assert first.read_bytes() == second.read_bytes()


def test_csif_real_payload_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    phase = PhaseMatrix(rng.uniform(-3, 3, size=(4, 6)), Stage.CALIBRATED)
    path = tmp_path / "phase.csif"
    write_csif(path, phase)
    assert path.stat().st_size == 16 + 4 * 6 * 8
    flags = struct.unpack_from("<H", path.read_bytes(), 6)[0]
    assert flags == 2
    back = read_csif(path)
    assert isinstance(back, np.ndarray)
    assert not back.flags.writeable
    assert_array_equal(back, phase.values)


def test_csif_amplitude_and_plain_arrays_are_real_payloads(tmp_path):
    amp = AmplitudeMatrix(np.ones((2, 3)))
    write_csif(tmp_path / "amp.csif", amp)
    assert_array_equal(read_csif(tmp_path / "amp.csif"), np.ones((2, 3)))
    write_csif(tmp_path / "arr.csif", np.full((2, 2), 0.5))
    assert_array_equal(read_csif(tmp_path / "arr.csif"), np.full((2, 2), 0.5))


def test_csif_real_payload_is_read_without_a_copy(tmp_path):
    path = tmp_path / "real.csif"
    write_csif(path, np.zeros((10000, 52)))
    payload = 10000 * 52 * 8
    tracemalloc.start()
    try:
        values = read_csif(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert values.shape == (10000, 52)
    assert not values.flags.writeable
    assert peak <= 1.25 * payload


@pytest.mark.parametrize("values", [
    np.array([[complex(-0.0, 5e-324), complex(1.5, -0.0)], [complex(-5e-324, 2.0), 0j]]),
    np.array([[-0.0, 5e-324, -5e-324], [1.0, 0.0, -2.5]]),
])
def test_csif_payload_bytes_are_the_arrays_bytes(tmp_path, values):
    # -0.0 and subnormals must reach the file as their exact bit patterns
    path = tmp_path / "bits.csif"
    write_csif(path, values)
    flags = 1 if np.iscomplexobj(values) else 2
    header = b"CSIF" + struct.pack("<HHII", 1, flags, *values.shape)
    assert path.read_bytes() == header + values.astype(values.dtype.newbyteorder("<")).tobytes()


@pytest.mark.parametrize("matrix", [
    CsiMatrix(np.full((10000, 52), 1 - 2j)),
    PhaseMatrix(np.full((10000, 52), 0.5)),
])
def test_csif_payload_is_written_without_a_copy(tmp_path, matrix):
    payload = matrix.values.nbytes
    tracemalloc.start()
    try:
        write_csif(tmp_path / "big.csif", matrix)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (tmp_path / "big.csif").stat().st_size == 16 + payload
    assert peak <= 0.25 * payload


def awkward_csi(rng, s, k):
    """Random CSI with zero-amplitude cells and -0.0 / signed-zero parts."""
    values = rng.uniform(0.2, 3.0, (s, k)) * np.exp(1j * rng.uniform(-np.pi, np.pi, (s, k)))
    values[rng.random((s, k)) < 0.05] = 0j
    values[::7, ::5] = complex(1.25, -0.0)
    values[3, :] = complex(-0.0, -0.0)
    return CsiMatrix(values)


def unformed(matrix):
    return "values" not in vars(matrix)


# 52 subcarriers fill 315 rows per block: 700 rows end in a partial block
@pytest.mark.parametrize("method", METHODS)
def test_streamed_write_of_every_method_has_the_bytes_of_its_values(tmp_path, method):
    s, k = 700, 52
    assert s % (_FILL_BLOCK // k) != 0
    csi = awkward_csi(np.random.default_rng(5), s, k)
    smap = SubcarrierMap(np.arange(-26, 26) * 2 + 1, n_fft=128)
    output = process(csi, method, smap=smap).output
    streamed, formed, array = (tmp_path / f"{n}.csif" for n in ("streamed", "formed", "array"))
    write_csif(streamed, output)
    assert unformed(output)
    write_csif(array, output.values)
    write_csif(formed, output)
    assert streamed.read_bytes() == array.read_bytes() == formed.read_bytes()


@pytest.mark.parametrize("shape", [(1, 2), (3, _FILL_BLOCK + 3), (2 * _FILL_BLOCK // 8, 8)])
def test_streamed_write_matches_the_values_at_block_edges(tmp_path, shape):
    # one row, rows wider than a block (one row per block), whole blocks only
    rng = np.random.default_rng(7)
    a = rng.uniform(0.0, 2.0, shape)
    a[rng.random(shape) < 0.1] = 0.0
    p = rng.uniform(-3 * np.pi, 3 * np.pi, shape)
    p[rng.random(shape) < 0.1] = -0.0
    output = recompose(AmplitudeMatrix(a), PhaseMatrix(p))
    write_csif(tmp_path / "streamed.csif", output)
    assert unformed(output)
    write_csif(tmp_path / "array.csif", output.values)
    assert (tmp_path / "streamed.csif").read_bytes() == (tmp_path / "array.csif").read_bytes()


def test_streamed_write_holds_a_few_blocks_not_the_payload(tmp_path):
    rng = np.random.default_rng(8)
    shape = (10000, 52)
    output = recompose(
        AmplitudeMatrix(rng.uniform(0.5, 2.0, shape)), PhaseMatrix(rng.uniform(-4.0, 4.0, shape))
    )
    payload = shape[0] * shape[1] * 16
    tracemalloc.start()
    try:
        write_csif(tmp_path / "big.csif", output)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (tmp_path / "big.csif").stat().st_size == 16 + payload
    assert unformed(output)
    assert peak <= 0.25 * payload


def test_streamed_write_stops_at_a_non_finite_cell_and_leaves_no_file(tmp_path):
    # Unreachable through the public constructors (a finite polar pair has
    # finite cartesian values), so the stage's phase is replaced directly.
    shape = (700, 52)
    bad = np.zeros(shape)
    bad[400, 7] = np.inf  # second block, at its 86th row
    message = "CSI matrix has a non-finite value at row 400, column 7 (0-based)"
    pair = AmplitudeMatrix(np.ones(shape)), PhaseMatrix(np.zeros(shape))
    streamed, read = recompose(*pair), recompose(*pair)
    object.__setattr__(streamed, "_angles", bad)
    object.__setattr__(read, "_angles", bad)
    path = tmp_path / "bad.csif"
    with np.errstate(invalid="ignore"):
        with pytest.raises(ValueError, match=re.escape(message)):
            write_csif(path, streamed)
        assert not path.exists()
        with pytest.raises(ValueError, match=re.escape(message)):
            read.values


def test_csif_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.csif"
    write_csif(path, CsiMatrix(np.ones((1, 2), dtype=complex)))
    blob = bytearray(path.read_bytes())
    blob[:4] = b"XSIF"
    path.write_bytes(blob)
    with pytest.raises(CsifMagicError, match="offset 0"):
        read_csif(path)


def test_csif_rejects_wrong_version(tmp_path):
    path = tmp_path / "v2.csif"
    path.write_bytes(b"CSIF" + struct.pack("<HHII", 2, 1, 1, 2) + b"\0" * 32)
    with pytest.raises(CsifVersionError, match="version 2 at offset 4"):
        read_csif(path)


@pytest.mark.parametrize("flags", [0, 3, 4])
def test_csif_rejects_bad_flags(tmp_path, flags):
    path = tmp_path / "flags.csif"
    path.write_bytes(b"CSIF" + struct.pack("<HHII", 1, flags, 1, 2) + b"\0" * 32)
    with pytest.raises(CsifError, match="exactly one"):
        read_csif(path)


def test_csif_rejects_zero_dimensions(tmp_path):
    path = tmp_path / "dims.csif"
    path.write_bytes(b"CSIF" + struct.pack("<HHII", 1, 1, 0, 2))
    with pytest.raises(CsifError, match="at least 1"):
        read_csif(path)


def test_csif_rejects_truncated_payload_with_lengths(tmp_path):
    path = tmp_path / "short.csif"
    write_csif(path, CsiMatrix(np.ones((1, 2), dtype=complex)))
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(CsifTruncatedError, match="needs 32 bytes, found 31"):
        read_csif(path)


def test_csif_header_declaring_more_than_the_file_holds_reads_no_payload(tmp_path):
    # the header is checked against the file's size before the payload is
    # read, so a corrupt size allocates nothing
    path = tmp_path / "huge.csif"
    path.write_bytes(b"CSIF" + struct.pack("<HHII", 1, 1, 2**32 - 1, 2**32 - 1) + b"\0" * 32)
    with pytest.raises(CsifTruncatedError, match="found 32$"):
        read_csif(path)


def test_csif_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "long.csif"
    write_csif(path, CsiMatrix(np.ones((1, 2), dtype=complex)))
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(CsifTruncatedError, match="trailing"):
        read_csif(path)


def test_csif_rejects_truncated_header(tmp_path):
    path = tmp_path / "stub.csif"
    path.write_bytes(b"CSIF\x01\x00")
    with pytest.raises(CsifTruncatedError, match="header"):
        read_csif(path)


def test_csif_errors_are_value_errors():
    for cls in (CsifMagicError, CsifVersionError, CsifTruncatedError):
        assert issubclass(cls, CsifError)
        assert issubclass(cls, ValueError)


# ---------------------------------------------------------------------------
# CSV


def test_csv_phase_golden_lines(tmp_path):
    path = tmp_path / "phase.csv"
    write_csv(path, PhaseMatrix(np.array([[0.0, 1.5]]), Stage.RAW))
    assert path.read_text().splitlines() == ["s,k,value", "1,1,0", "1,2,1.5"]


def test_csv_complex_golden_lines(tmp_path):
    path = tmp_path / "complex.csv"
    write_csv(path, CsiMatrix(np.array([[complex(-0.0, 2.5), complex(5e-324, -1e-300)]])))
    assert path.read_text().splitlines() == [
        "s,k,re,im", "1,1,-0,2.5", "1,2,4.9406564584124654e-324,-1e-300",
    ]


def test_csv_complex_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(3)
    csi = small_csi(rng, s=4, k=5)
    path = tmp_path / "csi.csv"
    write_csv(path, csi)
    back = read_csv(path)
    assert isinstance(back, CsiMatrix)
    assert_array_equal(back.values, csi.values)


def test_csv_value_round_trip_is_exact(tmp_path):
    values = np.array([[np.pi, -np.pi, 1e-300], [2.0 / 3.0, -0.0, 1e17]])
    path = tmp_path / "vals.csv"
    write_csv(path, PhaseMatrix(values, Stage.CALIBRATED))
    assert_array_equal(read_csv(path), values)


def test_csif_to_csv_to_csif_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    csi = small_csi(rng, s=6, k=3)
    write_csif(tmp_path / "a.csif", csi)
    write_csv(tmp_path / "a.csv", read_csif(tmp_path / "a.csif"))
    back = read_csv(tmp_path / "a.csv")
    write_csif(tmp_path / "b.csif", back)
    assert (tmp_path / "a.csif").read_bytes() == (tmp_path / "b.csif").read_bytes()


def test_csv_schema_must_match_matrix_type(tmp_path):
    phase = PhaseMatrix(np.zeros((2, 2)), Stage.RAW)
    with pytest.raises(ValueError, match="needs a CsiMatrix"):
        write_csv(tmp_path / "x.csv", phase, what="complex")
    with pytest.raises(ValueError, match="cannot infer"):
        write_csv(tmp_path / "x.csv", np.zeros((2, 2)))
    with pytest.raises(ValueError, match="what must be one of"):
        write_csv(tmp_path / "x.csv", phase, what="magnitude")


def test_csv_rejects_duplicate_cells(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("s,k,value\n1,1,0.5\n1,1,0.7\n1,2,0.1\n")
    with pytest.raises(ValueError, match=r"line 3: duplicate cell \(s=1, k=1\)"):
        read_csv(path)


def test_csv_rejects_ragged_rows(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("s,k,value\n1,1,0.5\n1,2\n")
    with pytest.raises(ValueError, match="line 3: expected 3 fields, got 2"):
        read_csv(path)


def test_csv_rejects_non_numeric_cells(tmp_path):
    path = tmp_path / "text.csv"
    path.write_text("s,k,value\n1,1,abc\n")
    with pytest.raises(ValueError, match="line 2: value='abc' is not a number"):
        read_csv(path)
    path.write_text("s,k,value\n1,x,0.5\n")
    with pytest.raises(ValueError, match="line 2: k='x' is not an integer"):
        read_csv(path)
    path.write_text("s,k,value\n0,1,0.5\n")
    with pytest.raises(ValueError, match="line 2: s=0 must be at least 1"):
        read_csv(path)
    path.write_text("s,k,value\n1,1,inf\n")
    with pytest.raises(ValueError, match="not finite"):
        read_csv(path)


def test_csv_rejects_incomplete_grids(tmp_path):
    path = tmp_path / "holes.csv"
    path.write_text("s,k,value\n1,1,0.5\n2,2,0.7\n")
    with pytest.raises(ValueError, match="incomplete grid"):
        read_csv(path)


def test_csv_rejects_empty_and_unknown_headers(tmp_path):
    path = tmp_path / "meta.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="empty"):
        read_csv(path)
    path.write_text("s,k,value\n")
    with pytest.raises(ValueError, match="no data rows"):
        read_csv(path)
    path.write_text("a,b,c\n1,1,0\n")
    with pytest.raises(ValueError, match="line 1: header"):
        read_csv(path)


# ---------------------------------------------------------------------------
# tables


def reference_table_text(header, rows, comments=()):
    """The row-wise table writer that write_table replaced: float cells
    with 17 significant digits, everything else with str."""
    buf = io.StringIO(newline="")
    for comment in comments:
        buf.write(f"# {comment}\n")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow(["%.17g" % c if isinstance(c, float) else str(c) for c in row])
    return buf.getvalue()


@pytest.mark.parametrize("rows", [6, 10000])
def test_write_table_matches_the_row_wise_reference(tmp_path, rows):
    floats = np.resize([-0.0, 5e-324, 1e-300, 2.5, 1.0 / 3.0, -np.pi], rows)
    counts = np.resize(np.array([0, 1, 2**31, 2**53 + 1, 2**60, 7], dtype=np.int64), rows)
    labels = ["a,b", 'say "hi"', "two words", "plain", "x,\"y\" z", "L5"] * (rows // 6)
    labels += labels[: rows - len(labels)]
    comments = ("fitted_mean=0.5", 'mean.a,b=1')
    header = ("value", "count", "label")
    path = tmp_path / "t.csv"
    write_table(path, header, (floats, counts, labels), comments=comments)
    rows = list(zip(floats.tolist(), counts.tolist(), labels))
    want = reference_table_text(header, rows, comments)
    assert path.read_bytes().decode().splitlines(keepends=True) == want.splitlines(keepends=True)


def test_write_table_rejects_unequal_columns(tmp_path):
    with pytest.raises(ValueError):
        write_table(tmp_path / "t.csv", ("a", "b"), (np.arange(3), np.zeros(2)))
    with pytest.raises(ValueError):
        write_table(tmp_path / "t.csv", ("a", "b"), (["x"], np.zeros(2)))
    for long, short in ((5000, 4096), (4097, 4096), (10000, 9999)):
        with pytest.raises(ValueError):
            write_table(tmp_path / "t.csv", ("a", "b"), (np.zeros(long), np.zeros(short)))
        with pytest.raises(ValueError):
            write_table(tmp_path / "t.csv", ("a", "b"), (np.zeros(short), list(range(long))))

