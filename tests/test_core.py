"""Containers, decompose/recompose and unwrap behavior, and the package's names."""

import importlib
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose, assert_array_equal

import csiphase
from csiphase import (
    AmplitudeMatrix,
    CsiMatrix,
    PhaseMatrix,
    Stage,
    SubcarrierMap,
    decompose,
    recompose,
    unwrap,
)
from csiphase.core import _unwrap_axis


def same_bytes(a, b):
    """Equal shape and equal bits, so -0.0 and +0.0 differ."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------- containers


def test_csi_matrix_rejects_single_column():
    with pytest.raises(ValueError, match="two subcarrier"):
        CsiMatrix(np.array([[1.0 + 0j]]))


def test_csi_matrix_rejects_non_finite_with_coordinates():
    values = np.ones((2, 3), dtype=complex)
    values[1, 2] = np.nan
    with pytest.raises(ValueError, match=r"row 1, column 2"):
        CsiMatrix(values)


def test_container_check_builds_one_mask_and_names_the_first_bad_cell():
    # A read-only array that owns its memory is kept, so only the check
    # allocates. The shape keeps the mask below numpy's 256 KiB threshold
    # for reusing temporaries, where ~mask would be a second mask.
    values = np.full((1000, 52), 1 - 2j)
    values.setflags(write=False)
    tracemalloc.start()
    try:
        CsiMatrix(values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * values.size  # one bool per cell; two before
    bad = np.ones((4, 3))
    bad[2, 1], bad[3, 0] = np.inf, np.nan
    with pytest.raises(ValueError) as error:
        PhaseMatrix(bad)
    assert str(error.value) == "phase matrix has a non-finite value at row 2, column 1 (0-based)"


def test_csi_matrix_is_immutable():
    m = CsiMatrix(np.ones((2, 2), dtype=complex))
    with pytest.raises(ValueError):
        m.values[0, 0] = 2.0


def test_read_only_view_of_a_writable_array_is_still_copied():
    base = np.zeros((3, 4))
    view = base[:]
    view.setflags(write=False)
    m = PhaseMatrix(view)
    base[1, 2] = 5.0
    assert m.values[1, 2] == 0.0
    assert not np.shares_memory(m.values, base)


def test_read_only_array_over_immutable_bytes_is_kept():
    payload = np.arange(8, dtype=np.complex128).tobytes()
    values = np.frombuffer(payload, dtype=np.complex128).reshape(2, 4)
    assert CsiMatrix(values).values is values


def test_phase_matrix_rejects_one_dimensional():
    with pytest.raises(ValueError, match="2-D"):
        PhaseMatrix(np.zeros(4))


def test_amplitude_matrix_rejects_negative():
    with pytest.raises(ValueError, match=r"negative value at row 0, column 1"):
        AmplitudeMatrix(np.array([[1.0, -0.5], [0.0, 2.0]]))


def test_stage_ordering():
    assert Stage.RAW < Stage.CALIBRATED < Stage.TIME_SMOOTHED < Stage.REBUILT
    assert Stage.TIME_SMOOTHED.label == "time_smoothed"


def test_subcarrier_map_rejects_non_increasing():
    with pytest.raises(ValueError, match="strictly increasing"):
        SubcarrierMap(np.array([1, 3, 3, 4]), n_fft=8)


def test_subcarrier_map_rejects_small_fft():
    with pytest.raises(ValueError, match="cannot cover"):
        SubcarrierMap(np.array([1, 10]), n_fft=8)


def test_subcarrier_map_rejects_fractional_indices():
    with pytest.raises(ValueError, match="integer"):
        SubcarrierMap(np.array([1.0, 2.5]), n_fft=8)


def test_subcarrier_map_contiguous():
    m = SubcarrierMap.contiguous(4)
    assert_array_equal(m.m, [1, 2, 3, 4])
    assert m.n_fft == 4
    assert len(m) == 4
    for k in (1, 0, -3):
        with pytest.raises(ValueError, match="at least 2 indices"):
            SubcarrierMap.contiguous(k)


# ------------------------------------------------------- decompose/recompose


def test_decompose_unit_circle_pair():
    amp, phase = decompose(CsiMatrix(np.array([[1 + 0j, 0 + 1j]])))
    assert_array_equal(amp.values, [[1.0, 1.0]])
    assert_array_equal(phase.values, [[0.0, np.pi / 2]])
    assert phase.stage is Stage.RAW


def test_decompose_principal_branch_upper_inclusive():
    _, phase = decompose(CsiMatrix(np.array([[-1 + 0j, 1 + 0j]])))
    assert phase.values[0, 0] == np.pi
    # a negative-zero imaginary part must not leak -pi out
    _, phase = decompose(CsiMatrix(np.array([[complex(-1.0, -0.0), 1 + 0j]])))
    assert phase.values[0, 0] == np.pi


def test_decompose_zero_magnitude_reports_cell():
    amp, phase = decompose(CsiMatrix(np.array([[0j, 1 + 1j]])))
    assert_array_equal(amp.values == 0, [[True, False]])
    assert phase.values[0, 0] == 0.0
    assert np.isfinite(phase.values).all()
    assert amp.values[0, 0] == 0.0


@pytest.mark.parametrize("zeros", [0, 1, 37])
def test_decompose_zero_cells_match_the_argwhere_reference(zeros):
    rng = np.random.default_rng(zeros)
    values = rng.normal(size=(20, 9)) + 1j * rng.normal(size=(20, 9))
    values.flat[rng.choice(values.size, zeros, replace=False)] = 0j
    want = np.abs(values) == 0.0
    assert want.sum() == zeros
    amp, phase = decompose(CsiMatrix(values))
    assert_array_equal(amp.values == 0, want)
    # the cached polar pair of a recomposed matrix has the same zero cells
    amp2, phase2 = decompose(recompose(amp, phase))
    assert_array_equal(amp2.values == 0, want)
    assert same_bytes(phase2.values[want], np.zeros(zeros))


def test_recompose_requires_matching_shapes():
    amp = AmplitudeMatrix(np.ones((2, 2)))
    phase = PhaseMatrix(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="does not match"):
        recompose(amp, phase)


def test_round_trip_within_tolerance():
    rng = np.random.default_rng(11)
    values = rng.normal(size=(40, 16)) + 1j * rng.normal(size=(40, 16))
    csi = CsiMatrix(values)
    amp, phase = decompose(csi)
    back = recompose(amp, phase)
    assert_allclose(back.values, values, rtol=1e-12, atol=0.0)


def test_recompose_caches_exact_polar_pair():
    rng = np.random.default_rng(5)
    a = np.exp(rng.normal(size=(30, 8)))
    p = rng.uniform(-np.pi, np.pi, size=(30, 8))
    csi = recompose(AmplitudeMatrix(a), PhaseMatrix(p, Stage.REBUILT))
    amp2, phase2 = decompose(csi)
    assert_array_equal(amp2.values, a)
    assert_array_equal(phase2.values, p)
    # cartesian values agree with the pair to within one ulp
    assert (np.abs(np.abs(csi.values) - a) <= np.spacing(a)).all()


def test_recompose_shares_the_amplitude_array():
    a, p = decompose(CsiMatrix(np.array([[1 + 1j, 2 - 1j], [0.5j, -3.0 + 0j]])))
    out = recompose(a, p)
    assert out._amplitude is a.values and out._angles is p.values
    # reading the shape forms no view
    assert (out.shape, out.symbols, out.subcarriers) == ((2, 2), 2, 2)
    assert views(out) == set()


def test_recompose_folds_cached_phase_to_principal_branch():
    a = np.ones((1, 2))
    p = np.array([[2.5 * np.pi, -np.pi]])
    csi = recompose(AmplitudeMatrix(a), PhaseMatrix(p))
    _, phase = decompose(csi)
    assert_allclose(phase.values[0, 0], 0.5 * np.pi, rtol=0, atol=1e-12)
    assert phase.values[0, 1] == np.pi


def test_decompose_matches_the_where_reference_bitwise_on_signed_zeros():
    parts = np.array([0.0, -0.0, 1.0, -1.0, 5e-324, -2.5])
    values = np.empty((parts.size, parts.size), dtype=np.complex128)
    values.real, values.imag = np.meshgrid(parts, parts, indexing="ij")
    csi = CsiMatrix(values)
    amp, phase = decompose(csi)
    angle = np.angle(csi.values)
    expected = np.where(angle == -np.pi, np.pi, angle)
    expected = np.where(np.abs(csi.values) == 0.0, 0.0, expected)
    assert same_bytes(amp.values, np.abs(csi.values))
    assert same_bytes(phase.values, expected)
    # (-1, -0.0) has atan2 -pi: folded onto +pi
    assert phase.values[3, 1] == np.pi


def test_recompose_matches_the_complex_expression_bitwise():
    a_grid = np.array([0.0, 5e-324, 1e-300, 1.0, 2.5])
    p_grid = np.array([0.0, -0.0, np.pi, -np.pi, np.pi / 2, -np.pi / 2,
                       1e-300, -1e-300, 3.0, -3.0])
    a = np.repeat(a_grid, p_grid.size)[None, :]
    p = np.tile(p_grid, a_grid.size)[None, :]
    csi = recompose(AmplitudeMatrix(a), PhaseMatrix(p))
    expected = a * np.cos(p) + 1j * (a * np.sin(p))
    assert same_bytes(csi.values.real, expected.real)
    assert same_bytes(csi.values.imag, expected.imag)
    principal = p - 2.0 * np.pi * np.ceil((p - np.pi) / (2.0 * np.pi))
    principal = np.where(a == 0.0, 0.0, principal)
    assert same_bytes(decompose(csi)[1].values, principal)
    # decompose first, values after: the same bits, formed on that first read
    later = recompose(AmplitudeMatrix(a), PhaseMatrix(p))
    amp, phase = decompose(later)
    assert same_bytes(amp.values, a)
    assert same_bytes(phase.values, principal)
    assert same_bytes(later.values, csi.values)


def test_recompose_zero_amplitude_cell_round_trips_to_zero_phase():
    a = np.array([[0.0, 1.0]])
    p = np.array([[1.2, 0.3]])
    csi = recompose(AmplitudeMatrix(a), PhaseMatrix(p))
    amp2, phase2 = decompose(csi)
    assert_array_equal(amp2.values == 0, [[True, False]])
    assert phase2.values[0, 0] == 0.0
    assert amp2.values[0, 0] == 0.0


def awkward_values(rng, s, k):
    """Complex values with zero cells and cells whose atan2 is -pi."""
    values = rng.uniform(0.2, 3.0, (s, k)) * np.exp(1j * rng.uniform(-np.pi, np.pi, (s, k)))
    values[rng.random((s, k)) < 0.05] = 0j
    values[::7, ::5] = complex(-1.25, -0.0)
    return values


def awkward_pair(rng, s, k):
    """Amplitude with zero cells, phase beyond (-pi, pi] with signed zeros."""
    a = rng.uniform(0.0, 2.0, (s, k))
    a[rng.random((s, k)) < 0.05] = 0.0
    p = rng.uniform(-3 * np.pi, 3 * np.pi, (s, k))
    p[rng.random((s, k)) < 0.05] = -0.0
    p[::11, ::3] = -np.pi
    return AmplitudeMatrix(a), PhaseMatrix(p, Stage.REBUILT)


def views(csi):
    return {name for name in ("values", "_polar") if name in vars(csi)}


def test_decomposing_a_read_matrix_twice_returns_the_same_pair():
    csi = CsiMatrix(awkward_values(np.random.default_rng(21), 60, 12))
    amp, phase = decompose(csi)
    again_amp, again_phase = decompose(csi)
    assert again_amp is amp and again_phase is phase
    magnitude = np.abs(csi.values)
    angle = np.angle(csi.values)
    expected = np.where(angle == -np.pi, np.pi, angle)
    expected = np.where(magnitude == 0.0, 0.0, expected)
    assert same_bytes(amp.values, magnitude)
    assert same_bytes(phase.values, expected)
    assert (magnitude == 0.0).any() and (expected == np.pi).any()
    assert not amp.values.flags.writeable and not phase.values.flags.writeable


@pytest.mark.parametrize("first", ["values", "decompose"])
def test_views_of_a_recomposed_matrix_do_not_depend_on_read_order(first):
    a, p = awkward_pair(np.random.default_rng(23), 700, 52)
    reference = recompose(a, p)
    values = reference.values
    amp, phase = decompose(reference)
    csi = recompose(a, p)
    reads = {"values": lambda: csi.values, "decompose": lambda: decompose(csi)}
    reads[first]()
    assert views(csi) == {"values" if first == "values" else "_polar"}
    assert csi._angles is p.values  # the other view still needs it
    got_amp, got_phase = decompose(csi)
    assert same_bytes(csi.values, values)
    assert got_amp.values is a.values
    assert same_bytes(got_phase.values, phase.values)
    assert csi._angles is None and "_angles" not in vars(csi)
    assert reference._angles is None


def test_threads_forming_the_views_of_one_matrix_agree():
    # Python 3.12's cached_property takes no lock, and the two views are
    # two properties anyway: the phase the matrix was recomposed from must
    # outlive every read, and each view must be kept once.
    a, p = awkward_pair(np.random.default_rng(24), 2000, 52)
    reference = recompose(a, p)
    want = [reference.values.tobytes(), decompose(reference)[1].values.tobytes()] * 2
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            csi = recompose(a, p)
            # two of each read, so reads of one view race as well
            reads = [lambda: csi.values, lambda: decompose(csi)[1].values] * 2
            start = threading.Barrier(len(reads))
            got = [None] * len(reads)

            def read(i):
                start.wait()
                got[i] = reads[i]()

            threads = [threading.Thread(target=read, args=(i,)) for i in range(len(reads))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert [view.tobytes() for view in got] == want
            assert got[0] is got[2] is csi.values
            assert got[1] is got[3] is decompose(csi)[1].values
            assert csi._angles is None
    finally:
        sys.setswitchinterval(interval)


# -------------------------------------------------------------------- unwrap


def test_unwrap_already_continuous_is_bitwise_identity():
    v = np.array([0.1, 0.2, 0.3])
    assert_array_equal(unwrap(v), v)


def test_unwrap_two_step_trace_through_pi():
    # 0, pi, 2pi-represented-as-0: both boundary rules fire
    out = unwrap(np.array([0.0, np.pi, 0.0]))
    assert_array_equal(out, [0.0, np.pi, 2.0 * np.pi])


def test_unwrap_jump_down_through_boundary():
    out = unwrap(np.array([3.0, -3.0]))
    assert_array_equal(out, [3.0, 3.0 + (2.0 * np.pi - 6.0)])


def test_unwrap_step_of_exactly_minus_pi_goes_up():
    out = unwrap(np.array([0.0, -np.pi]))
    assert_array_equal(out, [0.0, np.pi])


def test_unwrap_step_of_exactly_plus_pi_is_kept():
    out = unwrap(np.array([0.0, np.pi]))
    assert_array_equal(out, [0.0, np.pi])


def test_unwrap_rejects_non_vector_input():
    with pytest.raises(ValueError, match="1-D"):
        unwrap(np.zeros((2, 2)))
    with pytest.raises(ValueError, match="at least 1 sample"):
        unwrap(np.array([]))
    with pytest.raises(ValueError, match="non-finite"):
        unwrap(np.array([0.0, np.inf]))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_unwrap_rejects_a_gap_beyond_the_float_range():
    # Both samples are finite, but their gap is not: it used to come back as
    # [-1e308, -inf] with only numpy's warning.
    with pytest.raises(ValueError, match=r"gap between columns 0 and 1 of row 0 .* overflows"):
        unwrap(np.array([-1e308, 1e308]))
    # Every gap is finite, but the wrap counts add up beyond the float range.
    with pytest.raises(ValueError, match="gap between columns 1 and 2 of row 0 "):
        unwrap(np.array([-1.7e308, 0.0, 1.7e308, 0.0]))
    values = np.zeros((3, 5))
    values[2, 3:] = [1e308, -1e308]
    with pytest.raises(ValueError, match="columns 3 and 4 of row 9 "):
        _unwrap_axis(values, first_row=7)


def test_unwrap_single_sample():
    assert_array_equal(unwrap(np.array([1.7])), [1.7])


_phase_vectors = arrays(
    np.float64,
    st.integers(min_value=2, max_value=64),
    elements=st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_phase_vectors)
def test_unwrap_differences_stay_in_half_open_interval(v):
    d = np.diff(unwrap(v))
    assert (d > -np.pi).all()
    assert (d <= np.pi).all()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_phase_vectors)
def test_unwrap_is_idempotent_bitwise(v):
    once = unwrap(v)
    assert_array_equal(unwrap(once), once)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_phase_vectors, st.integers(min_value=0, max_value=2**32 - 1))
def test_unwrap_integer_staircase_collapses_to_first_offset(v, seed):
    rng = np.random.default_rng(seed)
    stair = 2.0 * np.pi * rng.integers(-3, 4, size=v.size)
    shifted = v + stair
    expected = unwrap(v) + stair[0]
    assert_allclose(unwrap(shifted), expected, rtol=0.0, atol=1e-9)


def test_unwrap_preserves_first_sample():
    v = np.array([123.456, 0.0, -40.0])
    assert unwrap(v)[0] == 123.456


def reference_unwrap(values):
    """The unwrap arithmetic written out with fresh temporaries."""
    d = np.diff(values, axis=-1)
    wraps = np.ceil((d - np.pi) / (2.0 * np.pi))
    out = np.empty_like(values)
    out[..., 0] = values[..., 0]
    out[..., 1:] = values[..., 1:] - 2.0 * np.pi * np.cumsum(wraps, axis=-1)
    return out


def _edge_rows(gaps):
    """One row per gap g: a step of g, a step back, then -0.0 samples."""
    return np.array([[-0.0, g, -0.0, 0.0, -0.0, g / 2] for g in gaps])


def test_unwrap_matches_the_reference_arithmetic_bitwise():
    calm = _edge_rows([2.999, -2.999, 1e-300, -0.0])  # every |gap| < 3
    edge = _edge_rows([3.0, -3.0, np.pi, -np.pi])
    wraps = np.array([
        [0.0, 7.0, 14.0, 21.0, -21.0, -0.0],
        [-0.0, -np.pi, -2 * np.pi, -3 * np.pi, -4 * np.pi, -0.0],
    ])
    for rows in (calm, np.vstack([calm, edge, wraps])):
        assert same_bytes(_unwrap_axis(rows), reference_unwrap(rows))
        for row in rows:
            assert same_bytes(unwrap(row), reference_unwrap(row))
    out = _unwrap_axis(calm)
    assert np.signbit(out[:, 0]).all()  # the first sample is kept as stored
    assert not np.signbit(out[:, 2]).any()  # a later -0.0 comes out as +0.0


def test_unwrap_of_a_wrapped_capture_stays_near_its_input_size():
    rng = np.random.default_rng(4)
    values = rng.uniform(-np.pi, np.pi, size=(10000, 52))
    tracemalloc.start()
    try:
        out = _unwrap_axis(values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert same_bytes(out, reference_unwrap(values))
    assert peak <= 2.5 * values.nbytes


def test_the_package_exports_each_module_interface_and_its_version():
    modules = [importlib.import_module(f"csiphase.{name}")
               for name in ("calib", "core", "savgol", "stats", "synth", "tsfr")]
    exported = {name: module for module in modules for name in module.__all__}
    assert sorted(csiphase.__all__) == sorted([*exported, "__version__"])
    for name, module in exported.items():
        assert getattr(csiphase, name) is getattr(module, name)
    assert isinstance(csiphase.__version__, str)
    assert callable(csiphase.tsfr)  # the function, not its module
