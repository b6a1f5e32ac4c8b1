"""Polynomial smoothing: kernel design, edge refits, 1-D and 2-D application."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.signal import savgol_filter

from csiphase import PhaseMatrix, Stage, unwrap
from csiphase.core import _unwrap_axis
from csiphase.savgol import (
    _FFT_MIN_WINDOW,
    DegenerateWindowWarning,
    SgKernel,
    SgSpec,
    _correlate_rows,
    _design_2d,
    _powers,
    _unwrap_grid,
    _window_from_fraction,
    sg_2d,
    sg_apply,
    sg_design,
    sg_freq,
    sg_time,
)


def dense_lsq_weights(order, window, at):
    """Independent oracle: least-squares evaluation weights from the raw
    Vandermonde normal equations over abscissas 0..window-1."""
    x = np.arange(window, dtype=float)
    v = np.vander(x, order + 1, increasing=True)
    coeffs_map = np.linalg.solve(v.T @ v, v.T)
    powers = np.array([float(at) ** p for p in range(order + 1)])
    return powers @ coeffs_map


# ----------------------------------------------------------------- spec/design


def test_spec_rejects_bad_parameters():
    with pytest.raises(ValueError, match="odd"):
        SgSpec(2, 4)
    with pytest.raises(ValueError, match="at least 3"):
        SgSpec(0, 1)
    with pytest.raises(ValueError, match="cannot determine"):
        SgSpec(3, 3)
    with pytest.raises(ValueError, match=">= 0"):
        SgSpec(-1, 5)


def test_design_quadratic_five_point_kernel_matches_dense_solve():
    kernel = sg_design(SgSpec(2, 5))
    classic = np.array([-3.0, 12.0, 17.0, 12.0, -3.0]) / 35.0
    assert_allclose(kernel.coefficients, classic, rtol=0.0, atol=1e-12)
    assert_allclose(kernel.coefficients, dense_lsq_weights(2, 5, 2), rtol=0.0, atol=1e-12)


def test_design_edge_rows_match_dense_solve():
    kernel = sg_design(SgSpec(2, 7))
    basis = _powers(7, 2)
    for p in range(7):
        assert_allclose(basis[p] @ kernel.fit, dense_lsq_weights(2, 7, p), rtol=0.0, atol=1e-12)
    assert_array_equal(basis[3] @ kernel.fit, kernel.coefficients)


@pytest.mark.parametrize("order,window", [(0, 5), (1, 7), (2, 9), (3, 21)])
def test_design_coefficients_sum_to_one(order, window):
    kernel = sg_design(SgSpec(order, window))
    assert abs(kernel.coefficients.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("order,window", [(0, 7), (2, 5), (2, 21)])
def test_design_even_order_kernel_is_symmetric(order, window):
    c = sg_design(SgSpec(order, window)).coefficients
    assert_allclose(c, c[::-1], rtol=0.0, atol=1e-12)


def test_design_adjacent_degree_pair_shares_central_kernel():
    # degree 2r and 2r+1 fits give the same central smoothing weights
    assert_allclose(
        sg_design(SgSpec(2, 9)).coefficients,
        sg_design(SgSpec(3, 9)).coefficients,
        rtol=0.0,
        atol=1e-12,
    )


def test_kernel_arrays_are_immutable():
    kernel = sg_design(SgSpec(2, 5))
    with pytest.raises(ValueError):
        kernel.coefficients[0] = 0.0
    with pytest.raises(ValueError):
        kernel.fit[0, 0] = 0.0


def test_designs_are_cached_and_read_only():
    kernel = sg_design(SgSpec(2, 27))
    assert sg_design(SgSpec(2, 27)) is kernel
    with pytest.raises(ValueError):
        kernel.coefficients[0] = 0.0
    with pytest.raises(ValueError):
        kernel.fit[0, 0] = 0.0
    design = _design_2d(2, 27, 5)
    assert _design_2d(2, 27, 5) is design
    for arr in design:
        with pytest.raises(ValueError):
            arr.flat[0] = 0.0


# -------------------------------------------------------------------- sg_apply


def test_apply_impulse_interior_and_edges():
    # impulse at index 4 of 9 samples: its whole +-2 footprint is interior
    v = np.zeros(9)
    v[4] = 1.0
    out = sg_apply(v, SgSpec(2, 5))
    assert_allclose(out[4], 17.0 / 35.0, rtol=0.0, atol=1e-12)
    assert_allclose(out[3], 12.0 / 35.0, rtol=0.0, atol=1e-12)
    assert_allclose(out[5], 12.0 / 35.0, rtol=0.0, atol=1e-12)
    assert_allclose(out[2], -3.0 / 35.0, rtol=0.0, atol=1e-12)
    assert_allclose(out[6], -3.0 / 35.0, rtol=0.0, atol=1e-12)
    # edge points: fit over the nearest 5 samples, evaluated at the point itself
    for p in (0, 1):
        want = np.polyval(np.polyfit(np.arange(5.0), v[:5], 2), float(p))
        assert_allclose(out[p], want, rtol=0.0, atol=1e-12)
    for p in (7, 8):
        want = np.polyval(np.polyfit(np.arange(5.0), v[4:], 2), float(p - 4))
        assert_allclose(out[p], want, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("order", [0, 1, 2, 3])
@pytest.mark.parametrize("window", [5, 21])
def test_apply_reproduces_polynomials_including_edges(order, window):
    rng = np.random.default_rng(order * 10 + window)
    t = np.linspace(-1.0, 1.0, 40)
    coeffs = rng.uniform(-1.0, 1.0, size=order + 1)
    v = np.polyval(coeffs, t)
    assert_allclose(sg_apply(v, SgSpec(order, window)), v, rtol=0.0, atol=1e-9)


def test_apply_is_linear():
    rng = np.random.default_rng(8)
    u = rng.normal(size=50)
    v = rng.normal(size=50)
    spec = SgSpec(2, 9)
    combined = sg_apply(3.5 * u - 1.25 * v, spec)
    assert_allclose(
        combined, 3.5 * sg_apply(u, spec) - 1.25 * sg_apply(v, spec), rtol=0.0, atol=1e-12
    )


def test_apply_interior_is_shift_covariant():
    rng = np.random.default_rng(9)
    v = rng.normal(size=60)
    spec = SgSpec(2, 7)
    direct = sg_apply(v, spec)
    shifted = sg_apply(v[5:], spec)
    assert_allclose(direct[8:-3], shifted[3:-3], rtol=0.0, atol=1e-12)


def test_apply_matches_scipy_interp_mode():
    rng = np.random.default_rng(10)
    short = rng.normal(size=80)
    long = rng.normal(size=3000)
    cases = [(short, 1, 5), (short, 2, 7), (short, 3, 13)]
    # long windows take the FFT path
    cases += [(long, order, window) for order in (1, 2, 3) for window in (101, 301)]
    for v, order, window in cases:
        ours = sg_apply(v, SgSpec(order, window))
        ref = savgol_filter(v, window, order, mode="interp")
        assert_allclose(ours, ref, rtol=0.0, atol=1e-10)


def test_correlation_engine_matches_numpy_on_both_paths():
    rng = np.random.default_rng(11)
    stack = rng.normal(size=(3, 200))
    for w in (5, _FFT_MIN_WINDOW + 10):
        weights = rng.normal(size=w)  # asymmetric, so orientation matters
        want = np.stack([np.correlate(row, weights, mode="valid") for row in stack])
        assert_allclose(_correlate_rows(stack, weights), want, rtol=0.0, atol=1e-12)


def test_apply_short_vector_warns_and_passes_through():
    v = np.arange(4.0)
    with pytest.warns(DegenerateWindowWarning):
        out = sg_apply(v, SgSpec(2, 9))
    assert_array_equal(out, v)


def test_apply_window_equal_to_length():
    rng = np.random.default_rng(2)
    v = rng.normal(size=5)
    out = sg_apply(v, SgSpec(2, 5))
    for p in range(5):
        assert_allclose(out[p], dense_lsq_weights(2, 5, p) @ v, rtol=0.0, atol=1e-12)


def test_apply_rejects_bad_input():
    with pytest.raises(ValueError, match="1-D"):
        sg_apply(np.zeros((3, 3)), SgSpec(2, 5))
    with pytest.raises(ValueError, match="finite"):
        sg_apply(np.array([0.0, np.nan, 1.0, 2.0, 3.0]), SgSpec(2, 5))


# ------------------------------------------------------------ window derivation


@pytest.mark.parametrize(
    "length,fraction,expected",
    [
        (1000, 0.1, 101),  # 100 rounded up to odd
        (20, 0.1, 3),  # floor of 3
        (52, 0.1, 5),
        (30, 0.1, 3),
        (90, 0.1, 9),
        (7, 0.9, 7),  # clamped to largest odd <= length
        (8, 0.9, 7),
    ],
)
def test_window_from_fraction(length, fraction, expected):
    assert _window_from_fraction(length, 2, fraction) == expected


def test_window_from_fraction_respects_order_floor():
    assert _window_from_fraction(100, 3, 0.01) == 5
    assert _window_from_fraction(3, 3, 0.5) is None


def test_window_from_fraction_rejects_nonpositive_fraction():
    with pytest.raises(ValueError, match="positive"):
        _window_from_fraction(100, 2, 0.0)


@pytest.mark.parametrize("fraction", [np.inf, np.nan, -np.inf])
def test_window_from_fraction_rejects_nonfinite_fraction(fraction):
    with pytest.raises(ValueError, match="window fraction"):
        _window_from_fraction(100, 2, fraction)


@pytest.mark.parametrize("length", [50, 51, 52])
def test_window_fractions_above_one_take_the_whole_dimension(length):
    whole = _window_from_fraction(length, 2, 1.0)
    assert whole == (length if length % 2 else length - 1)
    for fraction in (2.0, 1e6, 1e308):
        assert _window_from_fraction(length, 2, fraction) == whole


@pytest.mark.parametrize("smoother", [sg_time, sg_freq, sg_2d])
def test_a_number_is_not_a_spec(smoother):
    phase = PhaseMatrix(np.zeros((20, 20)), Stage.CALIBRATED)
    with pytest.raises(TypeError, match="fraction="):
        smoother(phase, 0.2)


# ------------------------------------------------------------- matrix variants


def test_sg_time_smooths_columns_and_advances_stage():
    rng = np.random.default_rng(3)
    base = rng.normal(size=(60, 4))
    phase = PhaseMatrix(base, Stage.CALIBRATED)
    out = sg_time(phase, SgSpec(2, 7))
    assert out.stage is Stage.TIME_SMOOTHED
    for k in range(4):
        want = sg_apply(unwrap(base[:, k]), SgSpec(2, 7))
        # batched and single-row matmul may sum in different orders
        assert_allclose(out.values[:, k], want, rtol=0.0, atol=1e-12)


def test_sg_time_unwraps_each_column_first():
    t = np.linspace(0.0, 6.0 * np.pi, 80)
    wrapped = np.angle(np.exp(1j * t))
    phase = PhaseMatrix(np.column_stack([wrapped, wrapped]), Stage.CALIBRATED)
    out = sg_time(phase, SgSpec(2, 9))
    # smoothing the wrapped ramp must act on the continuous ramp
    assert_allclose(out.values[:, 0], t - t[0] + wrapped[0], rtol=0.0, atol=1e-9)


def test_sg_freq_is_exact_transpose_of_sg_time():
    rng = np.random.default_rng(4)
    values = rng.uniform(-np.pi, np.pi, size=(24, 80))
    phase = PhaseMatrix(values, Stage.CALIBRATED)
    transposed = PhaseMatrix(values.T, Stage.CALIBRATED)
    # one window on each side of the direct/FFT crossover
    for spec in (SgSpec(2, 7), SgSpec(2, _FFT_MIN_WINDOW | 1)):
        a = sg_freq(phase, spec).values
        b = sg_time(transposed, spec).values.T
        assert_array_equal(a, b)


def test_sg_freq_keeps_stage():
    phase = PhaseMatrix(np.random.default_rng(0).normal(size=(4, 30)), Stage.CALIBRATED)
    assert sg_freq(phase).stage is Stage.CALIBRATED


def test_sg_time_default_window_comes_from_symbol_count():
    rng = np.random.default_rng(6)
    base = rng.normal(size=(1000, 2)) * 0.01
    out_default = sg_time(PhaseMatrix(base, Stage.CALIBRATED))
    out_explicit = sg_time(PhaseMatrix(base, Stage.CALIBRATED), SgSpec(2, 101))
    assert_array_equal(out_default.values, out_explicit.values)


def test_sg_time_rejects_rebuilt_input_and_tiny_matrices():
    with pytest.raises(ValueError, match="rebuilt"):
        sg_time(PhaseMatrix(np.zeros((10, 4)), Stage.REBUILT))
    with pytest.raises(ValueError, match="at least 3 symbols"):
        sg_time(PhaseMatrix(np.zeros((2, 4))))


def test_sg_time_of_a_long_capture_stays_linear_in_memory():
    # 40000 symbols give a 4001-sample window; its edges take order+1 fit
    # coefficients per track end, never a window x window matrix.
    rng = np.random.default_rng(12)
    phase = PhaseMatrix(rng.normal(size=(40000, 4)), Stage.CALIBRATED)
    tracemalloc.start()
    try:
        out = sg_time(phase)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(out.values).all()
    assert peak <= 16 * phase.values.nbytes


def test_sg_time_explicit_window_longer_than_axis_warns():
    phase = PhaseMatrix(np.zeros((5, 4)), Stage.CALIBRATED)
    with pytest.warns(DegenerateWindowWarning):
        out = sg_time(phase, SgSpec(2, 9))
    assert_array_equal(out.values, phase.values)
    assert out.stage is Stage.TIME_SMOOTHED


# ------------------------------------------------------------------------- 2-D


def bivariate_field(rng, s, k, order):
    tr = np.linspace(-1.0, 1.0, s)[:, None]
    tc = np.linspace(-1.0, 1.0, k)[None, :]
    field = np.zeros((s, k))
    for i in range(order + 1):
        for j in range(order + 1 - i):
            field += rng.uniform(-1.0, 1.0) * tr**i * tc**j
    return field


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_sg_2d_reproduces_total_degree_polynomials(order):
    rng = np.random.default_rng(order)
    field = bivariate_field(rng, 30, 25, order)
    out = sg_2d(PhaseMatrix(field, Stage.CALIBRATED), SgSpec(order, 7), freq_spec=SgSpec(order, 5))
    assert_allclose(out.values, field, rtol=0.0, atol=1e-9)
    assert out.stage is Stage.TIME_SMOOTHED


def test_sg_2d_separable_reproduces_total_degree_polynomials():
    rng = np.random.default_rng(21)
    field = bivariate_field(rng, 30, 25, 2)
    out = sg_2d(PhaseMatrix(field, Stage.CALIBRATED), SgSpec(2, 7), freq_spec=SgSpec(2, 5), separable=True)
    assert_allclose(out.values, field, rtol=0.0, atol=1e-9)


def brute_cell_fit(field, order, w_r, w_c, si, ki):
    """Independent oracle: least-squares fit of total degree <= order over
    the w_r x w_c window anchored inside the grid, evaluated at (si, ki)."""
    s, k = field.shape
    br = min(max(si - w_r // 2, 0), s - w_r)
    bc = min(max(ki - w_c // 2, 0), k - w_c)
    rows, cols = np.mgrid[0:w_r, 0:w_c]
    terms = [(i, j) for i in range(order + 1) for j in range(order + 1 - i)]
    basis = np.stack([rows.ravel() ** i * cols.ravel() ** j for i, j in terms], axis=1)
    target = field[br : br + w_r, bc : bc + w_c].ravel()
    sol, *_ = np.linalg.lstsq(basis.astype(float), target, rcond=None)
    pr, pc = si - br, ki - bc
    return np.array([float(pr**i * pc**j) for i, j in terms]) @ sol


def test_sg_2d_matches_brute_force_cell_fits():
    def brute(field, w_r, w_c, si, ki):
        return brute_cell_fit(field, 2, w_r, w_c, si, ki)

    # every cell, so every (row offset, column offset) edge class is hit;
    # the last grid's time window takes the FFT path
    grids = [(12, 10, 5, 5), (40, 17, 9, 5), (60, 12, 21, 3), (90, 14, _FFT_MIN_WINDOW | 1, 5)]
    rng = np.random.default_rng(33)
    for s, k, w_r, w_c in grids:
        # small-amplitude field so the unwrap passes are bitwise identities
        field = 0.1 * rng.normal(size=(s, k))
        out = sg_2d(
            PhaseMatrix(field, Stage.CALIBRATED), SgSpec(2, w_r), freq_spec=SgSpec(2, w_c)
        ).values
        want = np.array([[brute(field, w_r, w_c, si, ki) for ki in range(k)] for si in range(s)])
        assert_allclose(out, want, rtol=0.0, atol=1e-9)


@st.composite
def grids_and_specs(draw):
    order = draw(st.integers(0, 3))
    shortest = max(3, order + 1 + order % 2)
    s = draw(st.integers(max(3, shortest), 60))
    k = draw(st.integers(max(3, shortest), 40))
    w_r = draw(st.sampled_from(range(shortest, s + 1, 2)))
    w_c = draw(st.sampled_from(range(shortest, k + 1, 2)))
    return s, k, order, w_r, w_c


@settings(max_examples=40, deadline=None, derandomize=True)
@given(grids_and_specs())
@example((60, 11, 2, 33, 5))
@example((59, 7, 3, 59, 7))
@example((45, 40, 1, 35, 39))
def test_sg_2d_matches_brute_force_on_drawn_grids(grid):
    s, k, order, w_r, w_c = grid
    # small-amplitude field so the unwrap passes are bitwise identities
    field = 0.1 * np.random.default_rng(s * 41 + k).normal(size=(s, k))
    out = sg_2d(
        PhaseMatrix(field, Stage.CALIBRATED), SgSpec(order, w_r), freq_spec=SgSpec(order, w_c)
    ).values
    want = np.array([
        [brute_cell_fit(field, order, w_r, w_c, si, ki) for ki in range(k)] for si in range(s)
    ])
    assert_allclose(out, want, rtol=0.0, atol=1e-9)


def test_sg_2d_rectangular_default_windows():
    rng = np.random.default_rng(12)
    base = rng.normal(size=(200, 30)) * 0.01
    out_default = sg_2d(PhaseMatrix(base, Stage.CALIBRATED))
    # S=200 -> window 21, K=30 -> window 3
    out_explicit = sg_2d(
        PhaseMatrix(base, Stage.CALIBRATED), SgSpec(2, 21), freq_spec=SgSpec(2, 3)
    )
    assert_array_equal(out_default.values, out_explicit.values)


def transposed_unwrap_grid(values):
    """The unwrap sg_2d ran before, through three S x K layout copies."""
    u = _unwrap_axis(np.ascontiguousarray(values.T)).T
    u = _unwrap_axis(np.ascontiguousarray(u))
    return np.ascontiguousarray(u.T)


def test_sg_2d_unwrap_matches_the_transposed_path_bitwise():
    rng = np.random.default_rng(17)
    s, k = 40, 12
    calm = 0.1 * rng.normal(size=(s, k))  # every |gap| < 3 on both axes
    wrapped = rng.uniform(-np.pi, np.pi, size=(s, k))  # gaps beyond 3 rad
    across = np.add.outer(np.arange(s) * 0.05, np.arange(k) * 3.5)  # wraps across only
    down = np.add.outer(np.arange(s) * 3.5, np.arange(k) * 0.05)  # wraps down only
    edges = np.tile([3.0, -3.0, np.pi, -np.pi, 0.0, -0.0], (s, 2))
    for grid in (calm, wrapped, across, down, edges):
        grid = grid.copy()
        grid[rng.random(grid.shape) < 0.2] = -0.0
        grid[0, 0] = -0.0
        got = _unwrap_grid(PhaseMatrix(grid).values)
        want = transposed_unwrap_grid(grid)
        assert got.flags.c_contiguous
        assert got.tobytes() == want.tobytes() and got.shape == want.shape


def test_sg_2d_rejects_mismatched_orders():
    with pytest.raises(ValueError, match="share one polynomial order"):
        sg_2d(
            PhaseMatrix(np.zeros((20, 20)), Stage.CALIBRATED),
            SgSpec(2, 5),
            freq_spec=SgSpec(1, 5),
        )
