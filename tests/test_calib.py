"""Linear trend removal: endpoint detrending and regression rotation."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from csiphase import PhaseMatrix, Stage, SubcarrierMap
from csiphase.calib import (
    LtFit,
    _endpoint_line,
    _line_fit,
    lrr_calibrate,
    lt_calibrate,
    lt_fit,
    regress_symbol,
)
from csiphase.core import _unwrap_axis


def smooth_rows(rng, s, k, step=0.3):
    """Random rows whose adjacent steps stay well below pi (no rewrapping)."""
    steps = rng.uniform(-step, step, size=(s, k))
    steps[:, 0] = rng.uniform(-np.pi, np.pi, size=s)
    return np.cumsum(steps, axis=1)


def awkward_rows(rng, s=40, k=30):
    """Wrapping rows, flat rows (one of them all -0.0) and scattered -0.0."""
    rows = rng.uniform(-np.pi, np.pi, size=(s, k))
    rows[1] = 0.7
    rows[2] = -0.0
    rows[5::6, 3::4] = -0.0
    rows[7] = smooth_rows(rng, 1, k)[0]
    return rows


def grouped_map(k=30):
    """Indices in two groups around a gap, as on a grouped subcarrier map."""
    return SubcarrierMap(np.concatenate([np.arange(-k, 0, 2), np.arange(2, k + 2, 2)]), 128)


def test_calibrations_match_their_expressions_bitwise():
    # The stages compute in the unwrapped buffer; these are the expressions
    # they replaced, evaluated on fresh temporaries.
    rng = np.random.default_rng(19)
    raw = awkward_rows(rng)
    smap = grouped_map()
    u = _unwrap_axis(raw)
    m = smap.m.astype(float)
    eps, tau = _endpoint_line(u, m)
    expected = u - eps[:, None] * m[None, :] - tau[:, None]
    assert lt_calibrate(PhaseMatrix(raw), smap).values.tobytes() == expected.tobytes()
    for x in (np.arange(1, 31, dtype=float), m):
        a, b = _line_fit(u, x)
        alpha = np.arctan(a)
        sa, ca, r_first = np.sin(alpha), np.cos(alpha), a * x[0] + b
        expected = -x[None, :] * sa[:, None] + u * ca[:, None] - r_first[:, None]
        abscissa = None if x is not m else m
        got = lrr_calibrate(PhaseMatrix(raw), abscissa).values
        assert got.tobytes() == expected.tobytes()


# ------------------------------------------------------------------------ lt


def test_lt_fit_endpoint_slope_and_mean():
    fit = lt_fit(np.array([3.0, 5.0, 7.0, 9.0, 11.0]), SubcarrierMap.contiguous(5))
    assert fit == LtFit(epsilon=2.0, tau=7.0)


def test_lt_calibrate_line_collapses_to_constant():
    phase = PhaseMatrix(np.array([[3.0, 5.0, 7.0, 9.0, 11.0]]))
    out = lt_calibrate(phase, SubcarrierMap.contiguous(5))
    assert_array_equal(out.values, np.full((1, 5), -6.0))
    assert out.stage is Stage.CALIBRATED


def test_lt_calibrate_unwraps_each_row_first():
    # a wrapped pure line must calibrate exactly like the unwrapped line:
    # to the constant -c * mean(m)
    smap = SubcarrierMap.contiguous(40, n_fft=64)
    m = smap.m.astype(float)
    wrapped = np.angle(np.exp(1j * (0.9 * m + 2.5)))[None, :]
    out = lt_calibrate(PhaseMatrix(wrapped), smap)
    assert_allclose(out.values, -0.9 * m.mean(), rtol=0.0, atol=1e-10)


def test_lt_linear_invariance():
    rng = np.random.default_rng(42)
    smap = SubcarrierMap.contiguous(32)
    m = smap.m.astype(float)
    theta = smooth_rows(rng, 10, 32)
    base = lt_calibrate(PhaseMatrix(theta), smap).values
    for _ in range(25):
        c = rng.uniform(-0.5, 0.5)
        d = rng.uniform(-10.0, 10.0)
        shifted = lt_calibrate(PhaseMatrix(theta + c * m + d), smap).values
        assert_allclose(shifted - base, -c * m.mean(), rtol=0.0, atol=1e-12)


def test_lt_constant_row_shift_changes_nothing():
    rng = np.random.default_rng(3)
    smap = SubcarrierMap.contiguous(16)
    theta = smooth_rows(rng, 4, 16)
    base = lt_calibrate(PhaseMatrix(theta), smap).values
    shifted = lt_calibrate(PhaseMatrix(theta + 2.25), smap).values
    assert_allclose(shifted, base, rtol=0.0, atol=1e-12)


def test_lt_rejects_wrong_stage_and_size():
    phase = PhaseMatrix(np.zeros((2, 4)), Stage.CALIBRATED)
    with pytest.raises(ValueError, match="raw-stage"):
        lt_calibrate(phase, SubcarrierMap.contiguous(4))
    with pytest.raises(ValueError, match="does not match"):
        lt_calibrate(PhaseMatrix(np.zeros((2, 4))), SubcarrierMap.contiguous(5))


# ------------------------------------------------------------- regression fit


def test_regress_symbol_known_line():
    fit = regress_symbol(np.array([3.0, 5.0, 7.0, 9.0, 11.0]))
    assert fit.a == 2.0
    assert fit.b == 1.0
    assert fit.alpha == np.arctan(2.0)
    assert fit.r1 == 3.0


def test_regress_symbol_constant_row_has_exact_zero_slope():
    fit = regress_symbol(np.full(9, 2.71))
    assert fit.a == 0.0
    assert fit.b == 2.71
    assert fit.alpha == 0.0
    assert fit.r1 == 2.71


def test_regress_symbol_r1_is_fit_at_first_point():
    rng = np.random.default_rng(7)
    for _ in range(20):
        row = rng.normal(size=12)
        fit = regress_symbol(row)
        assert fit.r1 == fit.a + fit.b
        assert -np.pi / 2 < fit.alpha < np.pi / 2


def test_regress_symbol_matches_polyfit():
    rng = np.random.default_rng(19)
    row = rng.normal(size=25)
    fit = regress_symbol(row)
    a_ref, b_ref = np.polyfit(np.arange(1, 26), row, 1)
    assert_allclose([fit.a, fit.b], [a_ref, b_ref], rtol=0.0, atol=1e-12)


def test_regress_symbol_rejects_short_rows():
    with pytest.raises(ValueError, match="at least 2"):
        regress_symbol(np.array([1.0]))


# ----------------------------------------------------------------------- lrr


def test_lrr_identity_line_maps_to_minus_one():
    out = lrr_calibrate(PhaseMatrix(np.array([[1.0, 2.0, 3.0]])))
    assert_allclose(out.values, -1.0, rtol=0.0, atol=1e-12)
    assert out.stage is Stage.CALIBRATED


def test_lrr_pure_line_maps_to_known_constant():
    k = np.arange(1, 12, dtype=float)
    out = lrr_calibrate(PhaseMatrix((0.1 * k + 2.0)[None, :]))
    # 2*cos(arctan(0.1)) - 2.1, the rotated intercept of the line 0.1k + 2
    assert_allclose(out.values, 2.0 * math.cos(math.atan(0.1)) - 2.1, rtol=0.0, atol=1e-12)
    assert np.ptp(out.values) < 1e-12


def test_lrr_constant_row_maps_to_zero():
    out = lrr_calibrate(PhaseMatrix(np.full((3, 7), 1.3)))
    assert_array_equal(out.values, np.zeros((3, 7)))


def test_lrr_output_rows_have_zero_slope():
    rng = np.random.default_rng(123)
    raw = rng.uniform(-np.pi, np.pi, size=(50, 64))
    out = lrr_calibrate(PhaseMatrix(raw)).values
    k = np.arange(1, 65, dtype=float)
    kc = k - k.mean()
    slopes = out @ kc / (kc @ kc)
    assert np.abs(slopes).max() < 1e-9


def test_lrr_matches_per_row_polyfit_rotation():
    rng = np.random.default_rng(77)
    raw = smooth_rows(rng, 8, 20)
    got = lrr_calibrate(PhaseMatrix(raw)).values
    k = np.arange(1, 21, dtype=float)
    for s in range(8):
        a, b = np.polyfit(k, raw[s], 1)
        alpha = np.arctan(a)
        want = -k * np.sin(alpha) + raw[s] * np.cos(alpha) - (a + b)
        assert_allclose(got[s], want, rtol=0.0, atol=1e-10)


def test_lrr_physical_abscissa_flattens_over_map_indices():
    rng = np.random.default_rng(5)
    m = np.sort(rng.choice(np.arange(1, 57), size=30, replace=False)).astype(float)
    raw = smooth_rows(rng, 6, 30)
    out = lrr_calibrate(PhaseMatrix(raw), abscissa=m).values
    mc = m - m.mean()
    slopes = out @ mc / (mc @ mc)
    assert np.abs(slopes).max() < 1e-9
    # and it is genuinely a different answer from the ordinal fit
    ordinal = lrr_calibrate(PhaseMatrix(raw)).values
    assert np.abs(out - ordinal).max() > 1e-3


def test_lrr_rejects_bad_abscissa():
    phase = PhaseMatrix(np.zeros((2, 4)))
    with pytest.raises(ValueError, match="does not match"):
        lrr_calibrate(phase, abscissa=np.arange(5.0))
    with pytest.raises(ValueError, match="strictly increasing"):
        lrr_calibrate(phase, abscissa=np.array([1.0, 1.0, 2.0, 3.0]))


def test_lrr_rejects_wrong_stage():
    with pytest.raises(ValueError, match="raw-stage"):
        lrr_calibrate(PhaseMatrix(np.zeros((2, 4)), Stage.REBUILT))
