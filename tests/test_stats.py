"""Difference histograms, per-symbol threshold series, exceedance profiles."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from csiphase.calib import lrr_calibrate
from csiphase.core import PhaseMatrix, Stage, SubcarrierMap, decompose, unwrap
from csiphase.stats import Histogram, diff_histogram, ds_series, exceedance_profile
from csiphase.synth import ChannelSpec, ImpairmentSpec, apply_impairments, gen_true_csi
from csiphase.tsfr import TsfrReport, gap_stats, tsfr


def calibrated(values):
    return PhaseMatrix(values, Stage.CALIBRATED)


def single_flag_report():
    # The row [0, 5, 5.5] rebuilt with d = 2 clamps exactly the gap into
    # the second subcarrier.
    return TsfrReport(
        mu=[2.0],
        sigma=[0.0],
        d=[2.0],
        exceedance=np.array([[False, True, False]]),
        modified_fraction=np.array([0.5]),
        clamped_down=np.array([0]),
        clamped_up=np.array([1]),
    )


# ---------------------------------------------------------------------------
# histogram container


def test_histogram_validates_its_shape():
    with pytest.raises(ValueError, match="strictly increasing"):
        Histogram(np.array([0.0, 0.0, 1.0]), np.array([1, 1]), 0.0, 1.0)
    with pytest.raises(ValueError, match="edges"):
        Histogram(np.array([0.0, 1.0]), np.array([1, 1]), 0.0, 1.0)
    with pytest.raises(ValueError, match="non-negative"):
        Histogram(np.array([0.0, 0.5, 1.0]), np.array([1, -1]), 0.0, 1.0)
    h = Histogram(np.array([0.0, 0.5, 1.0]), np.array([1, 2]), 0.0, 1.0)
    with pytest.raises(ValueError):
        h.counts[0] = 5


# ---------------------------------------------------------------------------
# diff_histogram


def test_diff_histogram_constant_matrix_is_a_single_spike():
    h = diff_histogram(calibrated(np.full((7, 9), 1.3)))
    assert h.fitted_mean == 0.0
    assert h.fitted_std == 0.0
    assert h.counts.sum() == 7 * 8
    assert np.count_nonzero(h.counts) == 1
    center = np.searchsorted(h.bin_edges, 0.0, side="right") - 1
    assert h.counts[center] == 7 * 8
    assert h.bin_edges[0] == -0.5
    assert h.bin_edges[-1] == 0.5


def test_diff_histogram_counts_always_sum_to_all_gaps():
    rng = np.random.default_rng(2)
    for bins in (1, 2, 7, 101):
        values = rng.uniform(-40, 40, size=(11, 13))
        h = diff_histogram(calibrated(values), bins=bins)
        assert h.counts.sum() == 11 * 12
        assert h.counts.size == bins
        assert h.bin_edges.size == bins + 1


def test_diff_histogram_span_is_four_fitted_stds():
    rng = np.random.default_rng(3)
    values = np.cumsum(rng.normal(0, 0.2, size=(40, 30)), axis=1)
    h = diff_histogram(calibrated(values))
    diffs = np.diff(values, axis=1).ravel()
    assert h.fitted_mean == pytest.approx(diffs.mean(), rel=1e-12)
    assert h.fitted_std == pytest.approx(diffs.std(), rel=1e-12)
    assert h.bin_edges[0] == pytest.approx(h.fitted_mean - 4 * h.fitted_std, rel=1e-12)
    assert h.bin_edges[-1] == pytest.approx(h.fitted_mean + 4 * h.fitted_std, rel=1e-12)


def test_diff_histogram_clips_outliers_into_end_bins():
    values = np.zeros((1, 200))
    values[0, ::2] = 0.001
    values[0, -1] = 1000.0
    h = diff_histogram(calibrated(values), bins=11)
    assert h.counts.sum() == 199
    assert h.counts[-1] >= 1


def test_diff_histogram_rejects_bad_input():
    with pytest.raises(ValueError, match="at least 1 bin"):
        diff_histogram(calibrated(np.zeros((2, 3))), bins=0)
    with pytest.raises(ValueError, match="calibrated"):
        diff_histogram(PhaseMatrix(np.zeros((2, 3)), Stage.RAW))


def test_diff_histogram_gaussian_noise_fits_root_two_sigma():
    # Differences of i.i.d. Gaussians have std sqrt(2) * sigma; the
    # regression detrend only nibbles at that (order 1/K), so the
    # fitted std must land within 5% on a 10^5-sample fixture.
    sigma = 0.1
    smap = SubcarrierMap.contiguous(52, n_fft=64)
    flat = gen_true_csi(ChannelSpec(paths=((0.0, 1.0),)), 2000, smap)
    imp = ImpairmentSpec(
        delta_t=np.zeros(2000), gamma=np.zeros(2000),
        noise_sigma=sigma, seed=13, smap=smap,
    )
    out = apply_impairments(flat, imp)
    _, raw, _ = decompose(out.measured_csi)
    h = diff_histogram(lrr_calibrate(raw))
    expected = np.sqrt(2) * sigma
    assert abs(h.fitted_std - expected) / expected < 0.05
    assert abs(h.fitted_mean) < 0.005


def test_diff_histogram_is_pure():
    rng = np.random.default_rng(5)
    values = rng.normal(size=(6, 8))
    a = diff_histogram(calibrated(values))
    b = diff_histogram(calibrated(values))
    assert_array_equal(a.counts, b.counts)
    assert_array_equal(a.bin_edges, b.bin_edges)


# ---------------------------------------------------------------------------
# ds_series


def test_ds_series_constant_matrix_is_all_zero():
    series = ds_series(calibrated(np.full((5, 12), 2.0)), labels=["a", "a", "b", "a", "b"])
    assert_array_equal(series.d, np.zeros(5))
    assert series.group_means == {"a": 0.0, "b": 0.0}


def test_ds_series_single_symbol_matches_gap_stats():
    # Steps beyond pi make the row unwrap-sensitive, pinning down that
    # the series works on unwrapped rows exactly like gap_stats callers.
    row = np.array([0.0, 2.8, -2.9, 1.0, 2.2])
    series = ds_series(calibrated(row[None, :]))
    assert series.d.shape == (1,)
    assert series.d[0] == pytest.approx(gap_stats(unwrap(row)).d, rel=1e-14)
    assert series.group_means is None


def test_ds_series_reproduces_rebuild_thresholds_bitwise():
    rng = np.random.default_rng(7)
    raw = PhaseMatrix(rng.uniform(-np.pi, np.pi, size=(25, 40)), Stage.RAW)
    _, report = tsfr(raw)
    series = ds_series(lrr_calibrate(raw))
    assert_array_equal(series.d, report.d)


def test_ds_series_orders_noise_levels():
    rng = np.random.default_rng(8)
    quiet = rng.normal(0, 0.1, size=(100, 52))
    loud = rng.normal(0, 0.4, size=(100, 52))
    values = np.vstack([quiet, loud])
    labels = ["quiet"] * 100 + ["loud"] * 100
    series = ds_series(calibrated(values), labels=labels)
    assert list(series.group_means) == ["quiet", "loud"]
    assert series.group_means["loud"] > series.group_means["quiet"]


def test_ds_series_group_means_match_per_label_masks_bitwise():
    rng = np.random.default_rng(14)
    values = rng.normal(size=(300, 20))
    labels = [3, "walk", 7, "sit", "3", 11] * 50
    rng.shuffle(labels)
    series = ds_series(calibrated(values), labels=labels)
    want = {}
    for label in labels:
        if label not in want:
            mask = np.array([lb == label for lb in labels])
            want[label] = float(series.d[mask].mean())
    assert list(series.group_means) == list(want)
    assert series.group_means == want


def test_ds_series_rejects_bad_labels_and_stage():
    with pytest.raises(ValueError, match="labels"):
        ds_series(calibrated(np.zeros((3, 4))), labels=["a", "b"])
    with pytest.raises(ValueError, match="calibrated"):
        ds_series(PhaseMatrix(np.zeros((3, 4)), Stage.RAW))


# ---------------------------------------------------------------------------
# exceedance_profile


def test_profile_of_the_single_flag_fixture():
    profile = exceedance_profile(single_flag_report())
    assert_array_equal(profile, [0, 1, 0])


def test_profile_counts_are_conserved():
    rng = np.random.default_rng(9)
    raw = PhaseMatrix(rng.uniform(-np.pi, np.pi, size=(30, 24)), Stage.RAW)
    _, report = tsfr(raw)
    profile = exceedance_profile(report)
    assert profile.shape == (24,)
    assert profile[0] == 0
    assert profile.sum() == report.exceedance.sum()
    assert profile.sum() == (report.clamped_down + report.clamped_up).sum()


def test_profile_of_compliant_input_is_all_zero():
    # A constant matrix calibrates to exact zeros: every gap is 0, the
    # threshold is 0, and the strict exceedance comparison never fires.
    raw = PhaseMatrix(np.full((30, 20), 0.7), Stage.RAW)
    _, report = tsfr(raw)
    profile = exceedance_profile(report)
    assert profile.shape == (20,)
    assert not profile.any()
