"""Gap thresholds, the symbol rebuild, and the end-to-end method ladder."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import csiphase.core as core
from csiphase.calib import lrr_calibrate, lt_calibrate
from csiphase.core import (
    CsiMatrix,
    PhaseMatrix,
    Stage,
    SubcarrierMap,
    decompose,
    recompose,
    unwrap,
)
from csiphase.io import CsifReader, read_csif, write_csif
from csiphase.savgol import DegenerateWindowWarning, sg_2d, sg_freq, sg_time
from csiphase.tsfr import (
    METHODS,
    GapThreshold,
    TsfrReport,
    _rebuild_rows,
    gap_stats,
    process,
    rebuild_symbol,
    tsfr,
)


def naive_rebuild(row, d):
    """Plain left-to-right scalar walk, the reference for the rebuild."""
    out = [float(row[0])]
    for k in range(1, len(row)):
        eps = row[k] - row[k - 1]
        if eps < -d:
            out.append(out[-1] - d)
        elif eps > d:
            out.append(out[-1] + d)
        else:
            out.append(row[k] - (row[k - 1] - out[-1]))
    return np.array(out)


def naive_unwrap(v):
    """Keep adjacent steps inside (-pi, pi] by running-offset recursion."""
    out = [float(v[0])]
    for x in v[1:]:
        step = float(x) - out[-1]
        step -= 2 * np.pi * np.ceil((step - np.pi) / (2 * np.pi))
        out.append(out[-1] + step)
    return np.array(out)


# ---------------------------------------------------------------------------
# gap statistics


def test_gap_threshold_requires_consistent_sum():
    GapThreshold(mu=2.0, sigma=0.5, d=2.5)
    with pytest.raises(ValueError, match="mu \\+ sigma"):
        GapThreshold(mu=2.0, sigma=0.5, d=2.4)
    with pytest.raises(ValueError, match="non-negative"):
        GapThreshold(mu=-1.0, sigma=0.0, d=-1.0)
    with pytest.raises(ValueError, match="finite"):
        GapThreshold(mu=np.nan, sigma=0.0, d=np.nan)


def test_gap_stats_worked_example():
    # Row [0, 1, 3, 6]: absolute gaps [1, 2, 3], so the mean is 2 and the
    # population spread is sqrt(((1)^2 + 0 + 1^2) / 3) = sqrt(2/3).
    fit = gap_stats(np.array([0.0, 1.0, 3.0, 6.0]))
    assert fit.mu == 2.0
    assert fit.sigma == pytest.approx(np.sqrt(2.0 / 3.0), rel=1e-15)
    assert fit.d == fit.mu + fit.sigma


def test_gap_stats_sign_of_gaps_is_ignored():
    up = gap_stats(np.array([0.0, 1.0, 3.0, 6.0]))
    down = gap_stats(np.array([0.0, -1.0, -3.0, -6.0]))
    assert up == down


def test_gap_stats_constant_row_gives_zero_threshold():
    fit = gap_stats(np.full(9, 4.2))
    assert fit.mu == 0.0
    assert fit.sigma == 0.0
    assert fit.d == 0.0


def test_gap_stats_of_huge_even_gaps_warns_of_nothing():
    # Gaps of 1e200 each deviate 0 from their mean, so no square overflows.
    with np.errstate(all="raise"):
        fit = gap_stats(np.array([0.0, 1e200, 2e200]))
    assert (fit.mu, fit.sigma) == (1e200, 0.0)


def test_gap_stats_rejects_bad_rows():
    with pytest.raises(ValueError, match="at least 2"):
        gap_stats(np.array([1.0]))
    with pytest.raises(ValueError, match="1-D"):
        gap_stats(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="finite"):
        gap_stats(np.array([0.0, np.inf]))


# ---------------------------------------------------------------------------
# symbol rebuild


def test_rebuild_clamps_a_single_spike():
    # Gap 0 -> 5 exceeds d = 2, so position 1 is pulled to 0 + 2 = 2; the
    # following gap of 0.5 is within the threshold and keeps its shape
    # relative to the rebuilt neighbour: 5.5 - (5 - 2) = 2.5.
    out = rebuild_symbol(np.array([0.0, 5.0, 5.5]), 2.0)
    assert_allclose(out, [0.0, 2.0, 2.5], atol=1e-12)


def test_rebuild_clamps_downward_spikes_symmetrically():
    out = rebuild_symbol(np.array([0.0, -5.0, -5.2]), 2.0)
    assert_allclose(out, [0.0, -2.0, -2.2], atol=1e-12)


def test_rebuild_compliant_row_is_bitwise_passthrough():
    rng = np.random.default_rng(11)
    row = np.cumsum(rng.uniform(-0.4, 0.4, size=40))
    out = rebuild_symbol(row, 0.5)
    assert_array_equal(out, row)


def test_rebuild_single_sample_row():
    out = rebuild_symbol(np.array([3.7]), 1.0)
    assert_array_equal(out, [3.7])


def test_rebuild_zero_threshold_flattens_everything():
    out = rebuild_symbol(np.array([0.0, 1.0, -2.0, 3.0]), 0.0)
    assert_array_equal(out, [0.0, 0.0, 0.0, 0.0])


def test_rebuild_rejects_bad_input():
    with pytest.raises(ValueError, match="non-negative"):
        rebuild_symbol(np.array([0.0, 1.0]), -0.5)
    with pytest.raises(ValueError, match="non-negative"):
        rebuild_symbol(np.array([0.0, 1.0]), np.nan)
    with pytest.raises(ValueError, match="finite"):
        rebuild_symbol(np.array([0.0, np.nan]), 1.0)
    with pytest.raises(ValueError, match="1-D"):
        rebuild_symbol(np.zeros((2, 2)), 1.0)


def test_rebuild_matches_naive_scalar_walk_bitwise():
    rng = np.random.default_rng(23)
    for _ in range(20):
        row = np.cumsum(rng.uniform(-2.0, 2.0, size=60))
        d = float(rng.uniform(0.2, 1.5))
        assert_array_equal(rebuild_symbol(row, d), naive_rebuild(row, d))


def _mixed_rebuild_matrix(rng, late_only=False):
    """Rows that never clamp, clamp at column 1, or first clamp late; d = 1.

    Calm stretches stay inside (-0.4, 0.4), so their gaps stay below d and
    the -0.0 samples placed there never clamp; the -0.0 placed after a
    jump of 3 does.
    """
    s_count, k = 30, 24
    rows = rng.uniform(-0.4, 0.4, size=(s_count, k))
    rows[:, 1::4] = -0.0
    for s in range(s_count):
        kind = 2 * (s % 2) if late_only else s % 3
        if kind == 1:
            rows[s, 1:] += 3.0 * rng.choice([-1.0, 1.0])
            rows[s, 6] = -0.0
        elif kind == 2:
            first = int(rng.integers(k // 2, k - 2))
            rows[s, first:] += 2.5 * rng.choice([-1.0, 1.0])
            rows[s, first + 1:] += np.cumsum(rng.uniform(-3.0, 3.0, size=k - first - 1))
    return rows, np.ones(s_count)


def test_rebuild_rows_match_the_scalar_walk_bytewise():
    rng = np.random.default_rng(31)
    for late_only in (False, True):
        rows, d = _mixed_rebuild_matrix(rng, late_only)
        eps = np.diff(rows, axis=1)
        clamps = np.abs(eps) > 1.0
        first = np.where(clamps.any(axis=1), np.argmax(clamps, axis=1) + 1, 0)
        assert (first == 1).any() != late_only
        assert (first > rows.shape[1] // 2).any()
        assert (first == 0).any()
        # the walk takes time-major tracks (K x S), overwrites them and
        # returns its masks in the same layout
        tracks = np.ascontiguousarray(rows.T)
        low, high = _rebuild_rows(tracks, d)
        assert low.shape == high.shape == tracks.shape
        assert low.flags.c_contiguous and high.flags.c_contiguous
        out, low, high = tracks.T, low.T, high.T
        for s, row in enumerate(rows):
            expected = naive_rebuild(row, d[s])
            assert out[s].view(np.int64).tolist() == expected.view(np.int64).tolist()
        assert_array_equal(low[:, 1:], eps < -d[:, None])
        assert_array_equal(high[:, 1:], eps > d[:, None])
        assert not (low[:, 0] | high[:, 0]).any()


def test_rebuild_rows_without_a_clamp_return_the_input_bytes():
    rng = np.random.default_rng(37)
    rows = rng.uniform(-0.4, 0.4, size=(40, 30))
    rows[::7, ::5] = -0.0
    tracks = np.ascontiguousarray(rows.T)
    low, high = _rebuild_rows(tracks, np.ones(40))
    assert tracks.T.tobytes() == rows.tobytes()
    assert not low.T.any() and not high.T.any()


@settings(deadline=None, derandomize=True)
@given(
    steps=st.lists(st.floats(-3.0, 3.0), min_size=0, max_size=30),
    start=st.floats(-10.0, 10.0),
    d=st.floats(0.0, 2.0),
)
def test_rebuild_output_gaps_never_exceed_threshold(steps, start, d):
    row = start + np.concatenate([[0.0], np.cumsum(steps)])
    out = rebuild_symbol(row, d)
    assert out[0] == row[0]
    assert np.all(np.abs(np.diff(out)) <= d + 1e-12)


def test_rebuild_clamped_gaps_sit_exactly_on_threshold():
    row = np.array([0.0, 4.0, 4.1, -3.0, -2.9])
    d = 1.0
    out = rebuild_symbol(row, d)
    gaps = np.diff(out)
    assert gaps[0] == d
    assert gaps[2] == -d
    assert_allclose(gaps[[1, 3]], np.diff(row)[[1, 3]], atol=1e-12)


# ---------------------------------------------------------------------------
# the full two-step chain


def wrap(x):
    return x - 2 * np.pi * np.ceil((np.asarray(x, dtype=float) - np.pi) / (2 * np.pi))


def test_tsfr_noiseless_affine_rows_come_out_constant():
    # Rows that are exact lines over k collapse to per-symbol constants
    # after calibration. The leftover gaps are rounding dust, so the
    # thresholds are dust too; flags among dust-sized gaps are allowed,
    # but every clamp then moves a value by that same dust, so the
    # rebuild must not disturb anything at measurable scale.
    rng = np.random.default_rng(5)
    s, k = 60, 30
    slopes = rng.uniform(-0.19, 0.19, size=s)
    offsets = rng.uniform(-np.pi, np.pi, size=s)
    ks = np.arange(1.0, k + 1.0)
    raw = PhaseMatrix(wrap(slopes[:, None] * ks + offsets[:, None]), Stage.RAW)
    out, report = tsfr(raw)
    assert out.stage is Stage.REBUILT
    assert np.ptp(out.values, axis=1).max() < 1e-6
    assert report.d.max() < 1e-12
    smoothed = sg_time(lrr_calibrate(raw))
    assert np.max(np.abs(out.values - smoothed.values)) < 1e-12


def test_tsfr_thresholds_match_gap_stats_of_calibrated_rows():
    rng = np.random.default_rng(17)
    raw = PhaseMatrix(rng.uniform(-np.pi, np.pi, size=(12, 24)), Stage.RAW)
    _, report = tsfr(raw)
    calibrated = lrr_calibrate(raw)
    for s in range(12):
        expect = gap_stats(unwrap(calibrated.values[s]))
        assert report.mu[s] == pytest.approx(expect.mu, rel=1e-12)
        assert report.sigma[s] == pytest.approx(expect.sigma, rel=1e-12)
        assert report.d[s] == pytest.approx(expect.d, rel=1e-12)


def test_tsfr_exceedance_marks_match_their_definition():
    rng = np.random.default_rng(29)
    raw = PhaseMatrix(rng.uniform(-np.pi, np.pi, size=(15, 40)), Stage.RAW)
    _, report = tsfr(raw)

    smoothed = sg_time(lrr_calibrate(raw))
    d = report.d
    for s in range(15):
        gaps = np.abs(np.diff(unwrap(smoothed.values[s])))
        assert_array_equal(report.exceedance[s, 1:], gaps > d[s])
    assert not report.exceedance[:, 0].any()
    assert_array_equal(
        report.modified_fraction, report.exceedance.sum(axis=1) / (40 - 1)
    )
    assert_array_equal(
        report.clamped_down + report.clamped_up, report.exceedance.sum(axis=1)
    )


def test_tsfr_report_arrays_are_frozen():
    rng = np.random.default_rng(31)
    raw = PhaseMatrix(rng.uniform(-np.pi, np.pi, size=(8, 16)), Stage.RAW)
    _, report = tsfr(raw)
    with pytest.raises(ValueError):
        report.exceedance[0, 1] = True
    with pytest.raises(ValueError):
        report.modified_fraction[0] = 0.5
    for stat in (report.mu, report.sigma, report.d):
        with pytest.raises(ValueError):
            stat[0] = 1.0


def test_tsfr_report_validates_thresholds():
    def report(mu, sigma, d):
        return TsfrReport(
            mu=mu,
            sigma=sigma,
            d=d,
            exceedance=np.zeros((1, 3), dtype=bool),
            modified_fraction=[0.0],
            clamped_down=[0],
            clamped_up=[0],
        )

    report([2.0], [0.5], [2.5])
    with pytest.raises(ValueError, match="mu \\+ sigma"):
        report([2.0], [0.5], [2.4])
    with pytest.raises(ValueError, match="non-negative"):
        report([-1.0], [0.0], [-1.0])
    with pytest.raises(ValueError, match="finite"):
        report([np.nan], [0.0], [np.nan])
    with pytest.raises(ValueError, match="one length"):
        report([2.0], [0.5, 0.5], [2.5])


def test_tsfr_requires_raw_stage():
    rng = np.random.default_rng(37)
    raw = PhaseMatrix(rng.uniform(-1, 1, size=(6, 8)), Stage.RAW)
    calibrated = lrr_calibrate(raw)
    with pytest.raises(ValueError, match="stage"):
        tsfr(calibrated)


def test_tsfr_diverges_from_plain_smoothing_exactly_at_flagged_gap():
    # A frequency step shared by every symbol: after calibration the step
    # gap (about 1.51 rad) exceeds d (about 0.93 rad) while the tilted
    # baseline gaps (about 0.36 rad) stay inside it. Up to the flagged
    # subcarrier the rebuild carries zero offset, so it reproduces the
    # smoothed track bit for bit; from the flag onward everything shifts.
    s, k = 40, 8
    row = np.array([0.0, 0.0, 0.0, 0.0, 2.0, 2.0, 2.0, 2.0])
    raw = PhaseMatrix(np.tile(row, (s, 1)), Stage.RAW)

    rebuilt, report = tsfr(raw)
    smoothed = sg_time(lrr_calibrate(raw))

    flagged = np.zeros(k, dtype=bool)
    flagged[4] = True
    assert_array_equal(report.exceedance, np.tile(flagged, (s, 1)))

    assert_array_equal(rebuilt.values[:, :4], smoothed.values[:, :4])
    offset = np.abs(rebuilt.values[:, 4:] - smoothed.values[:, 4:])
    assert np.all(offset > 0.5)


def test_tsfr_matches_naive_reimplementation_of_the_whole_chain():
    # Independent chain: recursive unwrap, per-row polyfit rotation,
    # per-column windowed polyfit smoothing, scalar stats and rebuild.
    def naive_chain(values, order=2, window=11):
        s, k = values.shape
        ks = np.arange(1.0, k + 1.0)
        theta = np.empty_like(values)
        for i in range(s):
            u = naive_unwrap(values[i])
            a, b = np.polyfit(ks, u, 1)
            alpha = np.arctan(a)
            theta[i] = -ks * np.sin(alpha) + u * np.cos(alpha) - (a + b)

        phi = np.empty_like(theta)
        half = window // 2
        for col in range(k):
            track = naive_unwrap(theta[:, col])
            for p in range(s):
                lo = min(max(p - half, 0), s - window)
                ts = np.arange(lo, lo + window, dtype=float)
                coeffs = np.polyfit(ts, track[lo : lo + window], order)
                phi[p, col] = np.polyval(coeffs, float(p))

        fractions = np.empty(s)
        thresholds = np.empty(s)
        for i in range(s):
            gaps = np.abs(np.diff(naive_unwrap(theta[i])))
            mu = gaps.mean()
            sigma = np.sqrt(((gaps - mu) ** 2).mean())
            d = mu + sigma
            thresholds[i] = d
            track = naive_unwrap(phi[i])
            flags = np.abs(np.diff(track)) > d
            fractions[i] = flags.sum() / (k - 1)
        return thresholds, fractions

    rng = np.random.default_rng(43)
    s, k = 100, 26
    walk = np.cumsum(rng.uniform(-0.8, 0.8, size=(s, k)), axis=1)
    raw = PhaseMatrix(wrap(walk + rng.normal(0.0, 0.15, size=(s, k))), Stage.RAW)

    _, report = tsfr(raw)
    d_naive, frac_naive = naive_chain(np.asarray(raw.values))

    assert_allclose(report.d, d_naive, atol=1e-9)
    assert np.mean(np.abs(report.modified_fraction - frac_naive)) <= 0.02


def old_tsfr_chain(raw, order=2, fraction=0.1):
    """The chain as separate public steps: gap statistics of the unwrapped
    calibrated rows, then each unwrapped smoothed row walked by the scalar
    rebuild."""
    calibrated = lrr_calibrate(raw)
    smoothed = sg_time(calibrated, order=order, fraction=fraction)
    gaps = np.abs(np.diff(np.array([unwrap(row) for row in calibrated.values]), axis=1))
    mu = gaps.mean(axis=1)
    sigma = np.sqrt(((gaps - mu[:, None]) ** 2).mean(axis=1))
    d = mu + sigma
    rebuilt = np.array([naive_rebuild(unwrap(row), d[s]) for s, row in enumerate(smoothed.values)])
    return rebuilt, mu, sigma, d


# Fractions 0.1 and 0.5 smooth by direct sums, then by FFT. core._BLOCK in
# cells: by default one block covers the 130 x 26 capture; 20 rows of 26 cells
# give 7 row blocks and 7 blocks of 4 tracks; 130 cells give 26 row blocks of
# 5 rows and one track per block, the layout of every capture longer than
# _BLOCK / 2 symbols.
@pytest.mark.parametrize(
    "fraction,block",
    [(0.1, None), (0.5, None), (0.1, 20 * 26), (0.5, 20 * 26), (0.1, 130), (0.5, 130)],
    ids=["0.1", "0.5", "0.1-blocks", "0.5-blocks", "0.1-one-track-blocks",
         "0.5-one-track-blocks"],
)
def test_tsfr_in_place_walk_matches_the_step_by_step_chain_bitwise(monkeypatch, fraction, block):
    rng = np.random.default_rng(47)
    s, k = 130, 26
    # Straight rows, whose smoothed gaps stay within their thresholds, with a
    # jump into column 1 on every fifth symbol of the second half.
    walk = rng.uniform(-1.2, 1.2, size=(s, 1)) * np.arange(k) + rng.uniform(-3, 3, size=(s, 1))
    walk[s // 2 :: 5, 1:] += 2.0
    raw = PhaseMatrix(wrap(walk + rng.normal(0.0, 0.2, size=(s, k))), Stage.RAW)
    want, mu, sigma, d = old_tsfr_chain(raw, fraction=fraction)
    if block is not None:
        monkeypatch.setattr(core, "_BLOCK", block)
    rows, tracks = core._row_blocks(s, k), core._row_blocks(k, s)
    assert (len(rows) > 1 and len(tracks) > 1) == (block is not None)
    assert block != 130 or all(t.stop - t.start == 1 for t in tracks)
    rebuilt, report = tsfr(raw, fraction=fraction)
    assert report.exceedance[:, 1].any()
    clamps = [report.exceedance[r].any() for r in rows]
    assert clamps[-1] and (block is None or not all(clamps))
    assert rebuilt.values.tobytes() == want.tobytes()
    for got, expected in ((report.mu, mu), (report.sigma, sigma), (report.d, d)):
        assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("block", [None, 20 * 26], ids=["whole", "blocks"])
def test_tsfr_that_clamps_nothing_is_the_unwrapped_time_smoothing(monkeypatch, block):
    # Straight rows whose smoothed gaps all stay within their thresholds: the
    # rebuild passes every row through, so the output is sg_time's, unwrapped.
    rng = np.random.default_rng(47)
    s, k = 130, 26
    walk = rng.uniform(-1.2, 1.2, size=(s, 1)) * np.arange(k) + rng.uniform(-3, 3, size=(s, 1))
    raw = PhaseMatrix(wrap(walk + rng.normal(0.0, 0.2, size=(s, k))), Stage.RAW)
    want, _, _, _ = old_tsfr_chain(raw, fraction=0.5)
    if block is not None:
        monkeypatch.setattr(core, "_BLOCK", block)
    rebuilt, report = tsfr(raw, fraction=0.5)
    assert not report.exceedance.any()
    assert rebuilt.values.tobytes() == want.tobytes()


def test_tsfr_keeps_the_time_smoother_errors_and_warnings():
    rng = np.random.default_rng(53)
    with pytest.raises(ValueError, match="time smoothing needs at least 3 symbols, got 2"):
        tsfr(PhaseMatrix(rng.uniform(-1, 1, size=(2, 8))))
    # order 3 needs a window of 5: three symbols pass through unsmoothed
    raw = PhaseMatrix(rng.uniform(-1, 1, size=(3, 8)))
    with pytest.warns(DegenerateWindowWarning) as record:
        rebuilt, report = tsfr(raw, order=3)
    assert record[0].filename == __file__
    with pytest.warns(DegenerateWindowWarning):
        want, _, _, d = old_tsfr_chain(raw, order=3)
    assert rebuilt.values.tobytes() == want.tobytes()
    assert report.d.tobytes() == d.tobytes()


# ---------------------------------------------------------------------------
# the method ladder


def random_csi(rng, s=20, k=16):
    amp = rng.uniform(0.2, 3.0, size=(s, k))
    phase = rng.uniform(-np.pi, np.pi, size=(s, k))
    return CsiMatrix(amp * np.exp(1j * phase))


def test_process_rejects_unknown_method():
    csi = random_csi(np.random.default_rng(0))
    with pytest.raises(ValueError, match="unknown method"):
        process(csi, "median")


def test_process_validates_abscissa_choices():
    csi = random_csi(np.random.default_rng(1))
    with pytest.raises(ValueError, match="ordinal"):
        process(csi, "lrr", abscissa="frequency")
    with pytest.raises(ValueError, match="subcarrier map"):
        process(csi, "lrr", abscissa="physical")


def test_process_rejects_mismatched_map():
    csi = random_csi(np.random.default_rng(2), k=16)
    smap = SubcarrierMap.contiguous(12)
    with pytest.raises(ValueError, match="does not match"):
        process(csi, "lt", smap=smap)


@pytest.mark.parametrize("method", METHODS)
def test_process_of_the_decomposed_pair_is_process_of_the_matrix(method):
    smap = SubcarrierMap(np.arange(-8, 8) * 2 + 1, n_fft=64)
    csi = random_csi(np.random.default_rng(12), s=40)
    amplitude, phase = decompose(csi)
    whole = process(csi, method, smap=smap, abscissa="physical")
    paired = process((amplitude, phase), method, smap=smap, abscissa="physical")
    assert paired.output.values.tobytes() == whole.output.values.tobytes()
    assert decompose(paired.output)[0].values is amplitude.values
    if method == "tsfr":
        assert paired.report.d.tobytes() == whole.report.d.tobytes()


def test_process_rejects_a_pair_that_is_not_a_raw_polar_pair():
    amplitude, phase = decompose(random_csi(np.random.default_rng(13)))
    with pytest.raises(TypeError, match="pair"):
        process((phase, amplitude), "raw")
    with pytest.raises(ValueError, match="does not match"):
        process((amplitude, PhaseMatrix(phase.values[:-1])), "raw")
    with pytest.raises(ValueError, match="raw-stage"):
        process((amplitude, PhaseMatrix(phase.values, Stage.CALIBRATED)), "lrr")


# Every route of the CLI: the seven methods on either abscissa, and the
# separable 2-D smoother.
ROUTES = [(method, {"abscissa": abscissa}) for method in METHODS
          for abscissa in ("ordinal", "physical")] + [("lrr+sg2d", {"separable": True})]
ROUTE_IDS = [f"{method}-{kw.get('abscissa', 'separable')}" for method, kw in ROUTES]


def output_bytes(result):
    """The output's values and every report array, as bytes."""
    report = () if result.report is None else tuple(
        getattr(result.report, name).tobytes() for name in TsfrReport.__dataclass_fields__
    )
    return result.output.values.tobytes(), report


@pytest.mark.parametrize("symbols", [core._BLOCK // 52, 2600], ids=["one-block", "blocks"])
@pytest.mark.parametrize(("method", "kwargs"), ROUTES, ids=ROUTE_IDS)
def test_process_of_a_reader_is_process_of_what_it_reads(tmp_path, symbols, method, kwargs):
    # The pair a reader decomposes as it reads gives the bytes of the matrix
    # read whole: the complex payload need never exist whole.
    path = tmp_path / "capture.csif"
    write_csif(path, random_csi(np.random.default_rng(symbols), s=symbols, k=52))
    kwargs = dict(kwargs, smap=SubcarrierMap.contiguous(52))
    with CsifReader(path) as reader:
        paired = process(reader.read(), method, **kwargs)
    assert not paired.output._angles.flags.writeable
    whole = process(read_csif(path), method, **kwargs)
    assert output_bytes(paired) == output_bytes(whole)


# Each public stage, given a raw or a calibrated phase matrix.
STAGE_CALLS = {
    "lt_calibrate": lambda raw, _: lt_calibrate(raw, SubcarrierMap.contiguous(raw.subcarriers)),
    "lrr_calibrate": lambda raw, _: lrr_calibrate(raw),
    "sg_time": lambda _, calibrated: sg_time(calibrated),
    "sg_freq": lambda _, calibrated: sg_freq(calibrated),
    "sg_2d": lambda _, calibrated: sg_2d(calibrated),
    "sg_2d-separable": lambda _, calibrated: sg_2d(calibrated, separable=True),
    "tsfr": lambda raw, _: tsfr(raw),
}


def report_arrays(report):
    """Every array of a rebuild report, or none for a method without one."""
    return [] if report is None else [
        getattr(report, name) for name in TsfrReport.__dataclass_fields__
    ]


@pytest.mark.parametrize("method", [*METHODS, *(f"{name}()" for name in STAGE_CALLS)])
def test_process_never_writes_what_its_caller_holds(method):
    # Nor does any public stage: a container's arrays stay read-only for its
    # whole life, in the input and in the result alike.
    csi = random_csi(np.random.default_rng(14), s=2600, k=52)
    amplitude, phase = decompose(csi)
    recomposed = recompose(amplitude, phase)
    calibrated = lrr_calibrate(phase)
    held = [csi.values, amplitude.values, phase.values, calibrated.values,
            *(matrix.values for matrix in decompose(recomposed))]
    kept = [array.copy() for array in held]
    made = []
    if method in METHODS:
        for given in (csi, (amplitude, phase), recomposed):
            output, report = process(given, method)
            made += [output._angles, *report_arrays(report)]
    else:
        result = STAGE_CALLS[method.removesuffix("()")](phase, calibrated)
        matrix, report = result if isinstance(result, tuple) else (result, None)
        made += [matrix.values, *report_arrays(report)]
    for array, before in zip(held, kept):
        assert array.tobytes() == before.tobytes()
        assert not array.flags.writeable
    assert not any(array.flags.writeable for array in made)


def test_process_raw_is_a_faithful_round_trip():
    csi = random_csi(np.random.default_rng(3))
    result = process(csi, "raw")
    assert result.report is None
    assert_allclose(result.output.values, csi.values, rtol=1e-12, atol=1e-14)


def test_process_every_method_keeps_amplitude_bit_for_bit():
    csi = random_csi(np.random.default_rng(4))
    amp_in, _ = decompose(csi)
    for method in METHODS:
        result = process(csi, method)
        amp_out, _ = decompose(result.output)
        assert_array_equal(amp_out.values, amp_in.values), method


def test_process_reports_only_for_the_rebuild_method():
    csi = random_csi(np.random.default_rng(6))
    for method in METHODS:
        result = process(csi, method)
        if method == "tsfr":
            assert isinstance(result.report, TsfrReport)
            assert result.report.exceedance.shape == csi.shape
        else:
            assert result.report is None


def test_process_lt_defaults_to_contiguous_map():
    csi = random_csi(np.random.default_rng(7))
    implicit = process(csi, "lt")
    explicit = process(csi, "lt", smap=SubcarrierMap.contiguous(csi.subcarriers))
    assert_array_equal(implicit.output.values, explicit.output.values)


def test_process_physical_abscissa_changes_the_regression():
    rng = np.random.default_rng(8)
    csi = random_csi(rng, s=12, k=16)
    smap = SubcarrierMap(np.r_[np.arange(-20, -12), np.arange(13, 21)], n_fft=64)
    ordinal = process(csi, "lrr", smap=smap)
    physical = process(csi, "lrr", smap=smap, abscissa="physical")
    _, p_ord = decompose(ordinal.output)
    _, p_phys = decompose(physical.output)
    assert np.max(np.abs(p_ord.values - p_phys.values)) > 1e-3


def test_process_separable_toggle_changes_the_2d_route():
    csi = random_csi(np.random.default_rng(9), s=30, k=25)
    joint = process(csi, "lrr+sg2d", sg_fraction=0.3)
    split = process(csi, "lrr+sg2d", sg_fraction=0.3, separable=True)
    assert np.max(np.abs(joint.output.values - split.output.values)) > 1e-6


def test_process_2d_smoothing_of_a_long_capture_stays_linear_in_memory():
    # 10000x52: the time window (1001) is far past the direct/FFT crossover
    csi = random_csi(np.random.default_rng(10), s=10000, k=52)
    peaks = {}
    for method in ("lrr+sgtime", "lrr+sg2d"):
        tracemalloc.start()
        try:
            result = process(csi, method)
            peaks[method] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.output.shape == csi.shape
        assert np.isfinite(result.output.values).all()
    assert peaks["lrr+sg2d"] <= 2 * peaks["lrr+sgtime"]


def test_process_2d_smoothing_of_a_long_capture_costs_about_what_time_smoothing_does():
    # the bivariate fit keeps one spectrum of the tracks, not one per offset
    csi = random_csi(np.random.default_rng(10), s=10000, k=52)
    peaks = {}
    for method in ("lrr+sgtime", "lrr+sg2d"):
        process(csi, method)  # designs are cached: measure the steady state
        tracemalloc.start()
        try:
            process(csi, method)
            peaks[method] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["lrr+sg2d"] <= 1.1 * peaks["lrr+sgtime"]


def test_process_output_read_as_phase_forms_no_cartesian_values():
    # A consumer of the cleaned phase neither computes nor holds the complex
    # matrix; reading it forms it once and drops the phase it came from.
    csi = random_csi(np.random.default_rng(12), s=10000, k=52)
    cartesian = csi.values.nbytes
    for method in METHODS:
        process(csi, method)  # designs are cached: measure the steady state
        tracemalloc.start()
        try:
            result = process(csi, method)
            amplitude, phase = decompose(result.output)
            assert result.output.shape == (result.output.symbols, result.output.subcarriers)
            as_phase = tracemalloc.get_traced_memory()[0]
            values = result.output.values
            as_values = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        pair = amplitude.values.nbytes + phase.values.nbytes
        # beyond its polar pair, at most the stage's float phase (and the report)
        assert as_phase - pair < 0.75 * cartesian, method
        assert as_values - pair - cartesian < 0.25 * cartesian, method
        assert result.output.values is values
        assert not values.flags.writeable


def test_process_method_tuple_is_the_documented_ladder():
    assert METHODS == ("raw", "lt", "lrr", "lrr+sgfreq", "lrr+sgtime", "lrr+sg2d", "tsfr")
