"""Acceptance suite: one test per shipped guarantee, tolerances pinned.

Each test prints a single pass/fail line (visible with ``pytest -s``)
and asserts the same condition, so the suite reads as a checklist:

 1  regression calibration leaves every row with zero slope
 2  endpoint calibration removes exactly the injected line
 3  polynomial signals pass through every smoother unchanged
 4  the order-2, window-5 smoothing kernel is the classic one
 5  rebuilt rows never exceed their gap threshold
 6  the rebuild equals an independent scalar trace bit for bit
 7  every processing method preserves amplitudes bit for bit
 8  injected timing/carrier errors are recovered through the model
 9  the gap histogram fits the theoretical noise spread
10  exceedance bookkeeping is conserved and places flags correctly
11  file formats round-trip losslessly and reject corruption
12  the command-line chain is deterministic and fast enough
"""

import subprocess
import sys
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from csiphase.calib import lrr_calibrate, lt_calibrate
from csiphase.core import CsiMatrix, PhaseMatrix, Stage, SubcarrierMap, decompose, unwrap
from csiphase.io import (
    CsifMagicError,
    CsifTruncatedError,
    CsifVersionError,
    read_csif,
    read_csv,
    write_csif,
    write_csv,
)
from csiphase.savgol import SgSpec, sg_2d, sg_apply, sg_design, sg_freq, sg_time
from csiphase.stats import diff_histogram, exceedance_profile
from csiphase.synth import (
    ChannelSpec,
    ImpairmentSpec,
    apply_impairments,
    demo_channel,
    demo_impairments,
    gen_dataset,
    gen_true_csi,
)
from csiphase.tsfr import (
    METHODS,
    TsfrReport,
    gap_stats,
    process,
    rebuild_symbol,
)


def verdict(criterion: int, ok: bool, description: str) -> None:
    print(f"criterion {criterion:2d}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {criterion} failed: {description}"


def smooth_rows(rng, s, k, step=0.3):
    steps = rng.uniform(-step, step, size=(s, k - 1))
    first = rng.uniform(-np.pi, np.pi, size=(s, 1))
    return np.hstack([first, first + np.cumsum(steps, axis=1)])


def pearson_rows(a, b):
    a = a - a.mean(axis=1, keepdims=True)
    b = b - b.mean(axis=1, keepdims=True)
    num = (a * b).sum(axis=1)
    den = np.sqrt((a * a).sum(axis=1) * (b * b).sum(axis=1))
    return num / den


DEMO_MAP = SubcarrierMap.contiguous(52, n_fft=64)


def test_criterion_01_calibrated_rows_have_zero_slope():
    # 500 matrices of 100 symbols x 64 subcarriers, phases uniform in
    # (-pi, pi]; every output row's centered OLS slope <= 1e-9, in
    # under 5 seconds.
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    values = np.pi - rng.uniform(0, 2 * np.pi, size=(500 * 100, 64))
    out = lrr_calibrate(PhaseMatrix(values, Stage.RAW)).values
    x = np.arange(1.0, 65.0)
    xc = x - x.mean()
    slopes = (out - out.mean(axis=1, keepdims=True)) @ xc / (xc @ xc)
    elapsed = time.perf_counter() - start
    ok = bool(np.max(np.abs(slopes)) <= 1e-9 and elapsed < 5.0)
    verdict(1, ok, f"max |slope| {np.max(np.abs(slopes)):.2e} over 50000 rows in {elapsed:.2f}s")


def test_criterion_02_endpoint_calibration_removes_injected_lines():
    # Adding c*m + d to the phase shifts the calibrated output by the
    # constant -c*mean(m), to 1e-12, over 100 random draws.
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        theta = smooth_rows(rng, 8, 52)
        c = rng.uniform(-0.5, 0.5)
        d = rng.uniform(-10, 10)
        base = lt_calibrate(PhaseMatrix(theta, Stage.RAW), DEMO_MAP).values
        shifted = lt_calibrate(
            PhaseMatrix(theta + c * DEMO_MAP.m + d, Stage.RAW), DEMO_MAP
        ).values
        worst = max(worst, np.max(np.abs(shifted - base + c * DEMO_MAP.m.mean())))
    verdict(2, worst <= 1e-12, f"worst deviation from -c*mean(m): {worst:.2e}")


def test_criterion_03_polynomials_pass_through_all_smoothers():
    # Degree <= n signals are fixed points of every smoothing route,
    # edges included, for n in 0..3 and windows 5, 7, 21, within 1e-9.
    rng = np.random.default_rng(103)
    worst = 0.0
    for order in (0, 1, 2, 3):
        for window in (5, 7, 21):
            spec = SgSpec(order=order, window=window)
            coeffs = rng.uniform(-1, 1, size=order + 1)

            t = np.linspace(-1, 1, 60)
            signal = np.polyval(coeffs, t)
            worst = max(worst, np.max(np.abs(sg_apply(signal, spec) - signal)))

            ts = np.linspace(-1, 1, 40)[:, None]
            tk = np.linspace(-1, 1, 30)[None, :]
            rows = np.polyval(coeffs, tk) + 0 * ts
            cols = np.polyval(coeffs, ts) + 0 * tk
            time_in = PhaseMatrix(cols, Stage.CALIBRATED)
            freq_in = PhaseMatrix(rows, Stage.CALIBRATED)
            worst = max(worst, np.max(np.abs(sg_time(time_in, spec).values - cols)))
            worst = max(worst, np.max(np.abs(sg_freq(freq_in, spec).values - rows)))

            surface = sum(
                rng.uniform(-0.5, 0.5) * ts**i * tk**j
                for i in range(order + 1)
                for j in range(order + 1 - i)
            )
            out_2d = sg_2d(
                PhaseMatrix(surface, Stage.CALIBRATED), spec, freq_spec=spec
            ).values
            worst = max(worst, np.max(np.abs(out_2d - surface)))
    verdict(3, worst <= 1e-9, f"worst polynomial distortion: {worst:.2e}")


def test_criterion_04_order2_window5_kernel_is_classic():
    # Central weights [-3, 12, 17, 12, -3]/35, against both the
    # published constants and a dense least-squares solve.
    kernel = sg_design(SgSpec(order=2, window=5))
    classic = np.array([-3.0, 12.0, 17.0, 12.0, -3.0]) / 35.0
    t = (np.arange(5.0) - 2.0) / 2.0
    v = np.vander(t, 3, increasing=True)
    dense = v @ np.linalg.solve(v.T @ v, v.T)
    err = max(
        np.max(np.abs(kernel.coefficients - classic)),
        np.max(np.abs(kernel.coefficients - dense[2])),
    )
    verdict(4, err <= 1e-12, f"kernel deviation: {err:.2e}")


def test_criterion_05_rebuilt_rows_respect_their_thresholds():
    # 1000 random symbols: gaps of the rebuilt row never exceed d_s
    # (within 1e-12), clamped gaps sit exactly on +-d_s (within 1e-12),
    # and a row rebuilt against a threshold it already satisfies comes
    # back bitwise unchanged.
    rng = np.random.default_rng(105)
    rows = np.cumsum(rng.uniform(-2.5, 2.5, size=(1000, 52)), axis=1)
    bound_ok = exact_ok = passthrough_ok = True
    for row in rows:
        d = gap_stats(row).d
        out = rebuild_symbol(row, d)
        gaps_in = np.diff(row)
        gaps_out = np.diff(out)
        bound_ok &= bool(np.max(np.abs(gaps_out)) <= d + 1e-12)
        flagged = np.abs(gaps_in) > d
        if flagged.any():
            exact_ok &= bool(
                np.max(np.abs(np.abs(gaps_out[flagged]) - d)) <= 1e-12
            )
        loose = rebuild_symbol(row, float(np.max(np.abs(gaps_in))))
        passthrough_ok &= bool(np.array_equal(loose, row))
    ok = bound_ok and exact_ok and passthrough_ok
    verdict(
        5,
        ok,
        f"bound {'ok' if bound_ok else 'violated'}, clamp exactness "
        f"{'ok' if exact_ok else 'violated'}, passthrough "
        f"{'ok' if passthrough_ok else 'violated'}",
    )


def test_criterion_06_rebuild_matches_scalar_trace_bitwise():
    # 1000 random rows with lengths up to 256 against an independently
    # written left-to-right scalar walk; equality is bit-for-bit.
    def scalar_walk(row, d):
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

    rng = np.random.default_rng(106)
    equal = True
    for _ in range(1000):
        k = int(rng.integers(2, 257))
        row = np.cumsum(rng.uniform(-2.0, 2.0, size=k))
        d = float(rng.uniform(0.1, 2.0))
        equal &= bool(np.array_equal(rebuild_symbol(row, d), scalar_walk(row, d)))
        if not equal:
            break
    verdict(6, equal, "production rebuild vs scalar trace on 1000 rows")


def test_criterion_07_all_methods_preserve_amplitude_bitwise():
    # The seven-method ladder on the 1000x52 demo fixture returns the
    # input amplitudes bit-identically.
    out = gen_dataset(demo_channel(), demo_impairments(1000, DEMO_MAP, seed=0), 1000)
    measured = out.measured_csi
    amp_in, _, _ = decompose(measured)
    failures = []
    for method in METHODS:
        result = process(measured, method)
        amp_out, _, _ = decompose(result.output)
        if not np.array_equal(amp_out.values, amp_in.values):
            failures.append(method)
    verdict(7, not failures, f"bit-identical amplitudes for {len(METHODS)} methods"
            + (f" (failed: {failures})" if failures else ""))


def test_criterion_08_injected_errors_are_recovered():
    # sigma=0, per-symbol delta_t in [-2, 2] and gamma in (-pi, pi]:
    # the endpoint route sees exactly the injected tilt (1e-9) and the
    # regression route's outputs correlate >= 0.999 per symbol.
    rng = np.random.default_rng(108)
    symbols = 300
    imp = ImpairmentSpec(
        delta_t=rng.uniform(-2, 2, symbols),
        gamma=np.pi - rng.uniform(0, 2 * np.pi, symbols),
        noise_sigma=0.0,
        seed=0,
        smap=DEMO_MAP,
    )
    true_csi = gen_true_csi(demo_channel(), symbols, DEMO_MAP)
    measured = apply_impairments(true_csi, imp).measured_csi
    _, raw_true, _ = decompose(true_csi)
    _, raw_meas, _ = decompose(measured)

    diff = lt_calibrate(raw_meas, DEMO_MAP).values - lt_calibrate(raw_true, DEMO_MAP).values
    expected = -(2 * np.pi * imp.delta_t / 64) * DEMO_MAP.m.mean()
    lt_err = np.max(np.abs(diff - expected[:, None]))

    corr = pearson_rows(
        lrr_calibrate(raw_meas).values, lrr_calibrate(raw_true).values
    )
    ok = bool(lt_err <= 1e-9 and corr.min() >= 0.999)
    verdict(8, ok, f"tilt recovery error {lt_err:.2e}, min correlation {corr.min():.6f}")


def test_criterion_09_difference_histogram_fits_noise_spread():
    # Flat channel, phase noise sigma=0.1, 2000x52 >= 1e5 samples: the
    # fitted std of adjacent differences lands within 5% of sqrt(2)*sigma.
    sigma = 0.1
    flat = gen_true_csi(ChannelSpec(paths=((0.0, 1.0),)), 2000, DEMO_MAP)
    imp = ImpairmentSpec(
        delta_t=np.zeros(2000), gamma=np.zeros(2000),
        noise_sigma=sigma, seed=109, smap=DEMO_MAP,
    )
    measured = apply_impairments(flat, imp).measured_csi
    _, raw, _ = decompose(measured)
    hist = diff_histogram(lrr_calibrate(raw))
    expected = np.sqrt(2) * sigma
    rel = abs(hist.fitted_std - expected) / expected
    verdict(9, rel < 0.05, f"fitted std {hist.fitted_std:.5f} vs {expected:.5f} ({rel:.1%} off)")


def test_criterion_10_exceedance_accounting_is_exact():
    # Totals: sum over subcarriers equals sum over symbols, exactly.
    rng = np.random.default_rng(110)
    raw = PhaseMatrix(np.pi - rng.uniform(0, 2 * np.pi, size=(200, 52)), Stage.RAW)
    result = process(
        CsiMatrix(np.exp(1j * raw.values)), "tsfr"
    )
    profile = exceedance_profile(result.report)
    conserved = int(profile.sum()) == int(result.report.exceedance.sum())

    # The [0, 5, 5.5] row with d=2 clamps exactly the gap into the
    # second subcarrier.
    rebuilt = rebuild_symbol(np.array([0.0, 5.0, 5.5]), 2.0)
    fixture = TsfrReport(
        mu=[2.0],
        sigma=[0.0],
        d=[2.0],
        exceedance=np.abs(np.diff(np.array([[0.0, 5.0, 5.5]]), axis=1,
                                  prepend=0.0)) * [[0, 1, 1]] > 2.0,
        modified_fraction=np.array([0.5]),
        clamped_down=np.array([0]),
        clamped_up=np.array([1]),
    )
    single = exceedance_profile(fixture)
    placed = bool(np.array_equal(single, [0, 1, 0]))
    rebuilt_ok = bool(np.allclose(rebuilt, [0.0, 2.0, 2.5], atol=1e-12))
    ok = conserved and placed and rebuilt_ok
    verdict(10, ok, f"totals conserved: {conserved}, single flag at k=2: {placed}")


def test_criterion_11_formats_round_trip_and_reject_corruption(tmp_path):
    rng = np.random.default_rng(111)
    csi = CsiMatrix(rng.normal(size=(6, 9)) + 1j * rng.normal(size=(6, 9)))

    write_csif(tmp_path / "a.csif", csi)
    write_csif(tmp_path / "b.csif", read_csif(tmp_path / "a.csif"))
    csif_ok = (tmp_path / "a.csif").read_bytes() == (tmp_path / "b.csif").read_bytes()

    write_csv(tmp_path / "a.csv", read_csif(tmp_path / "a.csif"))
    write_csif(tmp_path / "c.csif", read_csv(tmp_path / "a.csv"))
    csv_ok = (tmp_path / "a.csif").read_bytes() == (tmp_path / "c.csif").read_bytes()

    blob = bytearray((tmp_path / "a.csif").read_bytes())
    rejects = []
    (tmp_path / "m.csif").write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(CsifMagicError):
        read_csif(tmp_path / "m.csif")
    rejects.append("magic")
    (tmp_path / "v.csif").write_bytes(blob[:4] + b"\x09\x00" + blob[6:])
    with pytest.raises(CsifVersionError):
        read_csif(tmp_path / "v.csif")
    rejects.append("version")
    (tmp_path / "t.csif").write_bytes(blob[:-3])
    with pytest.raises(CsifTruncatedError):
        read_csif(tmp_path / "t.csif")
    rejects.append("truncated")
    (tmp_path / "d.csv").write_text("s,k,value\n1,1,0.5\n1,1,0.6\n")
    with pytest.raises(ValueError, match="line 3"):
        read_csv(tmp_path / "d.csv")
    rejects.append("duplicate-cell")

    ok = csif_ok and csv_ok and len(rejects) == 4
    verdict(11, ok, f"byte-identical round trips: csif={csif_ok}, via-csv={csv_ok}; "
            f"rejected: {', '.join(rejects)}")


def test_criterion_12_cli_chain_is_deterministic_and_fast(tmp_path):
    # synth --seed 7 -> process --method tsfr -> stats ds, twice; all
    # artifacts byte-identical and each full chain under 10 seconds.
    def chain(workdir):
        workdir.mkdir()
        base = workdir / "demo"
        steps = [
            ["synth", "--seed", "7", "--symbols", "1000", "--subcarriers", "52",
             "-o", str(base)],
            ["process", "-i", f"{base}.meas.csif", "-o", str(workdir / "out.csif"),
             "--method", "tsfr", "--report", str(workdir / "report.txt")],
            ["stats", "ds", "-i", str(workdir / "out.csif"),
             "-o", str(workdir / "ds.csv")],
        ]
        start = time.perf_counter()
        for step in steps:
            proc = subprocess.run(
                [sys.executable, "-m", "csiphase", *step],
                capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
        return time.perf_counter() - start

    t1 = chain(tmp_path / "run1")
    t2 = chain(tmp_path / "run2")
    names = ["demo.true.csif", "demo.meas.csif", "out.csif", "report.txt", "ds.csv"]
    identical = all(
        (tmp_path / "run1" / n).read_bytes() == (tmp_path / "run2" / n).read_bytes()
        for n in names
    )
    fast = max(t1, t2) < 10.0
    verdict(12, identical and fast,
            f"{len(names)} artifacts byte-identical, chains took {t1:.1f}s / {t2:.1f}s")
