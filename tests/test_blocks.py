"""Row-block passes give the bytes of one whole-matrix block.

Every stage pass that works a block of rows or tracks at a time (the
calibrations, the unwraps, the smoothing correlations and edge fits, the
``sg_2d`` interior, the gap statistics and the rebuild's exceedance
masks) is run with ``core._BLOCK`` shrunk, so that several blocks run
and the last one is partial, and compared byte for byte with a run in
which one block covers the whole input. The inputs mix calm stretches, where the unwrap takes
its fast path, with wrapping ones, so blocks differ in the path they take.
"""

import numpy as np
import pytest

import csiphase.core as core
from csiphase.calib import lrr_calibrate, lt_calibrate
from csiphase.core import PhaseMatrix, Stage, SubcarrierMap
from csiphase.savgol import _FFT_MIN_WINDOW, SgSpec, sg_2d, sg_freq, sg_time
from csiphase.stats import ds_series
from csiphase.tsfr import tsfr


def mixed_phase(seed, s, k):
    """Wrapped phases; the first quarter of the rows and the first third
    of the tracks are calm (every gap well below 3 rad)."""
    rng = np.random.default_rng(seed)
    p = rng.uniform(-np.pi, np.pi, (s, k))
    p[: s // 4] = 0.1 * rng.normal(size=(s // 4, k))
    p[:, : k // 3] = 0.1 * rng.normal(size=(s, k // 3))
    p[rng.random((s, k)) < 0.05] = -0.0
    return p


def whole_and_blocked(monkeypatch, call, rows, length, per_block):
    """``call()`` with one block, then with ``per_block`` rows of
    ``length`` cells per block; asserts that more than two blocks run and,
    unless each is one row, that the last is partial."""
    monkeypatch.setattr(core, "_BLOCK", 1 << 40)
    assert len(core._row_blocks(rows, length)) == 1
    whole = call()
    monkeypatch.setattr(core, "_BLOCK", per_block * length)
    blocks = core._row_blocks(rows, length)
    assert len(blocks) > 2
    assert per_block == 1 or blocks[-1].stop - blocks[-1].start < per_block
    return whole, call()


def assert_same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("per_block", [1, 7])
def test_lt_calibrate_is_block_invariant(monkeypatch, per_block):
    s, k = 45, 12
    raw = PhaseMatrix(mixed_phase(1, s, k), Stage.RAW)
    smap = SubcarrierMap(np.r_[np.arange(-6, 0), np.arange(1, 7)] * 2, n_fft=32)
    whole, blocked = whole_and_blocked(
        monkeypatch, lambda: lt_calibrate(raw, smap), s, k, per_block
    )
    assert_same_bytes(whole.values, blocked.values)


@pytest.mark.parametrize("abscissa", [None, np.r_[np.arange(-6, 0), np.arange(1, 7)] * 2])
@pytest.mark.parametrize("per_block", [1, 7])
def test_lrr_calibrate_is_block_invariant(monkeypatch, per_block, abscissa):
    s, k = 45, 12
    raw = PhaseMatrix(mixed_phase(8, s, k), Stage.RAW)
    whole, blocked = whole_and_blocked(
        monkeypatch, lambda: lrr_calibrate(raw, abscissa), s, k, per_block
    )
    assert_same_bytes(whole.values, blocked.values)


@pytest.mark.parametrize("window", [7, 41])
@pytest.mark.parametrize("per_block", [1, 5])
def test_sg_time_is_block_invariant(monkeypatch, window, per_block):
    # tracks are the rows: K of them, S samples long
    s, k = 100, 12
    calibrated = lrr_calibrate(PhaseMatrix(mixed_phase(2, s, k), Stage.RAW))
    whole, blocked = whole_and_blocked(
        monkeypatch, lambda: sg_time(calibrated, SgSpec(2, window)), k, s, per_block
    )
    assert (window >= _FFT_MIN_WINDOW) == (window == 41)
    assert_same_bytes(whole.values, blocked.values)


@pytest.mark.parametrize("window", [5, 41])
@pytest.mark.parametrize("per_block", [1, 7])
def test_sg_freq_is_block_invariant(monkeypatch, window, per_block):
    s, k = 30, 80
    calibrated = lrr_calibrate(PhaseMatrix(mixed_phase(3, s, k), Stage.RAW))
    whole, blocked = whole_and_blocked(
        monkeypatch, lambda: sg_freq(calibrated, SgSpec(3, window)), s, k, per_block
    )
    assert (window >= _FFT_MIN_WINDOW) == (window == 41)
    assert_same_bytes(whole.values, blocked.values)


@pytest.mark.parametrize("per_block", [1, 7, 9])
def test_sg_2d_is_block_invariant(monkeypatch, per_block):
    # 24 interior tracks, each window reaching 6 tracks past its own: every
    # block boundary falls inside the halo the next block keeps (a block
    # asked to be shorter than the halo spans it)
    s, k = 60, 30
    calibrated = lrr_calibrate(PhaseMatrix(mixed_phase(4, s, k), Stage.RAW))
    nc = k - 7 + 1
    whole, blocked = whole_and_blocked(
        monkeypatch,
        lambda: sg_2d(calibrated, SgSpec(2, 11), freq_spec=SgSpec(2, 7)),
        nc, s, per_block,
    )
    assert_same_bytes(whole.values, blocked.values)


def test_sg_2d_default_windows_are_block_invariant(monkeypatch):
    s, k = 400, 52
    calibrated = lrr_calibrate(PhaseMatrix(mixed_phase(5, s, k), Stage.RAW))
    whole, blocked = whole_and_blocked(monkeypatch, lambda: sg_2d(calibrated), k - 5 + 1, s, 5)
    assert_same_bytes(whole.values, blocked.values)


@pytest.mark.parametrize("per_block", [1, 7])
def test_ds_series_is_block_invariant(monkeypatch, per_block):
    s, k = 45, 12
    calibrated = lrr_calibrate(PhaseMatrix(mixed_phase(6, s, k), Stage.RAW))
    whole, blocked = whole_and_blocked(
        monkeypatch, lambda: ds_series(calibrated), s, k, per_block
    )
    assert_same_bytes(whole.d, blocked.d)


@pytest.mark.parametrize("per_block", [1, 7])
def test_tsfr_is_block_invariant(monkeypatch, per_block):
    # gap rows are S of K cells; the time tracks K of S cells
    s, k = 100, 12
    raw = PhaseMatrix(mixed_phase(7, s, k), Stage.RAW)
    whole, blocked = whole_and_blocked(monkeypatch, lambda: tsfr(raw), s, k, per_block)
    assert len(core._row_blocks(k, s)) > 1  # the time tracks run in blocks too
    (out_whole, report_whole), (out_blocked, report_blocked) = whole, blocked
    assert report_whole.exceedance.any()
    assert_same_bytes(out_whole.values, out_blocked.values)
    for name in ("mu", "sigma", "d", "exceedance", "modified_fraction",
                 "clamped_down", "clamped_up"):
        assert_same_bytes(getattr(report_whole, name), getattr(report_blocked, name))
