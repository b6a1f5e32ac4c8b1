"""Row-block passes give the bytes of one whole-matrix block.

Every stage pass that works a block of rows or tracks at a time (the
calibrations, the unwraps, the smoothing correlations and edge fits, the
``sg_2d`` interior, the gap statistics and the rebuild's exceedance
masks), and the streamed ``synth`` that writes its CSIF pair a block at
a time, is run with ``core._BLOCK`` shrunk, so that several blocks run
and the last one is partial, and compared byte for byte with a run in
which one block covers the whole input. The inputs mix calm stretches, where the unwrap takes
its fast path, with wrapping ones, so blocks differ in the path they take.
"""

import numpy as np
import pytest

import csiphase.core as core
from csiphase.calib import lrr_calibrate, lt_calibrate
from csiphase.core import PhaseMatrix, Stage, SubcarrierMap
from csiphase.io import write_csif
from csiphase.savgol import (
    _FFT_MIN_WINDOW,
    DegenerateWindowWarning,
    SgSpec,
    _fast_length,
    _interior_blocks,
    _unwrap_grid,
    sg_2d,
    sg_freq,
    sg_time,
)
from csiphase.stats import ds_series
from csiphase.synth import ChannelSpec, demo_channel, demo_impairments, gen_dataset
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


def interior_blocks(s, k, w_c):
    """The interior blocks ``sg_2d`` runs at the current ``core._BLOCK``."""
    return _interior_blocks(k - w_c + 1, _fast_length(s), w_c - 1, w_c // 2)


@pytest.mark.parametrize("per_block", [1, 7, 9, 11])
def test_sg_2d_is_block_invariant(monkeypatch, per_block):
    # 24 interior tracks, each window reaching 6 tracks past its own: the
    # interior runs blocks of 3, 3, 5 and 7 tracks, so the halo the next
    # block keeps is moved down in pieces or, at 7, in one
    s, k = 60, 30
    calibrated = lrr_calibrate(PhaseMatrix(mixed_phase(4, s, k), Stage.RAW))
    nc = k - 7 + 1
    whole, blocked = whole_and_blocked(
        monkeypatch,
        lambda: sg_2d(calibrated, SgSpec(2, 11), freq_spec=SgSpec(2, 7)),
        nc, s, per_block,
    )
    assert len(interior_blocks(s, k, 7)) > 2
    monkeypatch.setattr(core, "_BLOCK", 1 << 40)
    assert len(interior_blocks(s, k, 7)) == 1
    assert_same_bytes(whole.values, blocked.values)


def test_sg_2d_default_windows_are_block_invariant(monkeypatch):
    s, k = 400, 52
    calibrated = lrr_calibrate(PhaseMatrix(mixed_phase(5, s, k), Stage.RAW))
    whole, blocked = whole_and_blocked(monkeypatch, lambda: sg_2d(calibrated), k - 5 + 1, s, 5)
    assert len(interior_blocks(s, k, 5)) > 2
    assert_same_bytes(whole.values, blocked.values)


@pytest.mark.parametrize("per_block", [1, 7])
def test_sg_2d_unwrap_is_block_invariant(monkeypatch, per_block):
    # blocks of symbol rows: wrapped rows, then calm ones, whose blocks
    # carry the running wrap sums of the rows before them
    s, k = 90, 12
    grid = mixed_phase(9, s, k)
    grid[2 * s // 3 :] = 0.1 * np.random.default_rng(9).normal(size=(s - 2 * s // 3, k))
    whole, blocked = whole_and_blocked(
        monkeypatch, lambda: _unwrap_grid(grid, np.empty((s, k))), s - 1, k, per_block
    )
    assert_same_bytes(whole, blocked)


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


def test_tsfr_passes_a_degenerate_window_through_in_blocks(monkeypatch):
    # order 3 needs a window of 5: three symbols pass through unsmoothed, in
    # place over the calibrated phase when the time tracks run in blocks
    s, k = 3, 8
    raw = PhaseMatrix(mixed_phase(9, s, k), Stage.RAW)
    with pytest.warns(DegenerateWindowWarning):
        whole, blocked = whole_and_blocked(
            monkeypatch, lambda: tsfr(raw, order=3), s, k, per_block=1
        )
    assert len(core._row_blocks(k, s)) > 1
    assert_same_bytes(whole[0].values, blocked[0].values)
    assert_same_bytes(whole[1].exceedance, blocked[1].exceedance)


# The Intel 5300's 30 reported subcarriers: -28..28 in steps of 2, with
# -1 and +1 in the middle.
INTEL_5300 = SubcarrierMap(np.r_[np.arange(-28, -1, 2), -1, 1, np.arange(2, 29, 2)], n_fft=64)
DRIFT = ChannelSpec(
    ((0.0, 1.0), (3.0, 0.4 + 0.2j), (7.0, 0.1 - 0.3j)), drift_depth=0.3, drift_period=11
)


@pytest.mark.parametrize(
    "channel,smap",
    [(demo_channel(), SubcarrierMap.contiguous(20, n_fft=64)), (DRIFT, INTEL_5300)],
    ids=["demo", "drift"],
)
def test_streamed_synth_is_block_invariant_and_writes_the_in_memory_pair(
    monkeypatch, tmp_path, channel, smap
):
    # 29 rows of 7 per block: five blocks, the last one a single row
    s, per_block = 29, 7
    imp = demo_impairments(s, smap, seed=12)
    runs = iter(range(2))

    def files():
        run = tmp_path / str(next(runs))
        run.mkdir()
        assert gen_dataset(channel, imp, s, out=run / "streamed") is None
        pair = gen_dataset(channel, imp, s)
        write_csif(run / "memory.true.csif", pair.true_csi)
        write_csif(run / "memory.meas.csif", pair.measured_csi)
        return {f.name: f.read_bytes() for f in run.iterdir()}

    whole, blocked = whole_and_blocked(monkeypatch, files, s, len(smap), per_block)
    assert core._row_blocks(s, len(smap))[-1] == slice(s - 1, s)
    assert len(whole) == 4 and whole == blocked
    for kind in ("true", "meas"):
        assert whole[f"streamed.{kind}.csif"] == whole[f"memory.{kind}.csif"]
    assert whole["streamed.true.csif"] != whole["streamed.meas.csif"]
