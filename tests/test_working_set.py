"""Working set of each long-capture stage, in S x K float64 arrays.

Every stage allocates its output plus at most one S x K temporary and
computes in the buffers it has just allocated. The peak is the
``tracemalloc`` peak of one call after a warm one (designs are cached),
divided by the bytes of one 10000x52 float64 array; the inputs exist
before the measurement starts.
"""

import contextlib
import importlib
import io
import tracemalloc

import numpy as np
import pytest

from csiphase.calib import lrr_calibrate, lt_calibrate
from csiphase.cli import main
from csiphase.core import (
    AmplitudeMatrix,
    CsiMatrix,
    PhaseMatrix,
    Stage,
    SubcarrierMap,
    decompose,
    recompose,
)
from csiphase.savgol import _time_tracks, sg_2d, sg_freq, sg_time
from csiphase.stats import ds_series
from csiphase.synth import (
    ChannelSpec,
    apply_impairments,
    demo_channel,
    demo_impairments,
    gen_true_csi,
)
from csiphase.tsfr import tsfr

S, K = 10000, 52


@pytest.fixture(scope="module")
def inputs():
    rng = np.random.default_rng(41)
    raw = PhaseMatrix(rng.uniform(-np.pi, np.pi, (S, K)), Stage.RAW)
    smap = SubcarrierMap.contiguous(K, n_fft=64)
    amplitude = AmplitudeMatrix(rng.uniform(0.5, 2.0, (S, K)))
    read = amplitude.values * np.exp(1j * raw.values)
    read.setflags(write=False)  # a CsiMatrix keeps it, as it keeps a file's payload
    calibrated = lrr_calibrate(raw)
    return {
        "raw": raw,
        "amplitude": amplitude,
        "read": read,
        "calibrated": calibrated,
        "tracks": _time_tracks(calibrated, None, 2, 0.1),
        "smap": smap,
        "drift": ChannelSpec(demo_channel().paths, drift_depth=0.2, drift_period=100),
        "true": gen_true_csi(demo_channel(), S, smap),
        "impairments": demo_impairments(S, smap, seed=3),
    }


def arrays_at_peak(call):
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / (S * K * 8)
    finally:
        tracemalloc.stop()


# Bounds sit just above the measured peaks, well below the old ones (left):
# one more S x K temporary in any stage fails its test.
STAGES = {
    "lt_calibrate": (1.3, lambda x: lt_calibrate(x["raw"], x["smap"])),  # was 2.07
    # The fits are made a block of rows at a time, in the unwrapped buffer.
    "lrr_calibrate": (1.3, lambda x: lrr_calibrate(x["raw"])),  # was 3.13, then 2.15
    # The row-block passes hold no S x K spectrum, inverse transform or gap
    # buffer: their scratch is a few blocks of core._BLOCK cells.
    "sg_time": (2.25, lambda x: sg_time(x["calibrated"])),  # was 3.01
    "sg_freq": (1.6, lambda x: sg_freq(x["calibrated"])),  # was 2.10
    "sg_2d": (2.3, lambda x: sg_2d(x["calibrated"])),  # was 3.04
    "ds_series": (0.5, lambda x: ds_series(x["calibrated"])),  # was 2.04
    "tsfr": (2.55, lambda x: tsfr(x["raw"])),  # was 4.06, then 2.62
    "synth.gen_true_csi with gain drift": (
        2.5, lambda x: gen_true_csi(x["drift"], S, x["smap"])
    ),  # was 4.08
    # Each call gets a fresh matrix, as a matrix's views form only once; a
    # CsiMatrix keeps the read-only values it is given, so this copies nothing.
    "synth.apply_impairments": (
        4.5, lambda x: apply_impairments(CsiMatrix(x["true"].values), x["impairments"])
    ),  # was 7.00
    "recompose": (0.01, lambda x: recompose(x["amplitude"], x["raw"])),  # was 2.00
    "decompose of a recomposed matrix": (
        1.5, lambda x: decompose(recompose(x["amplitude"], x["raw"]))
    ),  # was 2.00
    "values of a recomposed matrix": (
        2.25, lambda x: recompose(x["amplitude"], x["raw"]).values
    ),  # was 3.07
    "decompose of a read matrix": (2.5, lambda x: decompose(CsiMatrix(x["read"]))),  # 2.25, unchanged
}


@pytest.mark.parametrize("stage", STAGES)
def test_stage_working_set_of_a_long_capture(inputs, stage):
    bound, call = STAGES[stage]
    assert arrays_at_peak(lambda: call(inputs)) <= bound


def test_tsfr_rebuild_and_report_hand_over_what_they_allocate(inputs, monkeypatch):
    # With the smoothing stubbed by a copy of its tracks, the peak is that of
    # the rebuild and the report: the tracks, the rebuilt phase and the K x S
    # masks. Transposed copies of the masks, or containers that copy what the
    # chain just made, push it past the bound (was 2.60).
    tracks = inputs["tracks"]
    # The package exports the function tsfr under its module's name.
    module = importlib.import_module("csiphase.tsfr")
    monkeypatch.setattr(module, "_time_tracks", lambda *_: tracks.copy())
    assert arrays_at_peak(lambda: tsfr(inputs["raw"])) <= 2.4


def test_process_verify_amplitude_sets_no_peak_of_its_own(tmp_path):
    # The check compares the input's np.abs with the output amplitude a row
    # block at a time and folds no phase, so the command's peak stays that
    # of tsfr: the payload, its polar pair and tsfr's working set.
    base = tmp_path / "cap"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--symbols", str(S), "--subcarriers", str(K),
                     "--seed", "3", "-o", str(base)]) == 0
        argv = ["process", "-i", f"{base}.meas.csif", "-o", str(tmp_path / "out.csif"),
                "--method", "tsfr"]
        plain = arrays_at_peak(lambda: main(argv))
        checked = arrays_at_peak(lambda: main(argv + ["--verify-amplitude"]))
    assert checked <= plain + 0.05
    assert checked <= 6.9  # was 8.08
