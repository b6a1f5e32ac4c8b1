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
import os
import resource
import shutil
import subprocess
import sys
import threading
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
from csiphase.io import CsifReader, write_csif
from csiphase.savgol import sg_2d, sg_freq, sg_time
from csiphase.stats import diff_histogram, ds_series
from csiphase.synth import (
    ChannelSpec,
    apply_impairments,
    demo_channel,
    demo_impairments,
    gen_dataset,
    gen_true_csi,
)
from csiphase.tsfr import _unwrapped_gap_stats, process, tsfr

S, K = 10000, 52


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    rng = np.random.default_rng(41)
    raw = PhaseMatrix(rng.uniform(-np.pi, np.pi, (S, K)), Stage.RAW)
    smap = SubcarrierMap.contiguous(K, n_fft=64)
    amplitude = AmplitudeMatrix(rng.uniform(0.5, 2.0, (S, K)))
    read = amplitude.values * np.exp(1j * raw.values)
    read.setflags(write=False)  # a CsiMatrix keeps it, as it keeps a file's payload
    calibrated = lrr_calibrate(raw)
    csif = tmp_path_factory.mktemp("csif") / "read.csif"
    write_csif(csif, CsiMatrix(read))
    zero = np.zeros((S, K), dtype=np.complex128)
    zero.setflags(write=False)
    zero_csif = csif.with_name("zero.csif")
    write_csif(zero_csif, CsiMatrix(zero))
    return {
        "raw": raw,
        "amplitude": amplitude,
        "read": read,
        "csif": csif,
        "zero": zero,
        "zero_csif": zero_csif,
        "calibrated": calibrated,
        "tracks": np.ascontiguousarray(sg_time(calibrated).values.T),
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
    # buffer: their scratch is a few blocks of core._BLOCK cells. sg_time
    # smooths its tracks straight into the S x K output, and sg_2d unwraps,
    # fits and writes in it, holding the weight spectra of a row block of fit
    # terms at a time.
    "sg_time": (1.3, lambda x: sg_time(x["calibrated"])),  # was 3.01, then 2.00
    "sg_freq": (1.6, lambda x: sg_freq(x["calibrated"])),  # was 2.10
    "sg_2d": (1.4, lambda x: sg_2d(x["calibrated"])),  # was 3.04, then 2.13
    "ds_series": (0.21, lambda x: ds_series(x["calibrated"])),  # was 2.04, then 0.5
    # The differences, whose deviations are formed in their own buffer; the
    # bin indices of one row block at a time.
    "diff_histogram": (1.05, lambda x: diff_histogram(x["calibrated"])),  # was 2.94, then 1.96
    # The chain smooths, unwraps and rebuilds in the array its calibration
    # allocates; the walk runs in place, one row block at a time, and the
    # containers check their cells a row block at a time.
    "tsfr": (1.34, lambda x: tsfr(x["raw"])),  # was 4.06, then 2.62, then 2.55, then 1.52, then 1.36
    # Its per-symbol statistics plus two half blocks: the unwrapped rows and
    # their gaps, taken in the unwrap's gap buffer.
    "gap statistics of the unwrapped rows": (
        0.21, lambda x: _unwrapped_gap_stats(x["calibrated"].values)
    ),  # was 0.34
    # The caller's pair is not written: the calibration allocates the one
    # S x K array, and sg_freq smooths its rows in it.
    "process lrr+sgfreq of a decomposed pair": (
        1.35, lambda x: process((x["amplitude"], x["raw"]), "lrr+sgfreq")
    ),  # was 2.28
    "synth.gen_true_csi with gain drift": (
        2.5, lambda x: gen_true_csi(x["drift"], S, x["smap"])
    ),  # was 4.08
    # Each call gets a fresh matrix, as a matrix's views form only once; a
    # CsiMatrix keeps the read-only values it is given, so this copies nothing.
    # The noise is drawn a row block at a time into one scratch block.
    "synth.apply_impairments": (
        3.2, lambda x: apply_impairments(CsiMatrix(x["true"].values), x["impairments"])
    ),  # was 7.00, then 4.00
    "recompose": (0.01, lambda x: recompose(x["amplitude"], x["raw"])),  # was 2.00
    "decompose of a recomposed matrix": (
        1.5, lambda x: decompose(recompose(x["amplitude"], x["raw"]))
    ),  # was 2.00
    "values of a recomposed matrix": (
        2.25, lambda x: recompose(x["amplitude"], x["raw"]).values
    ),  # was 3.07
    "decompose of a read matrix": (2.5, lambda x: decompose(CsiMatrix(x["read"]))),  # 2.25, unchanged
    # Each row block is split into the two outputs as it is read, into one
    # reused block of scratch: the complex payload never exists whole.
    "read and decompose a CSIF file": (2.35, lambda x: read_decomposed(x["csif"])),  # was 4.25
    # Each block's amplitude goes to a block of scratch.
    "read the phase alone of a CSIF file": (1.45, lambda x: read_phase(x["csif"])),
    # Zero cells are where the amplitude is zero, so a capture whose cells
    # are all zero decomposes in the working set of any other.
    "decompose of a read matrix whose cells are all zero": (
        2.5, lambda x: decompose(CsiMatrix(x["zero"]))
    ),  # was 15.5
    "read and decompose an all-zero CSIF file": (
        2.35, lambda x: read_decomposed(x["zero_csif"])
    ),  # was 15.7
}


def read_decomposed(path):
    with CsifReader(path) as reader:
        return reader.read()


def read_phase(path):
    with CsifReader(path) as reader:
        return reader._phase()


@pytest.mark.parametrize("stage", STAGES)
def test_stage_working_set_of_a_long_capture(inputs, stage):
    bound, call = STAGES[stage]
    assert arrays_at_peak(lambda: call(inputs)) <= bound


def test_tsfr_rebuild_and_report_hand_over_what_they_allocate(inputs, monkeypatch):
    # With the smoothing stubbed by writing its tracks over the calibrated
    # phase, the peak is that of the calibration, the rebuild and the report:
    # one S x K phase, the exceedance marks and a row block of scratch. A
    # transposed copy of the phase or of the marks, or a container that copies
    # what the chain just made, pushes it past the bound (was 2.60, then 2.4,
    # then 1.55).
    tracks = inputs["tracks"]

    def smooth_in_place(rows, *_, out, **__):
        out[...] = tracks
        return out

    monkeypatch.setattr(importlib.import_module("csiphase.savgol"), "_smooth_rows", smooth_in_place)
    assert arrays_at_peak(lambda: tsfr(inputs["raw"])) <= 1.36


@pytest.fixture(scope="module")
def capture(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli") / "cap"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--symbols", str(S), "--subcarriers", str(K),
                     "--seed", "3", "-o", str(base)]) == 0
    return base


def cli_arrays_at_peak(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return arrays_at_peak(lambda: main(argv))


def test_process_verify_amplitude_sets_no_peak_of_its_own(capture):
    # A regular file is read twice, the phase alone and then the blocks the
    # output is formed from, so no S x K amplitude exists. The check keeps a
    # digest of each block's amplitude from the first read and compares the
    # second read's with it: no third read, and no array of its own.
    argv = ["process", "-i", f"{capture}.meas.csif", "-o", f"{capture}.out.csif",
            "--method", "tsfr"]
    plain = cli_arrays_at_peak(argv)
    checked = cli_arrays_at_peak(argv + ["--verify-amplitude"])
    assert checked <= plain + 0.05
    assert checked <= 1.67  # was 8.08, then 6.43, then 4.5, then 3.75, then 2.53, then 2.37


# CLI process with --report on a regular file: the first read keeps the phase
# alone, and every method runs in that array. The second read forms each row
# block's amplitude again and writes the block's output rows, once the
# exceedance marks are dropped. The peak is that phase plus a few row blocks
# of scratch: the second read's payload, amplitude and fill blocks (for tsfr
# also the report's per-symbol columns, which the report file is written from
# after the phase is gone). Bounds sit just above the measured peaks (old ones
# at the right).
CLI_PROCESS = {
    "raw": 1.55,  # was 2.35
    "lt": 1.55,  # was 3.17, then 2.35
    "lrr": 1.55,  # was 3.18, then 2.35
    "lrr+sgfreq": 1.55,  # was 4.29, then 2.35
    "lrr+sgtime": 1.55,  # was 5.13, then 4.14, then 2.35
    "lrr+sg2d": 1.55,  # was 5.14, then 4.14, then 2.45
    "tsfr": 1.67,  # was 3.61, then 2.53, then 2.37, with --verify-amplitude
}


@pytest.mark.parametrize("method", CLI_PROCESS)
def test_process_runs_each_method_in_the_phase_array_it_read(capture, method):
    argv = ["process", "-i", f"{capture}.meas.csif", "-o", f"{capture}.{method}.csif",
            "--method", method, "--report", f"{capture}.{method}.txt"]
    if method == "tsfr":
        argv.append("--verify-amplitude")
    assert cli_arrays_at_peak(argv) <= CLI_PROCESS[method]


def test_process_in_place_reads_twice_in_the_working_set_of_a_file_run(capture, tmp_path):
    # The output is renamed over the input once written, so the input is
    # read twice, as into another file: the phase read alone plus the row
    # blocks of the second read, where reading once held the polar pair.
    target = tmp_path / "in_place.csif"

    def in_place():
        shutil.copyfile(f"{capture}.meas.csif", target)
        assert main(["process", "-i", str(target), "-o", str(target), "--method", "tsfr",
                     "--report", str(tmp_path / "in_place.txt")]) == 0

    with contextlib.redirect_stdout(io.StringIO()):
        assert arrays_at_peak(in_place) <= 1.67  # was 2.37, then 2.35


# A pipe is read once: the phase, which the method runs in, and the S x K
# amplitude beside it, from which the output's rows are formed with no second
# read (measured 2.28 for lrr and 2.33 for tsfr).
PIPED_PROCESS = {"lrr": 2.3, "tsfr": 2.35}


@pytest.mark.parametrize("method", PIPED_PROCESS)
def test_process_of_a_pipe_holds_the_amplitude_beside_the_phase(capture, tmp_path, method):
    with open(f"{capture}.meas.csif", "rb") as fh:
        payload = fh.read()
    fifo = tmp_path / "in.fifo"
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "wb") as fh:
            fh.write(payload)

    def from_the_pipe():
        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        try:
            assert main(["process", "-i", str(fifo), "-o", str(tmp_path / "o.csif"),
                         "--method", method, "--report", str(tmp_path / "o.txt")]) == 0
        finally:
            writer.join(timeout=60)
        assert not writer.is_alive()

    with contextlib.redirect_stdout(io.StringIO()):
        assert arrays_at_peak(from_the_pipe) <= PIPED_PROCESS[method]


def test_stats_ds_holds_no_complex_input(capture):
    # The phase is read alone, each block's amplitude in scratch, and
    # calibrated in its own array: the phase plus a few blocks is the peak.
    argv = ["stats", "ds", "-i", f"{capture}.meas.csif", "-o", f"{capture}.ds.csv"]
    assert cli_arrays_at_peak(argv) <= 1.5  # was 4.26, then 2.28


def test_stats_exceed_holds_one_phase_array(capture):
    # The phase is read alone and tsfr runs in it: the phase, the
    # exceedance marks and a few blocks of scratch.
    argv = ["stats", "exceed", "-i", f"{capture}.meas.csif", "-o", f"{capture}.exceed.csv"]
    assert cli_arrays_at_peak(argv) <= 1.5  # was 3.43, then 2.6, then 2.28


def test_stats_diffhist_holds_one_phase_array_and_its_gaps(capture):
    # The phase is read alone and calibrated in its own array; the histogram
    # adds the S x (K - 1) differences, in which their deviations are formed,
    # and bins a row block at a time.
    argv = ["stats", "diffhist", "-i", f"{capture}.meas.csif", "-o", f"{capture}.hist.csv"]
    assert cli_arrays_at_peak(argv) <= 2.1  # was 2.97


def synth_argv(base, symbols):
    return ["synth", "--symbols", str(symbols), "--subcarriers", str(K), "--seed", "7",
            "-o", str(base)]


def test_synth_streams_its_pair_in_a_working_set_flat_in_s(tmp_path):
    # The pair is generated, impaired and written a row block at a time: no
    # S x K array exists (was 5.18). What grows with S is what the command
    # draws per symbol, the 16 bytes of delta_t and gamma.
    peaks = {s: cli_arrays_at_peak(synth_argv(tmp_path / str(s), s)) for s in (S, 4 * S)}
    assert peaks[S] <= 1.1
    drawn = (4 * S - S) * 16 / (S * K * 8)  # delta_t and gamma of the added symbols
    assert peaks[4 * S] <= 1.05 * peaks[S] + drawn
    # Given its specs, the stream itself is flat in S.
    stream = {}
    for s in (S, 4 * S):
        imp = demo_impairments(s, seed=7)
        stream[s] = arrays_at_peak(
            lambda: gen_dataset(demo_channel(), imp, s, out=tmp_path / "specs")
        )
    assert stream[4 * S] <= 1.05 * stream[S]


# Address space for the CLI in a child process running on a 200000x52
# capture, where one S x K float array takes 79.3 MiB. Python with the package
# imported takes about 103 MiB, so a working set of two S x K arrays needs
# about 262 MiB.
LONG = 200000
LIMIT = 250 << 20


def run_limited(argv):
    """The CLI in a child process whose address space is limited to LIMIT."""

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (LIMIT, LIMIT))

    return subprocess.run(
        [sys.executable, "-m", "csiphase", *argv],
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),
        preexec_fn=limit_address_space,
        capture_output=True,
        text=True,
    )


@pytest.fixture(scope="module")
def long_capture(tmp_path_factory):
    """A 200000x52 pair synthesized under LIMIT: the child, and the base."""
    base = tmp_path_factory.mktemp("long") / "long"
    try:
        yield run_limited(synth_argv(base, LONG)), base
    finally:
        for kind in ("true", "meas"):
            base.with_name(f"long.{kind}.csif").unlink(missing_ok=True)


def test_synth_of_a_long_capture_runs_where_holding_it_ran_out(long_capture):
    # Holding the 200000x52 pair in memory took more than 500 MiB of address
    # space and exited 5 under this limit; the stream needs a few row blocks
    # (it also ran under 120 MiB). The limit binds the child alone.
    proc, base = long_capture
    assert proc.returncode == 0, proc.stderr
    assert base.with_name("long.meas.csif").stat().st_size == 16 + LONG * K * 16


# The row-local raw, lt and lrr+sgfreq hold what lrr holds (188 MiB here
# too); the in-process bounds at 10000x52 above cover them, which keeps three
# 200000x52 runs out of the suite's time.
@pytest.mark.parametrize("method", ["lrr", "tsfr"])
def test_process_of_a_long_capture_runs_in_less_than_two_arrays(long_capture, tmp_path, method):
    # Reading the amplitude alongside the phase took about 2.3 S x K arrays:
    # 270 MiB of address space for lrr and 315 MiB for tsfr, which exited 5
    # under this limit. Read twice, the phase alone and then the blocks the
    # output is formed from, lrr needs 188 MiB and tsfr 240 MiB.
    proc, base = long_capture
    assert proc.returncode == 0, proc.stderr
    out = tmp_path / "long.out.csif"
    try:
        proc = run_limited(["process", "-i", f"{base}.meas.csif", "-o", str(out),
                            "--method", method])
        assert proc.returncode == 0, proc.stderr
        assert out.stat().st_size == 16 + LONG * K * 16
    finally:
        out.unlink(missing_ok=True)
