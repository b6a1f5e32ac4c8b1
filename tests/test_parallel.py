"""Row-block passes on several worker threads give the bytes of one.

``core._run_blocks`` deals the row blocks of a pass to ``core._WORKERS``
threads in contiguous shares. Every method, ``decompose``, the streamed
CSIF write and the cartesian fill of CLI ``process`` and ``synth`` are
run with one, two and three workers and compared byte for byte; errors
name the first bad row whatever the worker count;
numpy's ``errstate`` reaches the workers; and a pass whose threads cannot
start, or that runs in a forked child, still gives the same bytes.
"""

import multiprocessing
import os
import threading
import warnings

import numpy as np
import pytest

import csiphase.core as core
import csiphase.io as csiphase_io
from csiphase.calib import lrr_calibrate
from csiphase.cli import main
from csiphase.core import (
    AmplitudeMatrix,
    CsiMatrix,
    PhaseMatrix,
    SubcarrierMap,
    decompose,
    recompose,
)
from csiphase.io import write_csif
from csiphase.tsfr import METHODS, process

VHT80 = SubcarrierMap(np.r_[np.arange(-122, -1), np.arange(2, 123)], n_fft=256)


def capture_values(seed, s, k):
    """Read-only complex cells: calm and wrapping rows, zero-amplitude
    cells and signed zeros."""
    rng = np.random.default_rng(seed)
    phase = rng.uniform(-np.pi, np.pi, (s, k))
    phase[: s // 4] = 0.1 * rng.normal(size=(s // 4, k))
    values = rng.uniform(0.2, 3.0, (s, k)) * np.exp(1j * phase)
    values[rng.random((s, k)) < 0.05] = 0j
    values[::7, ::5] = complex(1.25, -0.0)
    values[3, :] = complex(-0.0, -0.0)
    values.setflags(write=False)
    return values


# 3000x52 runs three row blocks, the last partial; the VHT80 capture six.
CASES = {
    "blocks": (capture_values(1, 3000, 52), None),
    "vht80": (capture_values(2, 1500, len(VHT80)), VHT80),
}


def outputs(tmp_path, values, smap):
    """The bytes of ``decompose`` and of every method's output file and
    report, each from a matrix read afresh."""
    got = {"decompose": b"".join(m.values.tobytes() for m in decompose(CsiMatrix(values)))}
    for method in METHODS:
        settings = {} if smap is None else {"smap": smap, "abscissa": "physical"}
        output, report = process(CsiMatrix(values), method, **settings)
        path = tmp_path / f"{method}.csif"
        write_csif(path, output)
        got[method] = path.read_bytes()
        if report is not None:
            got[method + " report"] = b"".join(
                np.asarray(getattr(report, name)).tobytes() for name in report.__dataclass_fields__
            )
    return got


@pytest.mark.parametrize("case", CASES)
def test_every_worker_count_gives_the_serial_bytes(tmp_path, monkeypatch, case):
    values, smap = CASES[case]
    monkeypatch.setattr(core, "_WORKERS", 1)
    serial = outputs(tmp_path, values, smap)
    for workers in (2, 3):
        monkeypatch.setattr(core, "_WORKERS", workers)
        assert outputs(tmp_path, values, smap) == serial
    assert core._pool._started == 2  # three workers ran: the caller and two helpers


def cli_outputs(tmp_path, capsys, capture):
    """The bytes of CLI ``process`` lrr and tsfr of ``capture``, read from
    the file and from a FIFO, and of a 3000x52 ``synth`` pair, all written
    into regular files; and whether ``process`` wrote blocks from more
    than one thread."""
    got, threads = {}, set()
    write = csiphase_io._PayloadWriter.__call__

    def record(self, block, row):
        threads.add(threading.get_ident())
        write(self, block, row)

    fifo = tmp_path / "in.fifo"
    for method in ("lrr", "tsfr"):
        for source in ("file", "fifo"):
            path = capture
            if source == "fifo":
                os.mkfifo(fifo)
                path = fifo
                feed = threading.Thread(target=lambda: fifo.write_bytes(capture.read_bytes()),
                                        daemon=True)
                feed.start()
            out = tmp_path / f"{method}.{source}.csif"
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(csiphase_io._PayloadWriter, "__call__", record)
                assert main(["process", "-i", str(path), "-o", str(out), "--method", method]) == 0
            if source == "fifo":
                feed.join(timeout=60)
                assert not feed.is_alive()
                fifo.unlink()
            got[out.name] = out.read_bytes()
    assert main(["synth", "--symbols", "3000", "--subcarriers", "52", "--seed", "5",
                 "-o", str(tmp_path / "pair")]) == 0
    for kind in ("true", "meas"):
        got[kind] = (tmp_path / f"pair.{kind}.csif").read_bytes()
    capsys.readouterr()
    return got, len(threads) > 1


def test_the_cli_fills_on_every_worker_to_the_serial_bytes(tmp_path, capsys, monkeypatch):
    # A read block of 3000x52 holds four fill blocks, each worker's share
    # of it two or more. Into a regular file, CLI process writes each fill
    # block at its rows from whichever worker forms it; synth fills a read
    # block on every worker and then writes it.
    capture = tmp_path / "capture.csif"
    write_csif(capture, CsiMatrix(CASES["blocks"][0]))
    monkeypatch.setattr(core, "_WORKERS", 1)
    serial, threaded = cli_outputs(tmp_path, capsys, capture)
    assert not threaded
    assert serial["lrr.fifo.csif"] == serial["lrr.file.csif"]
    assert serial["tsfr.fifo.csif"] == serial["tsfr.file.csif"]
    for workers in (2, 3):
        monkeypatch.setattr(core, "_WORKERS", workers)
        got, threaded = cli_outputs(tmp_path, capsys, capture)
        assert got == serial
        assert threaded


def run_with(monkeypatch, workers, call):
    """``call()`` with ``workers`` workers; its error's message, if any."""
    monkeypatch.setattr(core, "_WORKERS", workers)
    try:
        call()
    except ValueError as error:
        return str(error)
    return None


# Rows in the first and in the last share of a 3000x52 pass.
FIRST, LAST = 5, 2990


@pytest.mark.parametrize("rows", [(FIRST, LAST), (LAST,)], ids=["first and last", "last"])
def test_the_first_bad_row_of_a_container_check_is_named(monkeypatch, rows):
    values = np.zeros((3000, 52))
    for row in rows:
        values[row, 7] = np.nan
    serial = run_with(monkeypatch, 1, lambda: PhaseMatrix(values))
    assert serial == f"phase matrix has a non-finite value at row {rows[0]}, column 7 (0-based)"
    for workers in (2, 3):
        assert run_with(monkeypatch, workers, lambda: PhaseMatrix(values)) == serial


@pytest.mark.parametrize("rows", [(FIRST, LAST), (LAST,)], ids=["first and last", "last"])
def test_the_first_overflowing_gap_of_an_unwrap_is_named(monkeypatch, rows):
    values = np.zeros((3000, 52))
    for row in rows:
        values[row, 1:3] = [-1e308, 1e308]
    raw = PhaseMatrix(values)
    serial = run_with(monkeypatch, 1, lambda: lrr_calibrate(raw))
    assert serial == (
        f"unwrapping the gap between columns 1 and 2 of row {rows[0]} (0-based) overflows the "
        "float range"
    )
    for workers in (2, 3):
        assert run_with(monkeypatch, workers, lambda: lrr_calibrate(raw)) == serial


@pytest.mark.parametrize("rows", [(FIRST, LAST), (LAST,)], ids=["first and last", "last"])
def test_the_first_bad_cell_of_a_streamed_write_is_named_and_no_file_is_left(
    tmp_path, monkeypatch, rows
):
    # Unreachable through the public constructors (a finite polar pair has
    # finite cartesian values), so the stage's phase is replaced directly.
    shape = (3000, 52)
    bad = np.zeros(shape)
    for row in rows:
        bad[row, 7] = np.inf
    pair = AmplitudeMatrix(np.ones(shape)), PhaseMatrix(np.zeros(shape))
    path = tmp_path / "out.csif"

    def write():
        output = recompose(*pair)
        object.__setattr__(output, "_angles", bad)
        with np.errstate(invalid="ignore"):  # sin and cos of an infinite angle
            write_csif(path, output)

    serial = run_with(monkeypatch, 1, write)
    assert serial == f"CSI matrix has a non-finite value at row {rows[0]}, column 7 (0-based)"
    assert not path.exists()
    for workers in (2, 3):
        assert run_with(monkeypatch, workers, write) == serial
        assert not path.exists()


def overflowing_capture():
    """A 3000x52 complex capture whose cell at row LAST, column 7 is finite
    but its magnitude is beyond the float range."""
    values = np.ones((3000, 52), dtype=complex)
    values[LAST, 7] = complex(1.5e308, 1.5e308)
    values.setflags(write=False)
    return values


@pytest.mark.parametrize("workers", [1, 2])
def test_errstate_reaches_the_workers(monkeypatch, workers):
    # A flat row of 1e308 in the last share: its mean overflows, and the
    # fit of a flat row then takes its value as the intercept.
    monkeypatch.setattr(core, "_WORKERS", 1)
    values = np.zeros((3000, 52))
    values[LAST] = 1e308
    raw = PhaseMatrix(values)
    with np.errstate(over="ignore", invalid="ignore"):
        serial = lrr_calibrate(raw).values
    monkeypatch.setattr(core, "_WORKERS", workers)
    with np.errstate(all="raise"), pytest.raises(FloatingPointError, match="overflow"):
        lrr_calibrate(raw)
    # Ignored, as the CLI ignores it, the overflow warns of nothing.
    with np.errstate(over="ignore", invalid="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        assert lrr_calibrate(raw).values.tobytes() == serial.tobytes()


def test_the_cli_prints_no_warning_for_an_overflowing_capture(tmp_path, capsys):
    # The file is read twice; in place it is read once and its pair checked
    # on the workers. Either way the error line is all that is printed.
    capture = tmp_path / "big.csif"
    write_csif(capture, CsiMatrix(overflowing_capture()))
    message = f"error: amplitude matrix has a non-finite value at row {LAST}, column 7 (0-based)\n"
    for output in (tmp_path / "out.csif", capture):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["process", "-i", str(capture), "-o", str(output), "--method", "lrr"])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert captured.err == message


def test_a_pass_whose_threads_cannot_start_runs_serially(tmp_path, monkeypatch):
    values, smap = CASES["blocks"]
    monkeypatch.setattr(core, "_WORKERS", 1)
    serial = outputs(tmp_path, values, smap)

    def cannot_start(self):
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(core, "_WORKERS", 2)
    monkeypatch.setattr(core, "_pool", core._Pool())
    monkeypatch.setattr(threading.Thread, "start", cannot_start)
    assert outputs(tmp_path, values, smap) == serial
    assert core._pool._started == 0


def process_in_child(values, connection):
    """Run in a forked child: the lrr+sgtime output, and the helpers the
    child started itself."""
    output = process(CsiMatrix(values), "lrr+sgtime").output
    connection.send((output.values.tobytes(), core._pool._started))
    connection.close()


def test_a_forked_child_runs_passes_on_threads_of_its_own(monkeypatch):
    monkeypatch.setattr(core, "_WORKERS", 2)
    values, _ = CASES["blocks"]
    expected = process(CsiMatrix(values), "lrr+sgtime").output.values.tobytes()
    assert core._pool._started >= 1  # the parent has a helper when it forks
    context = multiprocessing.get_context("fork")
    receive, send = context.Pipe(duplex=False)
    with warnings.catch_warnings():
        # Forking a process with threads is what this test checks.
        warnings.simplefilter("ignore", DeprecationWarning)
        child = context.Process(target=process_in_child, args=(values, send))
        child.start()
    send.close()
    try:
        assert receive.poll(60), "the child's pass did not finish"
        got, helpers = receive.recv()
        child.join(60)
    finally:
        child.kill()
    assert child.exitcode == 0
    assert got == expected
    assert helpers == 1
