"""Command-line behavior: flags, exit codes, file outputs, determinism."""

import builtins
import errno
import itertools
import os
import shutil
import subprocess
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import csiphase.cli as csiphase_cli
import csiphase.io as csiphase_io
from csiphase.cli import _write_report, main
from csiphase.core import CsiMatrix, PhaseMatrix, Stage
from csiphase.io import read_csif, write_csif
from csiphase.tsfr import METHODS, TsfrReport, process


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def make_pair(tmp_path, capsys, symbols=40, subcarriers=16, seed=3):
    base = tmp_path / "demo"
    code, _, _ = run(
        capsys,
        "synth",
        "--symbols",
        str(symbols),
        "--subcarriers",
        str(subcarriers),
        "--seed",
        str(seed),
        "-o",
        str(base),
    )
    assert code == 0
    return base.with_suffix(".meas.csif"), base.with_suffix(".true.csif")


# ---------------------------------------------------------------------------
# synth


def test_synth_writes_pair_and_summary(tmp_path, capsys):
    code, out, err = run(
        capsys, "synth", "--symbols", "25", "--subcarriers", "12",
        "-o", str(tmp_path / "x"),
    )
    assert code == 0
    assert out == ""
    assert err.count("\n") == 1
    assert "S=25" in err and "K=12" in err and "seed=0" in err
    true = read_csif(tmp_path / "x.true.csif")
    meas = read_csif(tmp_path / "x.meas.csif")
    assert true.shape == (25, 12)
    assert meas.shape == (25, 12)
    # The files hold cartesian values, so recomputed amplitudes may
    # disagree by one ulp; bit-identity is the in-memory contract.
    amp_true = np.abs(true.values)
    assert np.all(np.abs(amp_true - np.abs(meas.values)) <= np.spacing(amp_true))


def test_synth_strips_a_csif_suffix(tmp_path, capsys):
    code, _, _ = run(
        capsys, "synth", "--symbols", "5", "--subcarriers", "8",
        "-o", str(tmp_path / "y.csif"),
    )
    assert code == 0
    assert (tmp_path / "y.true.csif").exists()
    assert not (tmp_path / "y.csif.true.csif").exists()


def test_synth_same_seed_is_byte_identical(tmp_path, capsys):
    for name in ("a", "b"):
        run(capsys, "synth", "--symbols", "30", "--subcarriers", "10",
            "--seed", "7", "-o", str(tmp_path / name))
    assert (tmp_path / "a.meas.csif").read_bytes() == (tmp_path / "b.meas.csif").read_bytes()
    run(capsys, "synth", "--symbols", "30", "--subcarriers", "10",
        "--seed", "8", "-o", str(tmp_path / "c"))
    assert (tmp_path / "a.meas.csif").read_bytes() != (tmp_path / "c.meas.csif").read_bytes()


def test_synth_missing_output_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--symbols", "5"])
    assert exc.value.code == 2


def test_synth_default_dimensions(tmp_path, capsys):
    code, _, err = run(capsys, "synth", "-o", str(tmp_path / "d"))
    assert code == 0
    assert "S=1000" in err and "K=30" in err
    assert read_csif(tmp_path / "d.meas.csif").shape == (1000, 30)


def test_synth_scenario_file_controls_the_model(tmp_path, capsys):
    spec = tmp_path / "scene.txt"
    spec.write_text(
        "# two-path scene on a sparse grid\n"
        "n_fft = 64\n"
        "subcarriers = -26:-20\n"
        "paths = 0:1, 3:0.4+0.2j\n"
        "gain_drift_depth = 0.3\n"
        "gain_drift_period = 50\n"
        "delta_t = 0.5\n"
        "gamma = 0\n"
        "noise_sigma = 0\n"
    )
    code, _, err = run(
        capsys, "synth", "--spec", str(spec), "--symbols", "60", "-o", str(tmp_path / "s"),
    )
    assert code == 0
    assert "K=7" in err
    true = read_csif(tmp_path / "s.true.csif")
    assert true.shape == (60, 7)
    # The drift makes rows differ.
    assert np.max(np.abs(true.values[0] - true.values[13])) > 1e-6


def test_synth_scenario_errors(tmp_path, capsys):
    missing = tmp_path / "nope.txt"
    code, _, err = run(capsys, "synth", "--spec", str(missing), "-o", str(tmp_path / "z"))
    assert code == 3
    assert "error:" in err

    bad = tmp_path / "bad.txt"
    bad.write_text("wavelength = 12\n")
    code, _, err = run(capsys, "synth", "--spec", str(bad), "-o", str(tmp_path / "z"))
    assert code == 4
    assert "unknown key" in err

    bad.write_text("paths = 0;1\n")
    code, _, err = run(capsys, "synth", "--spec", str(bad), "-o", str(tmp_path / "z"))
    assert code == 4
    assert "delay:gain" in err


@pytest.mark.parametrize(
    "text,where",
    [
        ("subcarriers = 1:x\n", "bad.txt line 1: subcarriers: "),
        ("n_fft = 64\npaths = 0:1, 2:zz\n", "bad.txt line 2: paths: "),
        # Values that parse but fail a check of the channel, the map or the
        # impairments name the entries that check reads.
        ("subcarriers = -40:40\n",
         "bad.txt line 1: subcarriers: n_fft=64 cannot cover the index span 81"),
        ("subcarriers = 5\n", "bad.txt line 1: subcarriers: subcarrier map must be"),
        ("noise_sigma = -1\n", "bad.txt line 1: noise_sigma: noise_sigma -1.0 must be"),
        ("gain_drift_depth = -3\n",
         "bad.txt line 1: gain_drift_depth: drift_depth -3.0 must be within [0, 1]"),
        ("n_fft = 64\npaths = 0:1\nsubcarriers = -40:40\n",
         "bad.txt line 3: subcarriers and bad.txt line 1: n_fft: n_fft=64 cannot cover"),
        ("paths = 0:1\ngain_drift_depth = 0.5\n",
         "bad.txt line 2: gain_drift_depth: a positive drift_depth needs a positive"),
        ("delta_t = -1e308:1e308\n", "bad.txt line 1: delta_t: range '-1e308:1e308' must"),
        ("gamma = inf\n", "bad.txt line 1: gamma: range 'inf' must have finite"),
    ],
    ids=["subcarriers", "paths", "map-span", "map-size", "noise", "drift-depth",
         "map-span-and-n_fft", "drift-period", "range-width", "range-constant"],
)
def test_synth_scenario_value_errors_name_file_line_and_key(tmp_path, capsys, text, where):
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    code, _, err = run(capsys, "synth", "--spec", str(bad), "-o", str(tmp_path / "z"))
    assert code == 4
    assert err.startswith(f"error: {where}")


def test_synth_whose_tilt_overflows_fails_with_one_line_and_leaves_no_file(tmp_path):
    # The true rows of a block are written before its measured phase is
    # formed, so the stream has a partial true file to remove. In a fresh
    # process, where a numpy RuntimeWarning would reach stderr.
    spec = tmp_path / "scene.txt"
    spec.write_text("delta_t = 1e308\n")
    proc = csiphase(b"", "synth", "--spec", str(spec), "--symbols", "50",
                    "-o", str(tmp_path / "z"))
    assert proc.returncode == 4
    assert proc.stderr.decode().splitlines() == [
        "error: phase matrix has a non-finite value at row 0, column 1 (0-based)"
    ]
    assert not (tmp_path / "z.true.csif").exists()
    assert not (tmp_path / "z.meas.csif").exists()


# ---------------------------------------------------------------------------
# process


def test_process_raw_round_trip(tmp_path, capsys):
    meas, _ = make_pair(tmp_path, capsys)
    out_path = tmp_path / "out.csif"
    code, _, err = run(
        capsys, "process", "-i", str(meas), "-o", str(out_path), "--method", "raw",
    )
    assert code == 0
    assert "raw" in err
    original = read_csif(meas)
    processed = read_csif(out_path)
    assert_allclose(processed.values, original.values, rtol=1e-12, atol=1e-14)


def test_process_is_deterministic(tmp_path, capsys):
    meas, _ = make_pair(tmp_path, capsys)
    for name in ("p1.csif", "p2.csif"):
        code, _, _ = run(
            capsys, "process", "-i", str(meas), "-o", str(tmp_path / name),
            "--method", "tsfr",
        )
        assert code == 0
    assert (tmp_path / "p1.csif").read_bytes() == (tmp_path / "p2.csif").read_bytes()


def test_process_unknown_method_lists_the_valid_ones(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["process", "-i", "x", "-o", "y", "--method", "median"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "raw" in err and "tsfr" in err and "lrr+sgtime" in err


def test_process_missing_input_is_an_io_error(tmp_path, capsys):
    code, _, err = run(
        capsys, "process", "-i", str(tmp_path / "absent.csif"),
        "-o", str(tmp_path / "o.csif"), "--method", "raw",
    )
    assert code == 3
    assert "error:" in err


def test_process_real_payload_is_a_data_error(tmp_path, capsys):
    phase_file = tmp_path / "phase.csif"
    write_csif(phase_file, PhaseMatrix(np.zeros((3, 4)), Stage.CALIBRATED))
    code, _, err = run(
        capsys, "process", "-i", str(phase_file), "-o", str(tmp_path / "o.csif"),
        "--method", "lrr",
    )
    assert code == 4
    assert "complex" in err


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize(
    "flag,value,message",
    [("--sg-frac", "inf", "window fraction must be positive and finite, got inf"),
     ("--sg-frac", "nan", "window fraction must be positive and finite, got nan"),
     ("--sg-frac", "-5", "window fraction must be positive and finite, got -5.0"),
     ("--sg-order", "-1", "polynomial order must be >= 0, got -1")],
    ids=["inf", "nan", "negative", "negative-order"],
)
def test_process_nonfinite_window_fraction_is_a_data_error(
    tmp_path, capsys, method, flag, value, message
):
    # Every method checks the smoothing settings, those that do not smooth
    # too, so no report records a setting that could not have run.
    meas, _ = make_pair(tmp_path, capsys)
    code, out, err = run(
        capsys, "process", "-i", str(meas), "-o", str(tmp_path / "o.csif"),
        "--method", method, flag, value, "--report", str(tmp_path / "o.txt"),
    )
    assert code == 4
    assert out == ""
    assert err == f"error: {message}\n"
    assert not (tmp_path / "o.csif").exists() and not (tmp_path / "o.txt").exists()


def test_process_huge_window_fraction_smooths_the_whole_capture(tmp_path, capsys):
    meas, _ = make_pair(tmp_path, capsys)
    for fraction in ("1", "1e308"):
        code, _, _ = run(
            capsys, "process", "-i", str(meas), "-o", str(tmp_path / f"{fraction}.csif"),
            "--method", "lrr+sgtime", "--sg-frac", fraction,
        )
        assert code == 0
    assert (tmp_path / "1.csif").read_bytes() == (tmp_path / "1e308.csif").read_bytes()


def test_process_out_of_memory_exits_5_with_one_line(tmp_path, capsys, monkeypatch):
    meas, _ = make_pair(tmp_path, capsys)

    def exhausted(*args, **kwargs):
        raise MemoryError

    # A regular file's phase is read alone, and the method runs in it.
    monkeypatch.setattr("csiphase.cli._run", exhausted)
    code, out, err = run(
        capsys, "process", "-i", str(meas), "-o", str(tmp_path / "o.csif"),
        "--method", "tsfr",
    )
    assert code == 5
    assert out == ""
    assert err == "error: out of memory in process --method tsfr on a 40x16 input\n"


def test_process_out_of_memory_in_the_read_still_names_the_shape(tmp_path, capsys, monkeypatch):
    # The header is parsed before the payload is read, so the shape is known
    # when the read of the payload runs out.
    meas, _ = make_pair(tmp_path, capsys)

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("csiphase.io.np.frombuffer", exhausted)
    code, out, err = run(
        capsys, "process", "-i", str(meas), "-o", str(tmp_path / "o.csif"),
        "--method", "lrr",
    )
    assert code == 5
    assert out == ""
    assert err == "error: out of memory in process --method lrr on a 40x16 input\n"


def test_stats_out_of_memory_names_the_table(tmp_path, capsys, monkeypatch):
    meas, _ = make_pair(tmp_path, capsys)

    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.00 GiB")

    monkeypatch.setattr("csiphase.cli._run", exhausted)
    code, _, err = run(capsys, "stats", "exceed", "-i", str(meas), "-o", str(tmp_path / "e.csv"))
    assert code == 5
    assert err == "error: out of memory in stats exceed\n"


def test_process_verify_amplitude_passes_and_reports(tmp_path, capsys):
    meas, _ = make_pair(tmp_path, capsys)
    code, _, err = run(
        capsys, "process", "-i", str(meas), "-o", str(tmp_path / "o.csif"),
        "--method", "tsfr", "--verify-amplitude",
    )
    assert code == 0
    assert "amplitude check: ok" in err


def csiphase(stdin: bytes, *argv):
    """The CLI in a fresh process, with ``stdin`` piped to it."""
    return subprocess.run(
        [sys.executable, "-m", "csiphase", *argv], input=stdin, capture_output=True
    )


def test_piped_input_gives_the_bytes_of_the_file_input(tmp_path, capsys):
    # The input is opened once: its header is not consumed by a first open.
    meas, _ = make_pair(tmp_path, capsys, symbols=300, subcarriers=20)
    runs = {
        "process": ["process", "--method", "tsfr", "--report", "{}.txt"],
        "exceed": ["stats", "exceed"],
    }
    for name, argv in runs.items():
        file_out, pipe_out = tmp_path / f"{name}.file", tmp_path / f"{name}.pipe"
        code, _, _ = run(capsys, *(a.format(file_out) for a in argv),
                         "-i", str(meas), "-o", str(file_out))
        assert code == 0
        proc = csiphase(meas.read_bytes(), *(a.format(pipe_out) for a in argv),
                        "-i", "/dev/stdin", "-o", str(pipe_out))
        assert proc.returncode == 0, proc.stderr
        assert pipe_out.read_bytes() == file_out.read_bytes()
    assert (tmp_path / "process.pipe.txt").read_bytes() == (tmp_path / "process.file.txt").read_bytes()


def test_verify_amplitude_on_a_pipe_is_a_usage_error(tmp_path, capsys):
    # The check reads the input a second time, which a pipe cannot give.
    meas, _ = make_pair(tmp_path, capsys)
    proc = csiphase(meas.read_bytes(), "process", "-i", "/dev/stdin",
                    "-o", str(tmp_path / "o.csif"), "--method", "raw", "--verify-amplitude")
    assert proc.returncode == 2
    assert proc.stdout == b""
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 1 and "re-reads the input" in lines[0]
    assert not (tmp_path / "o.csif").exists()


@pytest.mark.parametrize("link", ["same path", "hard link", "symlink"])
def test_verify_amplitude_in_place_gives_the_bytes_of_the_file_run(tmp_path, capsys, link):
    # The output is renamed over the file its path names once it is written,
    # so the check reads the input whole a second time.
    meas, _ = make_pair(tmp_path, capsys)
    before = meas.read_bytes()
    code, _, _ = run(capsys, "process", "-i", str(meas), "-o", str(tmp_path / "o.csif"),
                     "--method", "tsfr", "--verify-amplitude")
    assert code == 0
    expected = (tmp_path / "o.csif").read_bytes()
    output = meas
    if link != "same path":
        output = tmp_path / "alias.csif"
        (os.link if link == "hard link" else os.symlink)(meas, output)
    names = sorted(os.listdir(tmp_path))
    code, out, err = run(capsys, "process", "-i", str(meas), "-o", str(output),
                         "--method", "tsfr", "--verify-amplitude")
    assert code == 0
    assert out == ""
    assert err.splitlines() == ["amplitude check: ok (bit-identical)",
                                f"process: tsfr on 40x16 -> {output}"]
    assert output.read_bytes() == expected
    # A hard link is a name of its own, which the rename moves to the output:
    # the input's name keeps the input bytes. A symlink still names the input.
    assert meas.read_bytes() == (before if link == "hard link" else expected)
    assert output.is_symlink() == (link == "symlink")
    assert sorted(os.listdir(tmp_path)) == names


@pytest.mark.parametrize("method", METHODS)
def test_process_in_place_gives_the_bytes_of_a_separate_output(tmp_path, capsys, method):
    # The input is read twice either way: in place, the output replaces it
    # only once written. 5000x16 is two row blocks.
    meas, _ = make_pair(tmp_path, capsys, symbols=5000, subcarriers=16)
    target = tmp_path / "in_place.csif"
    shutil.copyfile(meas, target)
    for path_in, path_out, report in ((meas, tmp_path / "o.csif", "o.txt"),
                                      (target, target, "in_place.txt")):
        code, _, _ = run(capsys, "process", "-i", str(path_in), "-o", str(path_out),
                         "--method", method, "--report", str(tmp_path / report))
        assert code == 0
    assert target.read_bytes() == (tmp_path / "o.csif").read_bytes()
    assert (tmp_path / "in_place.txt").read_bytes() == (tmp_path / "o.txt").read_bytes()


def fail_after_the_first_block(monkeypatch):
    """Make every CSIF block write after the first raise ENOSPC."""
    write = csiphase_io._PayloadWriter.__call__
    calls = itertools.count()

    def write_then_fail(self, block, row=None):
        if next(calls):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        write(self, block, row)

    monkeypatch.setattr(csiphase_io._PayloadWriter, "__call__", write_then_fail)


@pytest.mark.parametrize(
    "case", ["process in place", "process over a file", "write_csif", "synth over the pair"]
)
def test_a_failing_write_leaves_every_existing_target_as_it_was(
    tmp_path, capsys, monkeypatch, case
):
    # Each target is written beside its path and renamed over it only once
    # whole; a failed write removes what it wrote and nothing else.
    meas, true = make_pair(tmp_path, capsys, symbols=5000, subcarriers=16)
    other = tmp_path / "other.csif"
    shutil.copyfile(true, other)
    before = {path: path.read_bytes() for path in tmp_path.iterdir()}
    fail_after_the_first_block(monkeypatch)
    if case == "write_csif":
        output = process(read_csif(meas), "lrr").output
        with pytest.raises(OSError, match="No space left on device"):
            write_csif(other, output)
    else:
        argv = {
            "process in place": ["process", "-i", str(meas), "-o", str(meas)],
            "process over a file": ["process", "-i", str(meas), "-o", str(other)],
            "synth over the pair": ["synth", "--symbols", "5000", "--subcarriers", "16",
                                    "--seed", "3", "-o", str(tmp_path / "demo")],
        }[case]
        if argv[0] == "process":
            argv += ["--method", "tsfr", "--verify-amplitude"]
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err == "error: [Errno 28] No space left on device\n"
    assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before


def fail_every_text_write(monkeypatch):
    """Make every write to a file opened with mode "w" raise ENOSPC."""
    real_open = open

    def open_full(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        if mode == "w":
            def full(*_):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

            fh.write = fh.writelines = full
        return fh

    monkeypatch.setattr(builtins, "open", open_full)


@pytest.mark.parametrize("command", [
    ["process", "--method", "tsfr", "-o", "o.csif", "--report", "r.txt"],
    ["stats", "ds", "-o", "ds.csv"],
], ids=["process report", "stats table"])
def test_a_failing_text_write_leaves_the_earlier_outputs_as_they_were(
    tmp_path, capsys, monkeypatch, command
):
    # Text outputs are written beside their path and renamed over it once
    # whole, as CSIF outputs are: the report of a rerun that fails keeps the
    # earlier run's bytes, though the CSIF output beside it was replaced.
    meas, _ = make_pair(tmp_path, capsys)
    argv = [str(tmp_path / a) if a.endswith((".csif", ".txt", ".csv")) else a
            for a in command] + ["-i", str(meas)]
    code, _, _ = run(capsys, *argv)
    assert code == 0
    before = {path: path.read_bytes() for path in tmp_path.iterdir()}
    fail_every_text_write(monkeypatch)
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err == "error: [Errno 28] No space left on device\n"
    assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before


def test_an_output_into_a_pipe_or_a_device_is_written_in_place(tmp_path, capsys):
    # /dev/stdout of a pipe resolves to no file, so it is written as given.
    meas, _ = make_pair(tmp_path, capsys, symbols=300, subcarriers=20)
    for argv in (["process", "--method", "tsfr"], ["stats", "ds"]):
        file_out = tmp_path / f"{argv[0]}.out"
        code, _, _ = run(capsys, *argv, "-i", str(meas), "-o", str(file_out))
        assert code == 0
        for target in ("/dev/stdout", "/dev/null"):
            proc = csiphase(b"", *argv, "-i", str(meas), "-o", target)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout == (file_out.read_bytes() if target == "/dev/stdout" else b"")
            assert proc.stderr.decode().count("\n") == 1  # the status line


def test_process_into_a_pipe_feeds_the_next_command(tmp_path, capsys):
    # csiphase process -o /dev/stdout | csiphase stats exceed -i /dev/stdin:
    # no status line follows the payload into the pipe.
    meas, _ = make_pair(tmp_path, capsys, symbols=300, subcarriers=16)
    code, _, _ = run(capsys, "process", "-i", str(meas), "-o", str(tmp_path / "lrr.csif"),
                     "--method", "lrr")
    assert code == 0
    code, _, _ = run(capsys, "stats", "exceed", "-i", str(tmp_path / "lrr.csif"),
                     "-o", str(tmp_path / "file.csv"))
    assert code == 0
    producer = csiphase(b"", "process", "-i", str(meas), "-o", "/dev/stdout", "--method", "lrr")
    assert producer.returncode == 0, producer.stderr
    consumer = csiphase(producer.stdout, "stats", "exceed", "-i", "/dev/stdin",
                        "-o", str(tmp_path / "pipe.csv"))
    assert consumer.returncode == 0, consumer.stderr
    assert (tmp_path / "pipe.csv").read_bytes() == (tmp_path / "file.csv").read_bytes()


@pytest.mark.parametrize(
    "method,shape,axes",
    [("lrr+sgtime", (3, 8), ["time axis of size 3"]),
     ("lrr+sg2d", (3, 4), ["time axis of size 3", "frequency axis of size 4"])],
    ids=["lrr+sgtime-3x8", "lrr+sg2d-3x4"],
)
def test_a_smoothing_pass_through_is_one_warning_line(tmp_path, method, shape, axes):
    # One line per axis passed through, in a fresh process, where a warning
    # would otherwise name a frame of runpy.
    capture = tmp_path / "short.csif"
    values = np.exp(1j * np.random.default_rng(5).uniform(-3, 3, shape))
    write_csif(capture, CsiMatrix(values))
    output = tmp_path / "o.csif"
    proc = csiphase(b"", "process", "-i", str(capture), "-o", str(output),
                    "--method", method, "--sg-order", "3", "--separable")
    assert proc.returncode == 0
    assert proc.stdout == b""
    assert proc.stderr.decode().splitlines() == [
        *(f"warning: {axis} is shorter than any valid window; returning the input unchanged"
          for axis in axes),
        f"process: {method} on {shape[0]}x{shape[1]} -> {output}",
    ]


def change_after_the_first_read(monkeypatch, change):
    """Run ``change`` once the method has run on the first read of the input."""
    run_stages = csiphase_cli._run

    def run_then_change(*args, **kwargs):
        result = run_stages(*args, **kwargs)
        change()
        return result

    monkeypatch.setattr(csiphase_cli, "_run", run_then_change)


@pytest.mark.parametrize("change", ["size", "modification time"])
def test_process_refuses_an_input_changed_between_its_reads(tmp_path, capsys, monkeypatch, change):
    meas, _ = make_pair(tmp_path, capsys)
    info = meas.stat()

    def change_the_input():
        if change == "size":
            with open(meas, "ab") as fh:
                fh.write(b"\0")
        else:
            os.utime(meas, ns=(info.st_atime_ns, info.st_mtime_ns + 10**9))

    change_after_the_first_read(monkeypatch, change_the_input)
    code, out, err = run(capsys, "process", "-i", str(meas), "-o", str(tmp_path / "o.csif"),
                         "--method", "lrr", "--report", str(tmp_path / "o.txt"))
    assert code == 4
    assert out == ""
    assert err == f"error: {meas} changed on disk while it was being read\n"
    assert not (tmp_path / "o.csif").exists()


def test_verify_amplitude_refuses_a_block_read_differently_the_second_time(
    tmp_path, capsys, monkeypatch
):
    # One bit of the real part of a cell in the second row block (rows
    # 4096-4999) is flipped after the first read, and the modification time
    # is put back, so only the amplitude digests can tell.
    meas, _ = make_pair(tmp_path, capsys, symbols=5000, subcarriers=16)
    info = meas.stat()

    def flip_one_bit():
        with open(meas, "r+b") as fh:
            fh.seek(16 + (4500 * 16 + 3) * 16 + 6)  # a high bit of the mantissa
            byte = fh.read(1)[0]
            fh.seek(-1, os.SEEK_CUR)
            fh.write(bytes([byte ^ 0x01]))
        os.utime(meas, ns=(info.st_atime_ns, info.st_mtime_ns))

    change_after_the_first_read(monkeypatch, flip_one_bit)
    code, out, err = run(capsys, "process", "-i", str(meas), "-o", str(tmp_path / "o.csif"),
                         "--method", "tsfr", "--verify-amplitude")
    assert code == 4
    assert out == ""
    assert err == (
        f"error: amplitude self-check failed: rows 4096-4999 of {meas} read a "
        "different amplitude the second time\n"
    )
    assert not (tmp_path / "o.csif").exists()


@pytest.mark.parametrize("command", [["process", "--method", "lrr"], ["stats", "ds"],
                                     ["stats", "exceed"], ["stats", "diffhist"]])
def test_an_amplitude_beyond_the_float_range_is_one_error_line(tmp_path, command):
    # Finite cells whose magnitude overflows: every read of a complex payload
    # checks its amplitude, so the file (which process reads twice) and the
    # pipe, read once, name the same cell, whether the amplitude is written
    # out or not.
    values = np.ones((2000, 8), dtype=complex)
    values[1500, 3] = complex(1.5e308, 1.5e308)
    capture = tmp_path / "big.csif"
    write_csif(capture, CsiMatrix(values))
    for path, stdin in ((str(capture), b""), ("/dev/stdin", capture.read_bytes())):
        proc = csiphase(stdin, *command, "-i", path, "-o", str(tmp_path / "o.csif"))
        assert proc.returncode == 4
        assert proc.stderr.decode().splitlines() == [
            "error: amplitude matrix has a non-finite value at row 1500, column 3 (0-based)"
        ]
        assert not (tmp_path / "o.csif").exists()


@pytest.mark.parametrize("command", [["process", "--method", "lrr"], ["stats", "exceed"]])
def test_real_payload_is_one_error_line_naming_the_input(tmp_path, command):
    phase_file = tmp_path / "phase.csif"
    write_csif(phase_file, PhaseMatrix(np.zeros((3, 4)), Stage.CALIBRATED))
    for path, stdin in ((str(phase_file), b""), ("/dev/stdin", phase_file.read_bytes())):
        proc = csiphase(stdin, *command, "-i", path, "-o", str(tmp_path / "o"))
        assert proc.returncode == 4
        assert proc.stdout == b""
        assert proc.stderr.decode().splitlines() == [
            f"error: {path} holds a real payload, not complex CSI"
        ]
        assert not (tmp_path / "o").exists()


def test_process_report_file_documents_the_rebuild(tmp_path, capsys):
    meas, _ = make_pair(tmp_path, capsys, symbols=30, subcarriers=12)
    report_path = tmp_path / "report.txt"
    code, _, _ = run(
        capsys, "process", "-i", str(meas), "-o", str(tmp_path / "o.csif"),
        "--method", "tsfr", "--report", str(report_path),
    )
    assert code == 0
    lines = report_path.read_text().splitlines()
    assert lines[0] == "report_version=1"
    assert "method=tsfr" in lines
    assert "symbols=30" in lines
    assert "subcarriers=12" in lines
    assert any(line.startswith("symbol.0.mu=") for line in lines)
    assert any(line.startswith("symbol.29.frac=") for line in lines)

    fields = dict(line.split("=", 1) for line in lines)
    down = sum(int(fields[f"symbol.{s}.down"]) for s in range(30))
    up = sum(int(fields[f"symbol.{s}.up"]) for s in range(30))
    fracs = [float(fields[f"symbol.{s}.frac"]) for s in range(30)]
    assert all(0.0 <= f <= 1.0 for f in fracs)
    assert down + up == round(sum(f * 11 for f in fracs))


def reference_report_text(args, report, shape):
    """Report v1 built line by line, one f-string per line."""
    def fmt(x):
        return "%.17g" % x

    lines = [
        "report_version=1",
        f"method={args.method}",
        f"symbols={shape[0]}",
        f"subcarriers={shape[1]}",
        f"sg_order={args.sg_order}",
        f"sg_fraction={fmt(args.sg_frac)}",
        f"abscissa={args.abscissa}",
        f"separable={'true' if args.separable else 'false'}",
    ]
    columns = (report.mu, report.sigma, report.d,
               report.clamped_down, report.clamped_up, report.modified_fraction)
    for s, (mu, sigma, d, down, up, frac) in enumerate(zip(*(c.tolist() for c in columns))):
        lines += (
            f"symbol.{s}.mu={fmt(mu)}",
            f"symbol.{s}.sigma={fmt(sigma)}",
            f"symbol.{s}.d={fmt(d)}",
            f"symbol.{s}.down={down}",
            f"symbol.{s}.up={up}",
            f"symbol.{s}.frac={fmt(frac)}",
        )
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("symbols", [1, 500, 3000])  # 3000x52: three row blocks
def test_report_writer_matches_the_line_by_line_reference(tmp_path, symbols):
    rng = np.random.default_rng(symbols)
    special = np.array([0.0, 1e-300, 5e-324, 1.0 / 3.0, 2.0 ** 60, np.pi])
    mu = np.resize(special, symbols) * rng.uniform(0.5, 2.0, size=symbols)
    sigma = np.resize(special[::-1], symbols)
    big = np.iinfo(np.int64).max // 4
    report = TsfrReport(
        mu=mu,
        sigma=sigma,
        d=mu + sigma,
        exceedance=np.zeros((symbols, 2), dtype=bool),
        modified_fraction=np.resize(special / (2.0 ** 61), symbols),
        clamped_down=rng.integers(0, big, size=symbols),
        clamped_up=np.resize([0, 1, big, 12345678901234], symbols),
    )
    args = SimpleNamespace(method="tsfr", sg_order=3, sg_frac=0.1, abscissa="physical",
                           separable=True)
    path = tmp_path / "report.txt"
    columns = (report.mu, report.sigma, report.d,
               report.clamped_down, report.clamped_up, report.modified_fraction)
    _write_report(str(path), args, columns, (symbols, 52))
    assert path.read_text() == reference_report_text(args, report, (symbols, 52))


def test_process_report_without_rebuild_has_only_parameters(tmp_path, capsys):
    meas, _ = make_pair(tmp_path, capsys)
    report_path = tmp_path / "report.txt"
    code, _, _ = run(
        capsys, "process", "-i", str(meas), "-o", str(tmp_path / "o.csif"),
        "--method", "lrr", "--report", str(report_path),
    )
    assert code == 0
    text = report_path.read_text()
    assert "method=lrr" in text
    assert "symbol." not in text


def test_process_physical_abscissa_and_separable_flags(tmp_path, capsys):
    meas, _ = make_pair(tmp_path, capsys, symbols=30, subcarriers=25)
    code, _, _ = run(
        capsys, "process", "-i", str(meas), "-o", str(tmp_path / "a.csif"),
        "--method", "lrr+sg2d", "--abscissa", "physical", "--sg-frac", "0.3",
    )
    assert code == 0
    code, _, _ = run(
        capsys, "process", "-i", str(meas), "-o", str(tmp_path / "b.csif"),
        "--method", "lrr+sg2d", "--sg-frac", "0.3", "--separable",
    )
    assert code == 0
    a = read_csif(tmp_path / "a.csif")
    b = read_csif(tmp_path / "b.csif")
    assert a.shape == b.shape == (30, 25)
    assert np.max(np.abs(a.values - b.values)) > 1e-9


# ---------------------------------------------------------------------------
# stats


def test_stats_diffhist_table(tmp_path, capsys):
    meas, _ = make_pair(tmp_path, capsys, symbols=50, subcarriers=13)
    out_csv = tmp_path / "hist.csv"
    code, out, _ = run(
        capsys, "stats", "diffhist", "-i", str(meas), "-o", str(out_csv), "--bins", "21",
    )
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0].startswith("# fitted_mean=")
    assert lines[1].startswith("# fitted_std=")
    assert lines[2] == "bin_left,bin_right,count"
    data = [line.split(",") for line in lines[3:]]
    assert len(data) == 21
    assert sum(int(row[2]) for row in data) == 50 * 12


def test_stats_diffhist_accepts_real_phase_exports(tmp_path, capsys):
    phase_file = tmp_path / "phase.csif"
    rng = np.random.default_rng(0)
    write_csif(phase_file, PhaseMatrix(rng.normal(size=(20, 10)), Stage.CALIBRATED))
    out_csv = tmp_path / "hist.csv"
    code, _, _ = run(capsys, "stats", "diffhist", "-i", str(phase_file), "-o", str(out_csv))
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert sum(int(line.split(",")[2]) for line in lines[3:]) == 20 * 9


def overflowing_phase(tmp_path):
    """A real 3x4 payload, taken as calibrated phase, whose row 1 holds a
    finite pair of samples with a gap beyond the float range."""
    values = np.zeros((3, 4))
    values[1, 1:3] = [-1e308, 1e308]
    phase_file = tmp_path / "phase.csif"
    write_csif(phase_file, values)
    return phase_file


def test_stats_ds_of_a_gap_beyond_the_float_range_is_a_data_error(tmp_path, capsys):
    # The gap used to give a table of infinite thresholds.
    phase_file = overflowing_phase(tmp_path)
    code, _, err = run(capsys, "stats", "ds", "-i", str(phase_file), "-o", str(tmp_path / "ds.csv"))
    assert code == 4
    assert err == (
        "error: unwrapping the gap between columns 1 and 2 of row 1 (0-based) overflows the "
        "float range\n"
    )


def test_stats_diffhist_names_a_gap_beyond_the_float_range(tmp_path, capsys):
    # It used to blame its own bins: "bin edges must be strictly increasing".
    phase_file = overflowing_phase(tmp_path)
    code, _, err = run(capsys, "stats", "diffhist", "-i", str(phase_file),
                       "-o", str(tmp_path / "hist.csv"))
    assert code == 4
    assert err == (
        "error: taking the gap between columns 1 and 2 of row 1 (0-based) overflows the "
        "float range\n"
    )


@pytest.mark.parametrize("table", ["ds", "diffhist"])
def test_an_overflowing_gap_raises_no_numpy_warning(tmp_path, capsys, table):
    # The error line is all the CLI prints: numpy's RuntimeWarning used to
    # reach stderr before it.
    phase_file = overflowing_phase(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(capsys, "stats", table, "-i", str(phase_file),
                           "-o", str(tmp_path / "out.csv"))
    assert code == 4
    assert err.startswith("error: ") and err.count("\n") == 1


def test_stats_ds_with_labels(tmp_path, capsys):
    meas, _ = make_pair(tmp_path, capsys, symbols=24, subcarriers=10)
    labels_file = tmp_path / "labels.txt"
    labels_file.write_text("\n".join(["walk"] * 12 + ["sit"] * 12) + "\n")
    out_csv = tmp_path / "ds.csv"
    code, _, _ = run(
        capsys, "stats", "ds", "-i", str(meas), "-o", str(out_csv),
        "--labels", str(labels_file),
    )
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0].startswith("# mean.walk=")
    assert lines[1].startswith("# mean.sit=")
    assert lines[2] == "s,d,label"
    assert len(lines) == 3 + 24
    assert lines[3].startswith("1,") and lines[3].endswith(",walk")
    assert lines[-1].startswith("24,") and lines[-1].endswith(",sit")


def test_stats_ds_matches_the_report_on_zero_amplitude_cells(tmp_path, capsys):
    meas, _ = make_pair(tmp_path, capsys, symbols=50, subcarriers=52)
    values = read_csif(meas).values.copy()
    values[3, 10] = values[3, 40] = values[27, 0] = 0.0
    zeroed = tmp_path / "zeroed.csif"
    write_csif(zeroed, CsiMatrix(values))
    report_path = tmp_path / "report.txt"
    code, _, _ = run(
        capsys, "process", "-i", str(zeroed), "-o", str(tmp_path / "o.csif"),
        "--method", "tsfr", "--report", str(report_path),
    )
    assert code == 0
    out_csv = tmp_path / "ds.csv"
    code, _, _ = run(capsys, "stats", "ds", "-i", str(zeroed), "-o", str(out_csv))
    assert code == 0
    fields = dict(line.split("=", 1) for line in report_path.read_text().splitlines())
    ds = [line.split(",")[1] for line in out_csv.read_text().splitlines()[1:]]
    assert ds == [fields[f"symbol.{s}.d"] for s in range(50)]


def test_stats_ds_label_count_mismatch(tmp_path, capsys):
    meas, _ = make_pair(tmp_path, capsys, symbols=9, subcarriers=8)
    labels_file = tmp_path / "labels.txt"
    labels_file.write_text("a\nb\n")
    code, _, err = run(
        capsys, "stats", "ds", "-i", str(meas), "-o", str(tmp_path / "ds.csv"),
        "--labels", str(labels_file),
    )
    assert code == 4
    assert "labels" in err


def test_stats_exceed_profile_table(tmp_path, capsys):
    meas, _ = make_pair(tmp_path, capsys, symbols=40, subcarriers=14)
    out_csv = tmp_path / "exc.csv"
    code, _, _ = run(capsys, "stats", "exceed", "-i", str(meas), "-o", str(out_csv))
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "k,count"
    assert len(lines) == 1 + 14
    assert lines[1] == "1,0"


def test_stats_exceed_requires_complex_input(tmp_path, capsys):
    phase_file = tmp_path / "phase.csif"
    write_csif(phase_file, PhaseMatrix(np.zeros((3, 4)), Stage.CALIBRATED))
    code, _, err = run(
        capsys, "stats", "exceed", "-i", str(phase_file), "-o", str(tmp_path / "e.csv"),
    )
    assert code == 4
    assert "complex" in err


def test_stats_outputs_are_deterministic(tmp_path, capsys):
    meas, _ = make_pair(tmp_path, capsys)
    for name in ("h1.csv", "h2.csv"):
        run(capsys, "stats", "diffhist", "-i", str(meas), "-o", str(tmp_path / name))
    assert (tmp_path / "h1.csv").read_bytes() == (tmp_path / "h2.csv").read_bytes()


# ---------------------------------------------------------------------------
# entry points


def test_no_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
