"""Command-line behavior: flags, exit codes, file outputs, determinism."""

from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from csiphase.cli import _write_report, main
from csiphase.core import CsiMatrix, PhaseMatrix, Stage
from csiphase.io import read_csif, write_csif
from csiphase.tsfr import ProcessResult, TsfrReport


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
    assert err == ""
    assert out.count("\n") == 1
    assert "S=25" in out and "K=12" in out and "seed=0" in out
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
    code, out, _ = run(capsys, "synth", "-o", str(tmp_path / "d"))
    assert code == 0
    assert "S=1000" in out and "K=30" in out
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
    code, out, _ = run(
        capsys, "synth", "--spec", str(spec), "--symbols", "60", "-o", str(tmp_path / "s"),
    )
    assert code == 0
    assert "K=7" in out
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


# ---------------------------------------------------------------------------
# process


def test_process_raw_round_trip(tmp_path, capsys):
    meas, _ = make_pair(tmp_path, capsys)
    out_path = tmp_path / "out.csif"
    code, out, _ = run(
        capsys, "process", "-i", str(meas), "-o", str(out_path), "--method", "raw",
    )
    assert code == 0
    assert "raw" in out
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


@pytest.mark.parametrize("fraction", ["inf", "nan"])
def test_process_nonfinite_window_fraction_is_a_data_error(tmp_path, capsys, fraction):
    meas, _ = make_pair(tmp_path, capsys)
    code, _, err = run(
        capsys, "process", "-i", str(meas), "-o", str(tmp_path / "o.csif"),
        "--method", "lrr+sgtime", "--sg-frac", fraction,
    )
    assert code == 4
    assert "window fraction" in err


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

    monkeypatch.setattr("csiphase.cli.process", exhausted)
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

    monkeypatch.setattr("csiphase.cli.tsfr", exhausted)
    code, _, err = run(capsys, "stats", "exceed", "-i", str(meas), "-o", str(tmp_path / "e.csv"))
    assert code == 5
    assert err == "error: out of memory in stats exceed\n"


def test_process_verify_amplitude_passes_and_reports(tmp_path, capsys):
    meas, _ = make_pair(tmp_path, capsys)
    code, out, _ = run(
        capsys, "process", "-i", str(meas), "-o", str(tmp_path / "o.csif"),
        "--method", "tsfr", "--verify-amplitude",
    )
    assert code == 0
    assert "amplitude check: ok" in out


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


@pytest.mark.parametrize("symbols", [1, 500])
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
    _write_report(str(path), args, ProcessResult(output=None, report=report), (symbols, 52))
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
