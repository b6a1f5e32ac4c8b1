"""Command-line frontend: generate, sanitize, and summarize CSI batches.

Three subcommands compose the library for scripts:

* ``synth`` writes a clean/measured CSIF pair from a scenario.
* ``process`` runs one calibration method over a CSIF file.
* ``stats`` turns phase matrices and rebuild reports into CSV tables.

Exit codes are a stable contract: 0 success, 2 usage errors, 3 I/O
failures, 4 data or format errors. Outputs never embed timestamps, so
equal inputs and flags give byte-identical files.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

import numpy as np

from .calib import lrr_calibrate
from .core import PhaseMatrix, Stage, SubcarrierMap, decompose
from .io import read_csif, write_csif, write_table
from .stats import diff_histogram, ds_series, exceedance_profile
from .synth import ChannelSpec, ImpairmentSpec, _seeded_impairments, demo_channel, gen_dataset
from .tsfr import METHODS, process, tsfr

__all__ = ["main"]

_REPORT_VERSION = 1


def _fmt(x: float) -> str:
    return "%.17g" % x


# One symbol's lines of the report, each value after its symbol index.
_SYMBOL_LINES = (
    "symbol.%d.mu=%.17g\n"
    "symbol.%d.sigma=%.17g\n"
    "symbol.%d.d=%.17g\n"
    "symbol.%d.down=%d\n"
    "symbol.%d.up=%d\n"
    "symbol.%d.frac=%.17g\n"
)


# ---------------------------------------------------------------------------
# scenario files


_SCENARIO_KEYS = {
    "n_fft",
    "subcarriers",
    "paths",
    "gain_drift_depth",
    "gain_drift_period",
    "delta_t",
    "gamma",
    "noise_sigma",
}


def _parse_scenario(text: str, source: str) -> dict[str, str]:
    """Parse ``key = value`` lines; ``#`` starts a comment."""
    entries: dict[str, str] = {}
    for n, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise ValueError(f"{source} line {n}: expected 'key = value', got {line!r}")
        if key not in _SCENARIO_KEYS:
            raise ValueError(
                f"{source} line {n}: unknown key {key!r} "
                f"(known: {', '.join(sorted(_SCENARIO_KEYS))})"
            )
        if key in entries:
            raise ValueError(f"{source} line {n}: duplicate key {key!r}")
        entries[key] = value
    return entries


def _parse_subcarriers(value: str) -> np.ndarray:
    if ":" in value:
        lo, _, hi = value.partition(":")
        return np.arange(int(lo), int(hi) + 1, dtype=np.int64)
    return np.array([int(v) for v in value.split(",")], dtype=np.int64)


def _parse_paths(value: str) -> tuple[tuple[float, complex], ...]:
    paths = []
    for item in value.split(","):
        delay, sep, gain = item.strip().partition(":")
        if not sep:
            raise ValueError(f"path {item.strip()!r} must look like delay:gain")
        paths.append((float(delay), complex(gain)))
    return tuple(paths)


def _parse_range(value: str) -> tuple[float, float]:
    """A constant c or a uniform range a:b (negative endpoints allowed)."""
    parts = value.split(":")
    if len(parts) == 1:
        c = float(parts[0])
        return c, c
    if len(parts) == 2:
        lo, hi = float(parts[0]), float(parts[1])
        if hi < lo:
            raise ValueError(f"range {value!r} has its endpoints reversed")
        return lo, hi
    raise ValueError(f"expected a constant or low:high, got {value!r}")


def _build_scenario(args) -> tuple[ChannelSpec, ImpairmentSpec]:
    entries: dict[str, str] = {}
    if args.spec is not None:
        entries = _parse_scenario(Path(args.spec).read_text(), Path(args.spec).name)

    n_fft = int(entries.get("n_fft", "64"))
    if args.subcarriers is not None:
        m = np.arange(1, args.subcarriers + 1, dtype=np.int64)
    elif "subcarriers" in entries:
        m = _parse_subcarriers(entries["subcarriers"])
    else:
        m = np.arange(1, 31, dtype=np.int64)
    smap = SubcarrierMap(m, n_fft=n_fft)

    channel = ChannelSpec(
        paths=_parse_paths(entries["paths"]) if "paths" in entries else demo_channel().paths,
        drift_depth=float(entries.get("gain_drift_depth", "0")),
        drift_period=float(entries.get("gain_drift_period", "0")),
    )

    imp = _seeded_impairments(
        args.seed,
        args.symbols,
        smap,
        _parse_range(entries.get("delta_t", "-2:2")),
        _parse_range(entries.get("gamma", f"{-np.pi}:{np.pi}")),
        float(entries.get("noise_sigma", "0.05")),
    )
    return channel, imp


# ---------------------------------------------------------------------------
# subcommands


def _cmd_synth(args) -> int:
    channel, imp = _build_scenario(args)
    base = re.sub(r"\.csif$", "", str(args.output))
    gen_dataset(channel, imp, args.symbols, out=base)
    print(
        f"synth: wrote {base}.true.csif and {base}.meas.csif "
        f"(S={args.symbols}, K={len(imp.smap)}, seed={args.seed})"
    )
    return 0


def _read_complex(path: str):
    matrix = read_csif(path)
    if isinstance(matrix, np.ndarray):
        raise ValueError(
            f"{path} holds a real payload; this command needs complex CSI"
        )
    return matrix


def _write_report(path: str, args, result, shape) -> None:
    lines = [
        f"report_version={_REPORT_VERSION}",
        f"method={args.method}",
        f"symbols={shape[0]}",
        f"subcarriers={shape[1]}",
        f"sg_order={args.sg_order}",
        f"sg_fraction={_fmt(args.sg_frac)}",
        f"abscissa={args.abscissa}",
        f"separable={'true' if args.separable else 'false'}",
    ]
    text = "\n".join(lines) + "\n"
    report = result.report
    if report is not None:
        columns = (report.mu, report.sigma, report.d,
                   report.clamped_down, report.clamped_up, report.modified_fraction)
        symbols = range(len(report.mu))
        rows = zip(*(x for c in columns for x in (symbols, c.tolist())))
        text += "".join(map(_SYMBOL_LINES.__mod__, rows))
    Path(path).write_text(text)


def _cmd_process(args) -> int:
    csi = _read_complex(args.input)
    smap = (
        SubcarrierMap.contiguous(csi.subcarriers)
        if args.abscissa == "physical"
        else None
    )
    result = process(
        csi,
        args.method,
        smap=smap,
        sg_order=args.sg_order,
        sg_fraction=args.sg_frac,
        abscissa=args.abscissa,
        separable=args.separable,
    )
    write_csif(args.output, result.output)
    if args.report is not None:
        _write_report(args.report, args, result, csi.shape)
    if args.verify_amplitude:
        # The input was read from a file, so it carries no polar cache and
        # decompose would return exactly np.abs of its values.
        amp_out, _, _ = decompose(result.output)
        if not np.array_equal(np.abs(csi.values), amp_out.values):
            raise ValueError("amplitude self-check failed: output amplitude differs")
        print("amplitude check: ok (bit-identical)")
    print(
        f"process: {args.method} on {csi.symbols}x{csi.subcarriers} -> {args.output}"
    )
    return 0


def _calibrated_phase(path: str) -> PhaseMatrix:
    """Complex input is calibrated with lrr; real input is taken as calibrated."""
    matrix = read_csif(path)
    if isinstance(matrix, np.ndarray):
        return PhaseMatrix(matrix, Stage.CALIBRATED)
    return lrr_calibrate(decompose(matrix)[1])


def _cmd_stats(args) -> int:
    if args.table == "diffhist":
        hist = diff_histogram(_calibrated_phase(args.input), bins=args.bins)
        rows = [
            (float(hist.bin_edges[i]), float(hist.bin_edges[i + 1]), int(hist.counts[i]))
            for i in range(hist.counts.size)
        ]
        write_table(
            args.output,
            ("bin_left", "bin_right", "count"),
            rows,
            comments=(
                f"fitted_mean={_fmt(hist.fitted_mean)}",
                f"fitted_std={_fmt(hist.fitted_std)}",
            ),
        )
        print(f"stats: diffhist {hist.counts.sum()} gaps in {args.bins} bins -> {args.output}")
    elif args.table == "ds":
        labels = None
        if args.labels is not None:
            labels = Path(args.labels).read_text().splitlines()
            labels = [lb.strip() for lb in labels if lb.strip()]
        series = ds_series(_calibrated_phase(args.input), labels=labels)
        comments = tuple(
            f"mean.{label}={_fmt(value)}" for label, value in (series.group_means or {}).items()
        )
        if labels is None:
            rows = [(s + 1, float(d)) for s, d in enumerate(series.d)]
            write_table(args.output, ("s", "d"), rows, comments=comments)
        else:
            rows = [
                (s + 1, float(d), labels[s]) for s, d in enumerate(series.d)
            ]
            write_table(args.output, ("s", "d", "label"), rows, comments=comments)
        print(f"stats: ds for {series.d.size} symbols -> {args.output}")
    else:
        csi = _read_complex(args.input)
        _, raw, _ = decompose(csi)
        _, report = tsfr(raw)
        profile = exceedance_profile(report)
        rows = [(k + 1, int(c)) for k, c in enumerate(profile)]
        write_table(args.output, ("k", "count"), rows)
        print(f"stats: exceed {int(profile.sum())} flags over {profile.size} subcarriers -> {args.output}")
    return 0


# ---------------------------------------------------------------------------
# parser and entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csiphase",
        description="Generate, sanitize and summarize CSI phase batches.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="write a clean/measured CSIF pair")
    p_synth.add_argument("--spec", help="scenario file (key = value lines)")
    p_synth.add_argument("--symbols", type=int, default=1000, help="rows S (default 1000)")
    p_synth.add_argument(
        "--subcarriers",
        type=int,
        default=None,
        help="columns K as a contiguous 1..K map (default 30, or the scenario's map)",
    )
    p_synth.add_argument("--seed", type=int, default=0, help="root RNG seed (default 0)")
    p_synth.add_argument("-o", "--output", required=True, help="output basename OUT[.csif]")
    p_synth.set_defaults(func=_cmd_synth)

    p_proc = sub.add_parser("process", help="run one calibration method on a CSIF file")
    p_proc.add_argument("-i", "--input", required=True, help="input CSIF (complex)")
    p_proc.add_argument("-o", "--output", required=True, help="output CSIF")
    p_proc.add_argument("--method", required=True, choices=METHODS)
    p_proc.add_argument("--sg-order", type=int, default=2, help="smoother order (default 2)")
    p_proc.add_argument(
        "--sg-frac", type=float, default=0.1, help="smoother window fraction (default 0.1)"
    )
    p_proc.add_argument(
        "--abscissa",
        choices=("ordinal", "physical"),
        default="ordinal",
        help="regression abscissa (physical uses a contiguous 1..K map)",
    )
    p_proc.add_argument(
        "--separable",
        action="store_true",
        help="run the 2-D smoother as two 1-D passes",
    )
    p_proc.add_argument("--report", help="write a key=value processing report here")
    p_proc.add_argument(
        "--verify-amplitude",
        action="store_true",
        help="fail unless output amplitude is bit-identical to the input",
    )
    p_proc.set_defaults(func=_cmd_process)

    p_stats = sub.add_parser("stats", help="emit diagnostic CSV tables")
    stats_sub = p_stats.add_subparsers(dest="table", required=True)

    p_hist = stats_sub.add_parser("diffhist", help="adjacent-gap histogram")
    p_hist.add_argument("-i", "--input", required=True)
    p_hist.add_argument("-o", "--output", required=True)
    p_hist.add_argument("--bins", type=int, default=101, help="bin count (default 101)")
    p_hist.set_defaults(func=_cmd_stats)

    p_ds = stats_sub.add_parser("ds", help="per-symbol gap thresholds")
    p_ds.add_argument("-i", "--input", required=True)
    p_ds.add_argument("-o", "--output", required=True)
    p_ds.add_argument("--labels", help="file with one label per symbol")
    p_ds.set_defaults(func=_cmd_stats)

    p_exc = stats_sub.add_parser("exceed", help="per-subcarrier rebuild flags")
    p_exc.add_argument("-i", "--input", required=True)
    p_exc.add_argument("-o", "--output", required=True)
    p_exc.set_defaults(func=_cmd_stats)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
