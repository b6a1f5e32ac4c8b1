"""Command-line frontend: generate, sanitize, and summarize CSI batches.

Three subcommands compose the library for scripts:

* ``synth`` writes a clean/measured CSIF pair from a scenario.
* ``process`` runs one calibration method over a CSIF file.
* ``stats`` turns phase matrices and rebuild reports into CSV tables.

Every command opens its input once, through ``io.CsifReader``, and a
complex input is split into amplitude and phase as it is read, so no
command holds a complex input and a pipe (``-i /dev/stdin``) gives the
bytes its file gives. Zero cells are where the amplitude is zero; their
phase is 0. ``process --verify-amplitude`` reads the input a second
time, so it needs a regular file.

Exit codes are a stable contract: 0 success, 2 usage errors (among
them ``--verify-amplitude`` on an input that is not a regular file), 3
I/O failures, 4 data or format errors, 5 out of memory. Out of memory
prints one line, no traceback, naming the subcommand and, for
``process``, the method and the input's shape. Outputs never embed
timestamps, so equal inputs and flags give byte-identical files.
"""

from __future__ import annotations

import argparse
import os
import re
import stat
import sys
from pathlib import Path

import numpy as np

from .calib import lrr_calibrate
from .core import PhaseMatrix, Stage, SubcarrierMap, _amplitude_of
from .io import CsifReader, write_csif, write_table
from .stats import diff_histogram, ds_series, exceedance_profile
from .synth import gen_dataset, load_scenario
from .tsfr import METHODS, process, tsfr

# Not called here, as every command reads its input through CsifReader;
# both stay names of this module because perfbench/tracer.py wraps them.
from .core import decompose  # noqa: F401
from .io import read_csif  # noqa: F401

__all__ = ["main"]

_REPORT_VERSION = 1


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
# subcommands


def _cmd_synth(args) -> int:
    channel, imp = load_scenario(
        args.spec, seed=args.seed, symbols=args.symbols, subcarriers=args.subcarriers
    )
    base = re.sub(r"\.csif$", "", str(args.output))
    gen_dataset(channel, imp, args.symbols, out=base)
    print(
        f"synth: wrote {base}.true.csif and {base}.meas.csif "
        f"(S={args.symbols}, K={len(imp.smap)}, seed={args.seed})"
    )
    return 0


def _write_report(path: str, args, result, shape) -> None:
    lines = [
        f"report_version={_REPORT_VERSION}",
        f"method={args.method}",
        f"symbols={shape[0]}",
        f"subcarriers={shape[1]}",
        f"sg_order={args.sg_order}",
        f"sg_fraction={args.sg_frac:.17g}",
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
    if args.verify_amplitude and not stat.S_ISREG(os.stat(args.input).st_mode):
        print(
            f"error: --verify-amplitude re-reads the input, so {args.input} "
            f"must be a regular file, not a pipe or device",
            file=sys.stderr,
        )
        return 2
    with CsifReader(args.input) as reader:
        # Named by main if memory runs out, in the read of the payload too.
        args.input_shape = shape = reader.shape
        polar = reader.read()
    smap = SubcarrierMap.contiguous(shape[1]) if args.abscissa == "physical" else None
    result = process(
        polar,
        args.method,
        smap=smap,
        sg_order=args.sg_order,
        sg_fraction=args.sg_frac,
        abscissa=args.abscissa,
        separable=args.separable,
    )
    del polar  # the raw phase, which the output no longer needs
    write_csif(args.output, result.output)
    if args.report is not None:
        _write_report(args.report, args, result, shape)
    if args.verify_amplitude:
        # The input is read again, a row block at a time, and np.abs of its
        # values is formed afresh: the amplitude that process passed through
        # is the output's own, so comparing with that would compare the
        # output with itself. The output's phase is never folded.
        amp_out = _amplitude_of(result.output)
        with CsifReader(args.input) as reader:
            for rows, block in reader.blocks():
                if not np.array_equal(np.abs(block), amp_out[rows]):
                    raise ValueError("amplitude self-check failed: output amplitude differs")
        print("amplitude check: ok (bit-identical)")
    print(f"process: {args.method} on {shape[0]}x{shape[1]} -> {args.output}")
    return 0


def _calibrated_phase(path: str) -> PhaseMatrix:
    """Complex input is calibrated with lrr; real input is taken as calibrated."""
    with CsifReader(path) as reader:
        if not reader.complex:
            return PhaseMatrix(reader.values(), Stage.CALIBRATED)
        # The amplitude is not kept: it goes before lrr allocates its arrays.
        raw = reader.read()[1]
    return lrr_calibrate(raw)


def _cmd_stats(args) -> int:
    if args.table == "diffhist":
        hist = diff_histogram(_calibrated_phase(args.input), bins=args.bins)
        write_table(
            args.output,
            ("bin_left", "bin_right", "count"),
            (hist.bin_edges[:-1], hist.bin_edges[1:], hist.counts),
            comments=(
                f"fitted_mean={hist.fitted_mean:.17g}",
                f"fitted_std={hist.fitted_std:.17g}",
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
            f"mean.{label}={value:.17g}" for label, value in (series.group_means or {}).items()
        )
        columns = (np.arange(1, series.d.size + 1), series.d)
        if labels is not None:
            columns += (labels,)
        write_table(args.output, ("s", "d", "label")[: len(columns)], columns, comments=comments)
        print(f"stats: ds for {series.d.size} symbols -> {args.output}")
    else:
        # The amplitude is not kept: it goes before tsfr runs.
        with CsifReader(args.input) as reader:
            raw = reader.read()[1]
        _, report = tsfr(raw)
        profile = exceedance_profile(report)
        write_table(args.output, ("k", "count"), (np.arange(1, profile.size + 1), profile))
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
    except MemoryError:
        print(f"error: out of memory in {_work(args)}", file=sys.stderr)
        return 5


def _work(args) -> str:
    """The subcommand, and for ``process`` its method and input shape."""
    if args.command == "stats":
        return f"stats {args.table}"
    if args.command != "process":
        return args.command
    work = f"process --method {args.method}"
    shape = getattr(args, "input_shape", None)
    return work if shape is None else f"{work} on a {shape[0]}x{shape[1]} input"


if __name__ == "__main__":
    sys.exit(main())
