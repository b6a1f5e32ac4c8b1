"""Command-line frontend: generate, sanitize, and summarize CSI batches.

Three subcommands compose the library for scripts:

* ``synth`` writes a clean/measured CSIF pair from a scenario.
* ``process`` runs one calibration method over a CSIF file.
* ``stats`` turns phase matrices and rebuild reports into CSV tables.

Every command opens its input once, through ``io.CsifReader``, and a
complex input is split into amplitude and phase as it is read, each
block's amplitude checked, so no command holds a complex input and a
pipe (``-i /dev/stdin``) gives the bytes its file gives. Zero cells are
where the amplitude is zero; their phase is 0. A command alone holds the
raw phase it reads, so it runs the method's stage kernels in that array
(``tsfr._run``). ``process`` then runs the cartesian fill
(``core._fill_cartesian``) on each ``(rows, amplitude)`` row block, on
every worker into a regular file and in order into a pipe. A regular
file is read a second time through the one descriptor, each block's
amplitude formed again, so no S x K amplitude is held, also in place, as
``io`` renames the output over the input once written; a pipe or a
device is read once, its amplitude held beside the phase, to the same
bytes. A file whose size or modification time changed between the reads
is refused, and so, with ``--verify-amplitude``, is a block whose
amplitude digest changed. Every output, CSIF, report or table, replaces
a regular file only once whole.

Status lines, and one ``warning:`` line per axis a smoother passes
through, go to stderr, so an output may be ``/dev/stdout``. Exit codes:
0 success, 2 usage errors (among them ``--verify-amplitude`` on a pipe
or a device), 3 I/O failures, 4 data or format errors (among them an
input that changed between the reads), 5 out of memory, one line naming
the subcommand and, for ``process``, the method and the input's shape.
No output embeds a timestamp: equal inputs and flags give equal bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import re
import sys
import warnings
from pathlib import Path

import numpy as np

from .core import PhaseMatrix, Stage, _fill_cartesian, _row_blocks, _sealed
from .io import CsifReader, _csif_writer, _replacing, write_table
from .savgol import DegenerateWindowWarning
from .stats import diff_histogram, ds_series, exceedance_profile
from .synth import gen_dataset, load_scenario
from .tsfr import METHODS, _run

# Not called here, as every command reads its input through CsifReader,
# runs its method through _run and writes through _csif_writer; they stay
# names of this module because perfbench/tracer.py wraps them.
from .core import decompose  # noqa: F401
from .io import read_csif, write_csif  # noqa: F401
from .tsfr import process, tsfr  # noqa: F401

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
    print(f"synth: wrote {base}.true.csif and {base}.meas.csif "
          f"(S={args.symbols}, K={len(imp.smap)}, seed={args.seed})", file=sys.stderr)
    return 0


def _write_report(path: str, args, columns, shape) -> None:
    """The settings, then each symbol's lines from ``columns``, the
    report's per-symbol arrays in line order (None for a method without a
    report), formatted a row block of symbols at a time
    (``core._row_blocks`` of the S x K input) and written a symbol at a
    time, so no text block is held, by ``io._replacing``."""
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
    with _replacing(path) as fh:
        fh.write("\n".join(lines) + "\n")
        if columns is None:
            return
        for block in _row_blocks(*shape):
            symbols = range(block.start, block.stop)
            rows = zip(*(x for c in columns for x in (symbols, c[block].tolist())))
            fh.writelines(map(_SYMBOL_LINES.__mod__, rows))


def _cmd_process(args) -> int:
    with CsifReader(args.input) as reader:
        if args.verify_amplitude and not reader._regular:
            print(f"error: --verify-amplitude re-reads the input, so {args.input} must be a "
                  "regular file, not a pipe or a device", file=sys.stderr)
            return 2
        # Named by main if memory runs out, in the read of the payload too.
        args.input_shape = shape = reader.shape
        # A regular file is read twice, also in place; a pipe or a device once,
        # its amplitude held beside the phase.
        held = None if reader._regular else np.empty(shape)
        digests = [] if args.verify_amplitude else None
        raw = reader._phase(held, digests)
        # CSIF v1 carries no map: the physical abscissa is the ordinal one.
        phase, report = _run(args.method, raw, raw, order=args.sg_order,
                             fraction=args.sg_frac, separable=args.separable)
        # The report's per-symbol columns; its exceedance marks go before the
        # output is written.
        columns = None if report is None else (
            report.mu, report.sigma, report.d,
            report.clamped_down, report.clamped_up, report.modified_fraction,
        )
        del report
        if held is None:
            # The second read forms each block's amplitude again by the
            # read's rule, np.abs, into one reused block.
            reader._rewind()
            scratch = np.empty((_row_blocks(*shape)[0].stop, shape[1]))
            amplitudes = ((rows, np.abs(block, out=scratch[: rows.stop - rows.start]))
                          for rows, block in reader.blocks())
        else:
            amplitudes = ((rows, held[rows]) for rows in _row_blocks(*shape))
        with _csif_writer(args.output, shape) as write:
            for i, (rows, amplitude) in enumerate(amplitudes):
                if digests is not None and hashlib.sha256(amplitude).digest() != digests[i]:
                    raise ValueError(
                        f"amplitude self-check failed: rows {rows.start}-{rows.stop - 1} of "
                        f"{args.input} read a different amplitude the second time"
                    )
                _fill_cartesian(amplitude, phase[rows], "CSI matrix", write, rows.start)
    if args.report is not None:
        _write_report(args.report, args, columns, shape)
    if args.verify_amplitude:
        print("amplitude check: ok (bit-identical)", file=sys.stderr)
    print(f"process: {args.method} on {shape[0]}x{shape[1]} -> {args.output}", file=sys.stderr)
    return 0


def _calibrated_phase(path: str) -> PhaseMatrix:
    """Complex input is calibrated with lrr in the phase array read; real
    input is taken as calibrated."""
    with CsifReader(path) as reader:
        if not reader.complex:
            return PhaseMatrix(reader.values(), Stage.CALIBRATED)
        raw = reader._phase()
    return _sealed(PhaseMatrix, _run("lrr", raw, raw)[0], Stage.CALIBRATED)


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
        print(f"stats: diffhist {hist.counts.sum()} gaps in {args.bins} bins -> {args.output}",
              file=sys.stderr)
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
        print(f"stats: ds for {series.d.size} symbols -> {args.output}", file=sys.stderr)
    else:
        with CsifReader(args.input) as reader:
            raw = reader._phase()
        _, report = _run("tsfr", raw, raw)
        profile = exceedance_profile(report)
        write_table(args.output, ("k", "count"), (np.arange(1, profile.size + 1), profile))
        print(f"stats: exceed {int(profile.sum())} flags over {profile.size} subcarriers "
              f"-> {args.output}", file=sys.stderr)
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
    show = warnings.showwarning

    def show_warning(message, category, *where, **kwargs):  # one line per pass-through
        if not issubclass(category, DegenerateWindowWarning):
            return show(message, category, *where, **kwargs)
        print(f"warning: {message}", file=sys.stderr)

    try:
        # The package reports every overflow it meets as a ValueError, which
        # is printed below; numpy's own warnings would only repeat it.
        with np.errstate(over="ignore", invalid="ignore"), warnings.catch_warnings():
            warnings.showwarning = show_warning
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
