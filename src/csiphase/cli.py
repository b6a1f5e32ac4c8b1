"""Command-line frontend: generate, sanitize, and summarize CSI batches.

Three subcommands compose the library for scripts:

* ``synth`` writes a clean/measured CSIF pair from a scenario.
* ``process`` runs one calibration method over a CSIF file.
* ``stats`` turns phase matrices and rebuild reports into CSV tables.

Every command opens its input once, through ``io.CsifReader``, and a
complex input is split into amplitude and phase as it is read, so no
command holds a complex input and a pipe (``-i /dev/stdin``) gives the
bytes its file gives. Zero cells are where the amplitude is zero; their
phase is 0. A command alone holds what it reads, so it computes in it:
``stats`` reads the phase alone and calibrates (``ds``, ``diffhist``) or
runs ``tsfr`` (``exceed``) in it. So does ``process`` on a regular file,
which it then reads a second time through the same descriptor, forming
each row block's amplitude again as it writes the block's output rows, so
it holds no S x K amplitude. A pipe, or an input that the output
replaces, is read once, amplitude beside phase, by ``tsfr.process``.
Either way every method runs in the raw phase array read, and the bytes
are the same. A file whose size or modification time changed between
the two reads is refused. ``process --verify-amplitude`` keeps a digest
of each block's amplitude from the first read and compares the second
read's with it, so it needs a regular file that is not the output.
``process --report`` writes the report a row block of symbols at a time.

Exit codes are a stable contract: 0 success, 2 usage errors (among
them ``--verify-amplitude`` on an input that is not a regular file, or
that is the output file), 3 I/O failures, 4 data or format errors
(among them an input that changed between the reads of ``process``), 5
out of memory. Out of memory prints one line, no traceback, naming the
subcommand and, for ``process``, the method and the input's shape.
Outputs never embed timestamps, so equal inputs and flags give
byte-identical files.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import re
import stat
import sys
from pathlib import Path

import numpy as np

from .calib import lrr_calibrate
from .core import (
    PhaseMatrix,
    Stage,
    SubcarrierMap,
    _cartesian_blocks,
    _check_finite,
    _hand_over,
    _row_blocks,
)
from .io import CsifReader, _csif_writer, write_csif, write_table
from .stats import diff_histogram, ds_series, exceedance_profile
from .synth import gen_dataset, load_scenario
from .tsfr import METHODS, _route, process, tsfr

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


def _write_report(path: str, args, columns, shape) -> None:
    """The settings, then each symbol's lines from ``columns``, the
    report's per-symbol arrays in line order (None for a method without a
    report), formatted a row block of symbols at a time
    (``core._row_blocks`` of the S x K input) and written a symbol at a
    time, so no text block is held."""
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
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
        if columns is None:
            return
        for block in _row_blocks(*shape):
            symbols = range(block.start, block.stop)
            rows = zip(*(x for c in columns for x in (symbols, c[block].tolist())))
            fh.writelines(map(_SYMBOL_LINES.__mod__, rows))


def _cmd_process(args) -> int:
    # A regular file is read twice; a pipe cannot be, nor an input that the
    # output replaces, so those are read once.
    info = os.stat(args.input)
    twice = stat.S_ISREG(info.st_mode) and not _same_file(info, args.output)
    if args.verify_amplitude and not twice:
        print(
            f"error: --verify-amplitude re-reads the input, so {args.input} must be a "
            f"regular file, not a pipe, a device or the output file",
            file=sys.stderr,
        )
        return 2
    with CsifReader(args.input) as reader:
        # Named by main if memory runs out, in the read of the payload too.
        args.input_shape = shape = reader.shape
        settings = dict(
            smap=SubcarrierMap.contiguous(shape[1]) if args.abscissa == "physical" else None,
            sg_order=args.sg_order,
            sg_fraction=args.sg_frac,
            abscissa=args.abscissa,
            separable=args.separable,
        )
        if twice:
            columns = _process_in_two_passes(reader, args, settings)
        else:
            columns = _process_in_one_pass(reader, args, settings)
    if args.report is not None:
        _write_report(args.report, args, columns, shape)
    if args.verify_amplitude:
        print("amplitude check: ok (bit-identical)")
    print(f"process: {args.method} on {shape[0]}x{shape[1]} -> {args.output}")
    return 0


def _same_file(info: os.stat_result, path: str) -> bool:
    """Whether ``path`` names the file ``info`` describes, also through a
    hard link or a symlink."""
    try:
        other = os.stat(path)
    except OSError:
        return False
    return (other.st_dev, other.st_ino) == (info.st_dev, info.st_ino)


def _report_columns(report):
    """The per-symbol columns of the report file, in line order, or None
    for a method without a report; the S x K exceedance marks are left."""
    return None if report is None else (
        report.mu, report.sigma, report.d,
        report.clamped_down, report.clamped_up, report.modified_fraction,
    )


def _process_in_one_pass(reader: CsifReader, args, settings) -> tuple | None:
    """A pipe, or a file that the output replaces, is read once: process
    reads the pair, and the output is written from it once all is read."""
    output, report = process(reader, args.method, **settings)
    columns = _report_columns(report)
    del report  # the exceedance marks go before the output is written
    write_csif(args.output, output)
    return columns


def _process_in_two_passes(reader: CsifReader, args, settings) -> tuple | None:
    """A regular file is read twice through its one descriptor, so no S x K
    amplitude is held. The first pass reads the phase alone, checking each
    block's amplitude as ``read`` does, and the method runs in that array.
    The second pass forms each block's amplitude again and writes its rows
    of the output, ``np.abs`` being the amplitude rule of the read and the
    fill being elementwise, so the bytes are those of the one-pass run.

    The file must not change in between: ``CsifReader._rewind`` refuses a
    new size or modification time, and with ``--verify-amplitude`` each
    block's amplitude digest in the second pass must equal the first's.
    """
    digests = [] if args.verify_amplitude else None

    def first_read(rows, amplitude):
        _check_finite(amplitude, "amplitude matrix", rows.start)
        if digests is not None:
            digests.append(hashlib.sha256(amplitude).digest())

    phase, report = _route(_read_phase(reader, first_read), args.method, **settings)
    columns = _report_columns(report)
    del report  # the exceedance marks go before the second read
    reader._rewind()
    s, k = reader.shape
    amplitude = np.empty((_row_blocks(s, k)[0].stop, k))  # one block, reused
    with _csif_writer(args.output, reader.shape) as write:
        for i, (rows, block) in enumerate(reader.blocks()):
            a = np.abs(block, out=amplitude[: rows.stop - rows.start])
            if digests is not None and hashlib.sha256(a).digest() != digests[i]:
                raise ValueError(
                    f"amplitude self-check failed: rows {rows.start}-{rows.stop - 1} of "
                    f"{args.input} read a different amplitude the second time"
                )
            for values in _cartesian_blocks(a, phase.values[rows], "CSI matrix",
                                            first_row=rows.start):
                write(values)
            del values  # its fill scratch goes before the next block's is made
    return columns


def _read_phase(reader: CsifReader, each_amplitude=None) -> PhaseMatrix:
    """The raw phase of a complex input, handed over to the next stage,
    which computes in it; no S x K amplitude is formed. ``each_amplitude``,
    when given, is called with each block's (``CsifReader._phase``)."""
    raw = reader._phase(each_amplitude)
    _hand_over(raw)
    return raw


def _calibrated_phase(path: str) -> PhaseMatrix:
    """Complex input is calibrated with lrr; real input is taken as calibrated."""
    with CsifReader(path) as reader:
        if not reader.complex:
            return PhaseMatrix(reader.values(), Stage.CALIBRATED)
        raw = _read_phase(reader)
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
        with CsifReader(args.input) as reader:
            raw = _read_phase(reader)
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
        # The package reports every overflow it meets as a ValueError, which
        # is printed below; numpy's own warnings would only repeat it.
        with np.errstate(over="ignore", invalid="ignore"):
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
