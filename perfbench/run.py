"""csiphase benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload windows --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/`` and nowhere else. One run does, in order:

1. set-up, five times: import csiphase afresh, build the inputs from the
   seed and run one warm-up op; ``setup_s`` is the median;
2. a memory pass with ``tracemalloc`` on, one op of each kind;
3. the measured pass: whole cycles of ops back to back until ``--seconds``
   have passed (each op starts when the previous one and its checks end);
   its first cycle also computes ``fidelity``. With ``--trace 1`` whole cycles alternate
   between untraced and traced, and the traced ones give the per-layer
   metrics.

Every op is checked; a failed op is counted and never timed. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it restate
the metrics for people. See perfbench/README.md for what each workload
and metric is.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from tracer import OP_SPAN, Recorder
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_REPS = 5
MIB = 2.0**20

# Per-layer metrics that are self times of a span, in ms per op.
SELF_TIMES = (
    "savgol.sg_time", "savgol.sg_2d", "savgol.sg_freq",
    "core.decompose", "core.recompose",
    "calib.lt_calibrate", "calib.lrr_calibrate",
    "tsfr.tsfr", "tsfr.rebuild", "tsfr.process",
    "cli.main", "cli.report",
    "stats.ds_series", "stats.exceedance_profile",
    "io.read_csif", "io.write_csif", "io.write_table",
    "synth.gen_dataset",
)
# Computed counts, per op: totals over whole traced cycles / traced ops.
COUNTS = (
    "savgol.sg_time.macs", "savgol.sg_2d.macs", "savgol.sg_freq.macs",
    "core.decompose.calls", "cli.report.bytes",
    "io.read_csif.bytes", "io.write_csif.bytes",
)


# ---------------------------------------------------------------------------
# computed counts


def sg_window(spec, order: int, fraction: float, length: int) -> int:
    """Window the package's smoothers pick for one axis (0: pass-through)."""
    resolved = importlib.import_module("csiphase.savgol")._resolve_spec(
        spec, order, fraction, length
    )
    return resolved.window if resolved is not None else 0


def _macs_1d(axis: int):
    def count(a, result):
        s, k = a["phase"].shape
        length = (s, k)[axis]
        yield "macs", s * k * sg_window(a["spec"], a["order"], a["fraction"], length)
    return count


def _macs_2d(a, result):
    """S·K·w_r·w_c of the bivariate fit; sg_2d picks its frequency window
    from the time spec's order and fraction unless freq_spec is given."""
    s, k = a["phase"].shape
    spec, order, fraction = a["spec"], a["order"], a["fraction"]
    if a["separable"]:
        return
    w_r = sg_window(spec, order, fraction, s)
    if a["freq_spec"] is not None:
        w_c = sg_window(a["freq_spec"], order, fraction, k)
    else:
        eff_fraction = float(spec) if isinstance(spec, (int, float)) else fraction
        w_c = sg_window(None, getattr(spec, "order", order), eff_fraction, k)
    yield "macs", s * k * w_r * w_c


def _rows(a, result):
    report = result[1]
    down = np.asarray(report.clamped_down)
    yield "rows_walked", down.size
    yield "rows_clamped", int(np.count_nonzero(down + np.asarray(report.clamped_up)))


def _file_bytes(a, result):
    yield "bytes", os.path.getsize(next(iter(a.values())))


COUNTERS = {
    "savgol.sg_time": _macs_1d(0),
    "savgol.sg_freq": _macs_1d(1),
    "savgol.sg_2d": _macs_2d,
    "tsfr.tsfr": _rows,
    "io.read_csif": _file_bytes,
    "io.write_csif": _file_bytes,
    "cli.report": _file_bytes,
}


# ---------------------------------------------------------------------------
# passes


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def run(self, wl, rec: Recorder, op_id: int, op, fidelity=None):
        """Run one op; returns its time, or None when it failed."""
        self.attempted += 1
        try:
            with rec.op(op_id) as clock:
                failures = wl.execute(op, rec, fidelity)
        except Exception as exc:  # an op that raises is a failed op
            failures = [f"{op}: {type(exc).__name__}: {exc}"]
        if failures:
            self.failed += 1
            for failure in failures[:3]:
                print(f"FAILED {wl.name} {failure}", file=sys.stderr)
            return None
        return clock[0]


def fresh_import() -> None:
    for name in [n for n in sys.modules if n == "csiphase" or n.startswith("csiphase.")]:
        del sys.modules[name]
    module = importlib.import_module("csiphase")
    if Path(module.__file__).resolve().parent != SRC / "csiphase":
        raise RuntimeError(f"csiphase was imported from {module.__file__}, not {SRC}")


# Speed in the result is the best case: each kind of op priced at its
# fastest run. On the shared 2-CPU machine the benchmark was tuned on,
# other tenants' load moved the lower quartile of the windows latencies by
# up to 30% between runs minutes apart and the median by more, past the
# 0.25 bounds in BENCHMARK.json; the fastest run moved least. The median and the
# tail are on the "#" lines only.


def per_kind_rate(wl, cycle, times: dict[str, list]) -> float:
    """Cells per second of op time, each op of a cycle priced at the fastest
    run of its kind. 0 when some kind of op never succeeded (the run is then
    not correct)."""
    if not all(times.values()):
        return 0.0
    return len(cycle) * wl.cells / sum(min(times[kind]) for kind, _ in cycle)


def tail(latencies: list[float]) -> str:
    n = len(latencies)
    if n < 11:
        return f"n/a ({n} ops; needs 11 for 10 beyond a percentile)"
    ordered = sorted(latencies)
    pct = 100.0 * (n - 10) / n
    return f"{ordered[n - 11] * 1e3:.4f} ms at p{pct:.2f} ({n} ops, 10 beyond it)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "csiphase" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'csiphase'}; run inside a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = WORK / args.workload
    work.mkdir(parents=True, exist_ok=True)
    tally = Tally()

    # 1. set-up, repeated; the last workload instance is the one measured
    setup_times = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        fresh_import()
        wl = WORKLOADS[args.workload](args.seed, work)
        wl.setup()
        cycle = wl.cycle()
        tally.run(wl, Recorder(), 0, cycle[0])
        setup_times.append(time.perf_counter() - start)

    # 2. memory pass: tracemalloc on, spans on, one op of each kind
    mem = Recorder()
    mem.memory = True
    kinds = {}
    for op in cycle:
        kinds.setdefault(op[0], op)
    tracemalloc.start()
    try:
        with mem.traced(COUNTERS):
            for op_id, op in enumerate(kinds.values()):
                tally.run(wl, mem, op_id, op)
    finally:
        tracemalloc.stop()

    def peak(prefix: str) -> float:
        return max((b for _, n, b in mem.peaks if n.startswith(prefix)), default=0) / MIB

    # 3. measured pass, closed loop; the first cycle also computes fidelity
    rec = Recorder()
    times = {tracing: {kind: [] for kind in kinds} for tracing in (False, True)}
    correlations: list[np.ndarray] | None = [] if args.trace == 0 else None
    traced_ops: list[range] = []
    deadline = time.perf_counter() + args.seconds
    op_id = n_cycles = 0
    while True:  # whole cycles only, so every kind of op runs equally often
        tracing = args.trace == 1 and n_cycles % 2 == 1
        first = op_id
        with rec.traced(COUNTERS) if tracing else contextlib.nullcontext():
            for op in cycle:
                timed = tally.run(wl, rec, op_id, op, correlations if n_cycles == 0 else None)
                op_id += 1
                if timed is not None:
                    times[tracing][op[0]].append(timed)
        if tracing:
            traced_ops.append(range(first, op_id))
        n_cycles += 1
        if time.perf_counter() >= deadline and (args.trace == 0 or n_cycles >= 4):
            break
    plain = times[False]
    pooled = [t for kind in plain.values() for t in kind]

    ok = tally.failed == 0
    print(f"# workload {wl.name}: {wl.shape[0]}x{wl.shape[1]} cells per op, seed {args.seed}, "
          f"{len(cycle)} ops per cycle, {op_id} ops measured, one closed-loop client")
    print(f"# machine: {os.cpu_count()} cpus, Python {platform.python_version()}, "
          f"numpy {np.__version__}, BLAS {blas()}")
    print(f"# set-up repetitions: {', '.join(f'{t:.4f} s' for t in setup_times)}")
    print(f"# attempted {tally.attempted}, failed {tally.failed}, "
          f"fail_frac {tally.failed / tally.attempted:.6g}")

    if args.trace == 0:
        fidelity = float(np.percentile(np.concatenate(correlations), 5)) if correlations else 0.0
        ok = ok and bool(np.isfinite(fidelity)) and fidelity > 0
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "cells_per_s": (per_kind_rate(wl, cycle, plain), "1/s"),
            "peak_mib": (peak(OP_SPAN), "MiB"),
            "fidelity": (fidelity, "corr"),
        }
        medians = {kind: statistics.median(t) for kind, t in plain.items() if t}
        print(f"# op_p50_ms: {statistics.median(pooled or [0]) * 1e3:.4f} ms "
              f"(per kind: {', '.join(f'{k} {v * 1e3:.4f}' for k, v in medians.items())})")
        print(f"# op_tail_ms: {tail(pooled)}")
    else:
        metrics, repeat = layer_metrics(wl, cycle, rec, traced_ops)
        ok = ok and repeat
        metrics["core.peak_mib"] = (peak("core."), "MiB")
        metrics["savgol.sg_2d.peak_mib"] = (peak("savgol.sg_2d"), "MiB")
        metrics["trace.overhead_frac"] = (
            per_kind_rate(wl, cycle, plain) / per_kind_rate(wl, cycle, times[True]) - 1, "ratio"
        )
        rec.write(work / f"spans-seed{args.seed}.jsonl")
        print(f"# spans written to {work / f'spans-seed{args.seed}.jsonl'}; "
              f"counts repeat across traced cycles: {repeat}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    cleanup(work)
    print(json.dumps({
        "correct": bool(ok),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def layer_metrics(wl, cycle, rec: Recorder, traced_ops: list[range]):
    """Per-layer metrics from the traced cycles, and whether counts repeat."""
    n_ops = sum(len(r) for r in traced_ops)
    self_times = rec.self_times()
    per_cycle = []
    for ops in traced_ops:
        totals: dict[str, float] = {}
        for op in ops:
            for name, (calls, _) in self_times.get(op, {}).items():
                totals[f"{name}.calls"] = totals.get(f"{name}.calls", 0) + calls
        per_cycle.append(totals)
    by_op = {op: i for i, ops in enumerate(traced_ops) for op in ops}
    for op, span, key, value in rec.counts:
        totals = per_cycle[by_op[op]]
        totals[f"{span}.{key}"] = totals.get(f"{span}.{key}", 0) + value
    repeat = all(t == per_cycle[0] for t in per_cycle)
    counts = per_cycle[0]

    metrics = {}
    for name in SELF_TIMES:
        total = sum(entry[name][1] for entry in self_times.values() if name in entry)
        metrics[f"{name}.self_ms"] = (total * 1e3 / n_ops, "ms")
    for key in COUNTS:
        unit = "B" if key.endswith(".bytes") else "count"
        metrics[key] = (counts.get(key, 0) / len(cycle), unit)
    walked = counts.get("tsfr.tsfr.rows_walked", 0)
    metrics["tsfr.rows_clamped_frac"] = (
        counts.get("tsfr.tsfr.rows_clamped", 0) / walked if walked else 0.0, "ratio"
    )
    return metrics, repeat


def blas() -> str:
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{info.get('name')} {info.get('version')}"


def cleanup(work: Path) -> None:
    """Delete the run's data files; span files stay."""
    for path in work.iterdir():
        if path.is_file() and not path.name.startswith("spans-"):
            path.unlink()


if __name__ == "__main__":
    sys.exit(main())
