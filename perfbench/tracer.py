"""Op timing, spans and memory peaks, recorded from outside the package.

The package itself carries no instrumentation. A traced pass instead
replaces the names that each caller module looks up
(``csiphase.tsfr.sg_time``, ``csiphase.cli.write_csif``, ...) with
wrappers that open a span around the call, and restores them afterwards.
Spans are kept in memory and written out once the run ends.

One :class:`Recorder` serves every pass:

* untraced passes only measure each op's elapsed time;
* traced passes also keep a span per wrapped call, nested under the op;
* memory passes (``tracemalloc`` running) also keep each frame's peak.

Checks run inside :meth:`Recorder.paused`, so their time never counts
towards an op and their allocations never count towards a peak.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
import tracemalloc
from contextlib import contextmanager

# Caller module -> names it looks up in another module of the package.
# The package re-exports the function ``tsfr``, which shadows the
# submodule attribute, so modules are reached with import_module.
LOOKUPS = {
    "csiphase.tsfr": (
        "decompose", "recompose", "lrr_calibrate", "lt_calibrate",
        "sg_time", "sg_freq", "sg_2d", "tsfr", "process", "_rebuild_rows",
    ),
    "csiphase.cli": (
        "main", "decompose", "read_csif", "write_csif", "write_table",
        "diff_histogram", "ds_series", "exceedance_profile", "gen_dataset",
        "process", "tsfr", "_write_report",
    ),
    "csiphase.synth": ("decompose", "recompose", "write_csif", "gen_dataset"),
    "csiphase.io": ("read_csif", "write_csif"),
}

# Private helpers get the span names the metrics use. They are the only
# names that may be missing: a span over a public name that silently
# vanished would read as a layer that got free.
ALIASES = {"_rebuild_rows": "rebuild", "_write_report": "report"}

OP_SPAN = "bench.op"
CHECK_SPAN = "bench.check"  # correctness checks: not op time, not self time
COUNT_SPAN = "bench.count"  # computing counts: not self time of any layer


def span_name(fn, looked_up: str) -> str:
    layer = fn.__module__.removeprefix("csiphase.")
    return f"{layer}.{ALIASES.get(looked_up, fn.__name__)}"


class Recorder:
    """Times ops and, when asked, records spans, counts and peaks."""

    def __init__(self) -> None:
        self.tracing = False
        self.memory = False
        self.spans: list[tuple] = []  # (op, id, parent, name, start, end)
        self.peaks: list[tuple] = []  # (op, name, bytes above frame start)
        self.counts: list[tuple] = []  # (op, span name, key, value)
        self._stack: list[list] = []  # [id, name, start, base, max_peak]
        self._op = -1
        self._next_id = 0
        self._paused = 0.0

    def _enter(self, name: str) -> list:
        frame = [self._next_id, name, 0.0, 0, 0]
        self._next_id += 1
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._stack:
                self._stack[-1][4] = max(self._stack[-1][4], peak)
            tracemalloc.reset_peak()
            frame[3] = frame[4] = current
        self._stack.append(frame)
        frame[2] = time.perf_counter()
        return frame

    def _exit(self, frame: list, record: bool, propagate: bool = True) -> float:
        end = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        if record:
            self.spans.append(
                (self._op, frame[0], parent and parent[0], frame[1], frame[2], end)
            )
        if self.memory:
            top = max(frame[4], tracemalloc.get_traced_memory()[1])
            self.peaks.append((self._op, frame[1], top - frame[3]))
            if parent is not None and propagate:
                parent[4] = max(parent[4], top)
            tracemalloc.reset_peak()
        return end - frame[2]

    @contextmanager
    def op(self, op_id: int):
        """Measure one op; ``clock[0]`` ends up holding its time net of checks."""
        self._op = op_id
        self._paused = 0.0
        clock = [0.0]
        frame = self._enter(OP_SPAN)
        try:
            yield clock
        finally:
            clock[0] = self._exit(frame, self.tracing) - self._paused

    @contextmanager
    def _hidden(self, name: str):
        tracing, self.tracing = self.tracing, False
        frame = self._enter(name)
        try:
            yield
        finally:
            self.tracing = tracing
            elapsed = self._exit(frame, tracing, propagate=False)
            if name == CHECK_SPAN:
                self._paused += elapsed

    def paused(self):
        """Exclude a check from the op's time, its spans and its peak."""
        return self._hidden(CHECK_SPAN)

    def wrap(self, name: str, fn, counter=None):
        """``fn`` inside a span; ``counter(arguments, result)`` yields counts."""
        signature = inspect.signature(fn) if counter is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame, self.tracing)
            if counter is not None and self.tracing:
                with self._hidden(COUNT_SPAN):
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    for key, value in counter(bound.arguments, result):
                        self.counts.append((self._op, name, key, value))
            return result

        return traced

    @contextmanager
    def traced(self, counters: dict):
        """Wrap every looked-up name, then restore the originals.

        Raises LookupError when a caller module no longer looks up a public
        name it is listed with; private helpers are wrapped only if present.
        """
        saved = []
        for module_name, names in LOOKUPS.items():
            module = importlib.import_module(module_name)
            for looked_up in names:
                fn = getattr(module, looked_up, None)
                if fn is None:
                    if looked_up in ALIASES:
                        continue
                    raise LookupError(f"{module_name} no longer looks up {looked_up}; "
                                      "update tracer.LOOKUPS")
                name = span_name(fn, looked_up)
                saved.append((module, looked_up, fn))
                setattr(module, looked_up, self.wrap(name, fn, counters.get(name)))
        self.tracing = True
        try:
            yield
        finally:
            self.tracing = False
            for module, looked_up, fn in reversed(saved):
                setattr(module, looked_up, fn)

    def self_times(self) -> dict[int, dict[str, list[float]]]:
        """Per op and span name: [calls, total self time in seconds].

        A span's self time is its duration minus the part of it that its
        child spans cover.
        """
        children: dict[int, list[tuple[float, float]]] = {}
        for _, _, parent, _, start, end in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        out: dict[int, dict[str, list[float]]] = {}
        for op, span_id, _, name, start, end in self.spans:
            covered, reach = 0.0, start
            for c_start, c_end in sorted(children.get(span_id, ())):
                c_start = max(c_start, reach)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            entry = out.setdefault(op, {}).setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += end - start - covered
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for op, span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({
                    "op": op, "id": span_id, "parent": parent, "name": name,
                    "start": start, "end": end,
                }) + "\n")
