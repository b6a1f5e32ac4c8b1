"""The three workloads: inputs from a seed, one op, and its checks.

Each workload builds its inputs in ``setup`` from the run's seed and
lists one *cycle* of ops, ``(kind, index)`` pairs that visit every input
once; the kind names what an op does, for ops that differ. ``execute`` runs one op inside a :class:`tracer.Recorder` op frame
and returns the failed checks; every check runs inside
``Recorder.paused`` so that it is neither timed nor traced. When a list
is passed as ``fidelity``, ``execute`` also runs the method on the clean
twin of each input and appends the per-symbol correlations.

The package is always reached through module attributes
(``self.tsfr.process``) looked up at call time, so a traced pass sees
the benchmark's own calls into each layer.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import zlib
from pathlib import Path

import numpy as np

# A rebuilt gap may exceed d_s by rounding only (a clamp writes prev + d_s).
GAP_TOL = 1e-9


def child_seeds(seed: int, workload: str, n: int) -> list[int]:
    """n independent 32-bit seeds for one workload of one run seed."""
    root = np.random.SeedSequence([seed, zlib.crc32(workload.encode())])
    return [int(child.generate_state(1)[0]) for child in root.spawn(n)]


def row_correlation(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row Pearson correlation of two wrapped phase matrices."""
    a = np.unwrap(a, axis=1)
    b = np.unwrap(b, axis=1)
    a = a - a.mean(axis=1, keepdims=True)
    b = b - b.mean(axis=1, keepdims=True)
    return (a * b).sum(axis=1) / np.sqrt((a * a).sum(axis=1) * (b * b).sum(axis=1))


def gap_failures(phase: np.ndarray, d: np.ndarray) -> list[str]:
    """Rows of a rebuilt (wrapped) phase matrix with a gap beyond d_s."""
    gaps = np.abs(np.diff(np.unwrap(phase, axis=1), axis=1))
    bad = np.flatnonzero((gaps > d[:, None] + GAP_TOL).any(axis=1))
    if bad.size:
        return [f"{bad.size} rebuilt rows have a gap beyond d_s (first: row {bad[0]})"]
    return []


class Workload:
    name = ""
    shape = (0, 0)

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work

    @property
    def cells(self) -> int:
        return self.shape[0] * self.shape[1]

    def _modules(self) -> None:
        self.core = importlib.import_module("csiphase.core")
        self.io = importlib.import_module("csiphase.io")
        self.synth = importlib.import_module("csiphase.synth")
        self.tsfr = importlib.import_module("csiphase.tsfr")
        self.cli = importlib.import_module("csiphase.cli")

    def _amplitude(self, csi) -> np.ndarray:
        return self.core.decompose(csi)[0].values

    def _phase(self, csi) -> np.ndarray:
        return self.core.decompose(csi)[1].values


class Windows(Workload):
    """40 short 256x52 windows; one op is one process() call."""

    name = "windows"
    shape = (256, 52)
    count = 40

    def setup(self) -> None:
        self._modules()
        self.smap = self.core.SubcarrierMap.contiguous(52, n_fft=64)
        s = self.shape[0]
        self.windows = [
            self.synth.gen_dataset(
                self.synth.demo_channel(),
                self.synth.demo_impairments(s, self.smap, seed=seed),
                s,
            )
            for seed in child_seeds(self.seed, self.name, self.count)
        ]
        self.amplitudes = [self._amplitude(w.measured_csi) for w in self.windows]

    def cycle(self) -> list[tuple[str, int]]:
        return [(m, i) for i in range(self.count) for m in self.tsfr.METHODS]

    def execute(self, op, rec, fidelity=None) -> list[str]:
        method, i = op
        result = self.tsfr.process(self.windows[i].measured_csi, method, smap=self.smap)
        with rec.paused():
            return self._check(method, i, result, fidelity)

    def _check(self, method, i, result, fidelity) -> list[str]:
        failures = []
        if not np.array_equal(self._amplitude(result.output), self.amplitudes[i]):
            failures.append(f"{method} on window {i}: amplitude changed")
        phase = self._phase(result.output)
        if method == "tsfr":
            failures += gap_failures(phase, np.asarray(result.report.d))
        if fidelity is not None and method != "raw":
            twin = self.tsfr.process(self.windows[i].true_csi, method, smap=self.smap)
            fidelity.append(row_correlation(phase, self._phase(twin.output)))
        return failures


class CaptureCli(Workload):
    """One long 10000x52 capture driven through the in-process CLI."""

    name = "capture-cli"
    shape = (10000, 52)
    label_run = 200
    labels = 50

    def setup(self) -> None:
        self._modules()
        label_seed, self.capture_seed = child_seeds(self.seed, self.name, 2)
        runs = np.random.default_rng(label_seed).permutation(self.labels)
        self.label_file = self.work / "labels.txt"
        self.label_file.write_text(
            "".join(f"L{runs[s // self.label_run % self.labels]:02d}\n"
                    for s in range(self.shape[0]))
        )
        self.base = str(self.work / "capture")
        self.digests: dict[str, str] | None = None

    def cycle(self) -> list[tuple[str, int]]:
        return [("chain", 0)]

    def _main(self, argv: list[str]) -> int:
        try:
            return self.cli.main(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2

    def execute(self, op, rec, fidelity=None) -> list[str]:
        base = self.base
        chain = (
            ["synth", "--seed", str(self.capture_seed), "--symbols", str(self.shape[0]),
             "--subcarriers", str(self.shape[1]), "-o", base],
            ["process", "-i", f"{base}.meas.csif", "-o", f"{base}.clean.csif",
             "--method", "tsfr", "--report", f"{base}.report.txt", "--verify-amplitude"],
            ["stats", "ds", "-i", f"{base}.clean.csif", "-o", f"{base}.ds.csv",
             "--labels", str(self.label_file)],
            ["stats", "exceed", "-i", f"{base}.meas.csif", "-o", f"{base}.exceed.csv"],
        )
        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in chain:
                codes.append(self._main(argv))
        with rec.paused():
            return self._check(codes, fidelity)

    def _check(self, codes, fidelity) -> list[str]:
        if codes != [0, 0, 0, 0]:
            return [f"chain exit codes {codes}"]
        base = self.base
        failures = []
        names = ("true.csif", "meas.csif", "clean.csif", "report.txt", "ds.csv", "exceed.csv")
        digests = {n: hashlib.sha256(Path(f"{base}.{n}").read_bytes()).hexdigest()
                   for n in names}
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            failures.append("artifacts differ from the first repetition")
        phase = np.angle(self._read(f"{base}.clean.csif"))
        d = np.array([float(line.partition("=")[2])
                      for line in Path(f"{base}.report.txt").read_text().splitlines()
                      if line.startswith("symbol.") and ".d=" in line])
        if d.size != self.shape[0]:
            failures.append(f"report holds {d.size} thresholds")
        else:
            failures += gap_failures(phase, d)
        if fidelity is not None:
            with contextlib.redirect_stdout(io.StringIO()):
                code = self._main(["process", "-i", f"{base}.true.csif", "-o",
                                   f"{base}.twin.csif", "--method", "tsfr"])
            if code != 0:
                failures.append(f"clean twin exit code {code}")
            else:
                fidelity.append(row_correlation(phase, np.angle(self._read(f"{base}.twin.csif"))))
        return failures

    def _read(self, path: str) -> np.ndarray:
        """CSIF complex payload, read without the package's reader."""
        return np.fromfile(path, dtype="<c16", offset=16).reshape(self.shape)


# 802.11ac VHT80 data subcarriers: -122..-2 and 2..122 of a 256-point FFT.
VHT80 = np.r_[np.arange(-122, -1), np.arange(2, 123)]


class WideMap(Workload):
    """Four 2500x242 VHT80 captures; one op reads one, then runs four
    methods on it, each written."""

    name = "wide-map"
    shape = (2500, VHT80.size)
    count = 4

    def setup(self) -> None:
        self._modules()
        self.smap = self.core.SubcarrierMap(VHT80, n_fft=256)
        s = self.shape[0]
        self.paths, self.amplitudes, self.twins = [], [], []
        for i, seed in enumerate(child_seeds(self.seed, self.name, self.count)):
            data = self.synth.gen_dataset(
                self.synth.demo_channel(), self.synth.demo_impairments(s, self.smap, seed=seed), s
            )
            path = self.work / f"capture{i}.meas.csif"
            self.io.write_csif(path, data.measured_csi)
            self.paths.append(path)
            # The op compares against the amplitude of what it reads back.
            self.amplitudes.append(self._amplitude(self.io.read_csif(path)))
            self.twins.append(data.true_csi)
        self.methods = (
            ("raw", {}),
            ("lt", {"smap": self.smap}),
            ("lrr", {}),
            ("lrr+sgfreq", {"smap": self.smap, "abscissa": "physical"}),
        )

    def cycle(self) -> list[tuple[str, int]]:
        return [("capture", i) for i in range(self.count)]

    def execute(self, op, rec, fidelity=None) -> list[str]:
        i = op[1]
        csi = self.io.read_csif(self.paths[i])
        failures = []
        for method, kwargs in self.methods:
            result = self.tsfr.process(csi, method, **kwargs)
            self.io.write_csif(self.work / f"capture{i}.{method}.csif", result.output)
            with rec.paused():
                failures += self._check(method, kwargs, i, result, fidelity)
            del result  # let the next method start without this output alive
        return failures

    def _check(self, method, kwargs, i, result, fidelity) -> list[str]:
        failures = []
        if not np.array_equal(self._amplitude(result.output), self.amplitudes[i]):
            failures.append(f"{method} on capture {i}: amplitude changed")
        if fidelity is not None and method != "raw":
            twin = self.tsfr.process(self.twins[i], method, **kwargs)
            fidelity.append(row_correlation(self._phase(result.output), self._phase(twin.output)))
        return failures


WORKLOADS = {w.name: w for w in (Windows, CaptureCli, WideMap)}
