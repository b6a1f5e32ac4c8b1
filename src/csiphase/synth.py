"""Synthetic multipath CSI with receiver-style phase impairments.

The forward model is a plain multipath channel frequency response over
the reported subcarrier grid,

    H_s(k) = sum_p g_{p,s} * exp(-j 2 pi m_k tau_p / N),

optionally with a slow sinusoidal gain drift per path to emulate
activity-induced channel change:

    g_{p,s} = gain_p * (1 + depth * sin(2 pi s / period + 2 pi p / P)).

On top of the clean response, :func:`apply_impairments` injects the
three receiver phase errors onto each symbol row s:

    measured phase = true phase + 2 pi (m_k / N) delta_t_s + gamma_s + Z,

a per-symbol linear tilt over the physical subcarrier index (timing
lag), a per-symbol constant (carrier offset) and i.i.d. Gaussian noise
Z of standard deviation ``noise_sigma``. The injection is phase-only,
so the measured amplitude equals the clean amplitude bit for bit.

Everything is deterministic given the seed; noise comes from one
PCG64 stream seeded through ``SeedSequence(seed)``.

Every rule is local to one symbol row: the drift rows are summed over
the paths in a fixed order, and the noise stream carries on from one row
block to the next. So :func:`gen_dataset` given an ``out`` basename
streams: each row block of about ``core._BLOCK`` cells is generated,
written to ``<out>.true.csif``, split into amplitude and phase by the
decompose rule, impaired, and filled back into ``<out>.meas.csif`` by
the cartesian fill of ``io.write_csif`` (``core._fill_cartesian``).
No S x K array exists, and the files hold the bytes that
``io.write_csif`` writes for the in-memory pair.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .core import (
    CsiMatrix,
    PhaseMatrix,
    Stage,
    SubcarrierMap,
    _check_finite,
    _fill_cartesian,
    _freeze,
    _polar_block,
    _row_blocks,
    decompose,
    recompose,
)
from .io import _csif_writer

# Not called here, as gen_dataset streams its files through the block
# writer that write_csif is built on; it stays a name of this module
# because perfbench/tracer.py wraps it.
from .io import write_csif  # noqa: F401

__all__ = [
    "ChannelSpec",
    "ImpairmentSpec",
    "SynthOutput",
    "gen_true_csi",
    "apply_impairments",
    "gen_dataset",
    "demo_channel",
    "demo_impairments",
    "load_scenario",
]

# Impairment defaults shared by the demo fixture and scenario files.
_DELTA_T_RANGE = (-2.0, 2.0)
_GAMMA_RANGE = (-np.pi, np.pi)
_NOISE_SIGMA = 0.05


@dataclass(frozen=True)
class ChannelSpec:
    """Multipath channel: (delay in samples, complex gain) per path.

    ``drift_depth`` > 0 turns on the per-path sinusoidal gain drift with
    the given period in symbols; each path starts the sinusoid at a
    different fixed angle so paths do not breathe in unison.
    """

    paths: tuple[tuple[float, complex], ...]
    drift_depth: float = 0.0
    drift_period: float = 0.0

    def __post_init__(self) -> None:
        paths = tuple((float(d), complex(g)) for d, g in self.paths)
        if not paths:
            raise ValueError("a channel needs at least one path")
        for delay, gain in paths:
            if not np.isfinite(delay) or delay < 0:
                raise ValueError(f"path delay {delay} must be finite and non-negative")
            if not np.isfinite(gain.real) or not np.isfinite(gain.imag):
                raise ValueError("path gains must be finite")
        object.__setattr__(self, "paths", paths)
        if not (0 <= self.drift_depth <= 1):
            raise ValueError(f"drift_depth {self.drift_depth} must be within [0, 1]")
        if self.drift_depth > 0 and self.drift_period <= 0:
            raise ValueError("a positive drift_depth needs a positive drift_period")

    @property
    def delays(self) -> np.ndarray:
        return np.array([d for d, _ in self.paths])

    @property
    def gains(self) -> np.ndarray:
        return np.array([g for _, g in self.paths])


@dataclass(frozen=True)
class ImpairmentSpec:
    """Per-symbol timing lags and carrier offsets plus phase-noise level.

    ``delta_t`` is in samples (fractional values allowed), ``gamma`` in
    radians; both have one entry per symbol. ``noise_sigma`` is the
    standard deviation of the additive Gaussian phase noise drawn from
    a PCG64 stream seeded with ``seed``. ``smap`` fixes the physical
    subcarrier indices m_k and the DFT size N.
    """

    delta_t: np.ndarray
    gamma: np.ndarray
    noise_sigma: float
    seed: int
    smap: SubcarrierMap

    def __post_init__(self) -> None:
        delta_t = _freeze(self.delta_t, np.float64)
        gamma = _freeze(self.gamma, np.float64)
        if delta_t.ndim != 1 or gamma.ndim != 1 or delta_t.size != gamma.size:
            raise ValueError(
                f"delta_t and gamma must be 1-D and equally long, got shapes "
                f"{delta_t.shape} and {gamma.shape}"
            )
        if delta_t.size < 1:
            raise ValueError("need at least one symbol of impairments")
        if not (np.isfinite(delta_t).all() and np.isfinite(gamma).all()):
            raise ValueError("delta_t and gamma must be finite")
        object.__setattr__(self, "delta_t", delta_t)
        object.__setattr__(self, "gamma", gamma)
        if not np.isfinite(self.noise_sigma) or self.noise_sigma < 0:
            raise ValueError(f"noise_sigma {self.noise_sigma} must be finite and >= 0")
        if int(self.seed) != self.seed or self.seed < 0:
            raise ValueError(f"seed {self.seed!r} must be a non-negative integer")
        object.__setattr__(self, "seed", int(self.seed))

    @property
    def symbols(self) -> int:
        return self.delta_t.size


@dataclass(frozen=True)
class SynthOutput:
    """A generated pair of clean and impaired CSI plus the specs used."""

    true_csi: CsiMatrix
    measured_csi: CsiMatrix
    impairment: ImpairmentSpec
    channel: ChannelSpec | None = None

    def __post_init__(self) -> None:
        if self.true_csi.shape != self.measured_csi.shape:
            raise ValueError(
                f"true and measured dimensions differ: "
                f"{self.true_csi.shape} vs {self.measured_csi.shape}"
            )


def _path_responses(channel: ChannelSpec, symbols: int, smap: SubcarrierMap) -> np.ndarray:
    """The (P, K) per-path responses on the reported grid, once the
    symbol count and the path delays are checked."""
    if symbols < 1:
        raise ValueError(f"need at least one symbol, got {symbols}")
    delays = channel.delays
    if (delays >= smap.n_fft).any():
        raise ValueError(
            f"path delays must be below the DFT size {smap.n_fft}, got {delays.max()}"
        )
    return np.exp(-2j * np.pi * np.outer(delays, smap.m) / smap.n_fft)


def _clean_rows(channel: ChannelSpec, base: np.ndarray, rows: slice, out: np.ndarray) -> None:
    """Rows ``rows`` of the clean response into ``out``, from the per-path
    responses ``base``.

    Without gain drift every row is ``gains @ base``. With drift each row
    is summed over the paths in their order, one product per path added to
    the first, so its bytes depend on its symbol index alone and the block
    split changes no bit (a BLAS product does not promise that). An
    overflow shows as a non-finite cell, which the caller's check names.
    """
    gains = channel.gains
    with np.errstate(over="ignore", invalid="ignore"):
        if channel.drift_depth == 0:
            out[...] = gains @ base
            return
        starts = 2 * np.pi * np.arange(len(gains)) / len(gains)
        s = np.arange(rows.start, rows.stop, dtype=np.float64)[:, None]
        modulation = 1 + channel.drift_depth * np.sin(
            2 * np.pi * s / channel.drift_period + starts[None, :]
        )
        weights = gains[None, :] * modulation
        np.multiply(weights[:, :1], base[0], out=out)
        for path in range(1, len(gains)):
            out += weights[:, path, None] * base[path]


def gen_true_csi(channel: ChannelSpec, symbols: int, smap: SubcarrierMap) -> CsiMatrix:
    """Clean channel frequency response over ``symbols`` rows.

    Without gain drift every row is the same response; with drift the
    rows vary only through the per-path gain modulation. Rows are formed
    a row block at a time, with the bytes of the streamed
    :func:`gen_dataset`.
    """
    base = _path_responses(channel, symbols, smap)
    rows = np.empty((symbols, len(smap)), dtype=np.complex128)
    for block in _row_blocks(*rows.shape):
        _clean_rows(channel, base, block, rows[block])
    # Just allocated here: read-only hands it to the matrix uncopied.
    rows.setflags(write=False)
    return CsiMatrix(rows)


def _check_cover(imp: ImpairmentSpec, shape: tuple[int, int]) -> None:
    """Raise unless ``imp`` covers an S x K matrix of clean CSI."""
    if imp.symbols != shape[0]:
        raise ValueError(
            f"impairments cover {imp.symbols} symbols, matrix has {shape[0]}"
        )
    imp.smap._check_length(shape[1])


def _noise_rng(imp: ImpairmentSpec) -> np.random.Generator | None:
    """The one PCG64 stream of the phase noise, or None without noise."""
    if imp.noise_sigma == 0:
        return None
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(imp.seed)))


def _impair_rows(
    phase: np.ndarray,
    rows: slice,
    imp: ImpairmentSpec,
    rng: np.random.Generator | None,
    out: np.ndarray,
    noise: np.ndarray,
) -> None:
    """Rows ``rows`` of the measured phase into ``out``, from those rows of
    the clean ``phase``.

    phase + tilt + gamma (+ noise), summed in the ``out`` buffer that holds
    the tilt; float sums and products do not depend on the order of their
    two operands. The noise is the next ``out.size`` standard normals of
    ``rng``, drawn into the scratch ``noise`` of ``out``'s shape and formed
    as 0.0 + sigma * z, so consecutive row blocks give bit for bit
    ``rng.normal(0.0, sigma, size=(S, K))``. An overflow shows as a
    non-finite cell, which the caller's check names.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(imp.delta_t[rows, None], imp.smap.m, out=out)
        out *= 2 * np.pi / imp.smap.n_fft
        np.add(phase, out, out=out)
        out += imp.gamma[rows, None]
        if rng is not None:
            rng.standard_normal(out=noise)
            noise *= imp.noise_sigma
            noise += 0.0
            out += noise


def apply_impairments(true_csi: CsiMatrix, imp: ImpairmentSpec) -> SynthOutput:
    """Inject the per-symbol phase errors into a clean CSI matrix.

    The clean matrix is split into amplitude and phase, the three error
    terms are added to the phase a row block at a time, and the matrix is
    rebuilt around the untouched amplitude. The returned ``true_csi`` is
    the given matrix, which keeps the amplitude and phase of that split
    for as long as it lives (see the README's "Useful guarantees").
    """
    _check_cover(imp, true_csi.shape)
    amplitude, phase = decompose(true_csi)
    rng = _noise_rng(imp)
    measured = np.empty(true_csi.shape)
    blocks = _row_blocks(*measured.shape)
    noise = np.empty((blocks[0].stop, measured.shape[1]))
    for rows in blocks:
        count = rows.stop - rows.start
        _impair_rows(phase.values[rows], rows, imp, rng, measured[rows], noise[:count])
    del noise  # before the phase matrix checks its cells
    measured.setflags(write=False)
    return SynthOutput(
        true_csi=true_csi,
        measured_csi=recompose(amplitude, PhaseMatrix(measured, Stage.RAW)),
        impairment=imp,
    )


def _write_dataset(channel: ChannelSpec, imp: ImpairmentSpec, symbols: int, out) -> None:
    """Write the pair of :func:`gen_dataset` a row block at a time.

    Each block of clean rows is written to ``<out>.true.csif``, split by
    the decompose rule, impaired, filled back to cartesian values in its
    buffer on every worker and written to ``<out>.meas.csif``. The scratch
    is a few blocks of ``core._BLOCK`` cells whatever S is. A non-finite
    cell raises ``ValueError`` with its global row and column, as the
    in-memory matrices do, and leaves both paths as they were.
    """
    base = _path_responses(channel, symbols, imp.smap)
    shape = (symbols, len(imp.smap))
    _check_cover(imp, shape)
    rng = _noise_rng(imp)
    blocks = _row_blocks(*shape)
    block_shape = (blocks[0].stop, shape[1])
    values = np.empty(block_shape, dtype=np.complex128)
    amplitude, phase, measured, noise = (np.empty(block_shape) for _ in range(4))
    with (
        _csif_writer(f"{out}.true.csif", shape) as write_true,
        _csif_writer(f"{out}.meas.csif", shape) as write_measured,
    ):
        for rows in blocks:
            count = rows.stop - rows.start
            v, a, p, m = values[:count], amplitude[:count], phase[:count], measured[:count]
            _clean_rows(channel, base, rows, v)
            _check_finite(v, "CSI matrix", rows.start)
            write_true(v, rows.start)
            _polar_block(v, a, p)
            _impair_rows(p, rows, imp, rng, m, noise[:count])
            _check_finite(m, "phase matrix", rows.start)
            _fill_cartesian(a, m, "CSI matrix", v, rows.start)
            write_measured(v, rows.start)


def gen_dataset(
    channel: ChannelSpec,
    imp: ImpairmentSpec,
    symbols: int,
    *,
    out: str | Path | None = None,
) -> SynthOutput | None:
    """Generate a clean/measured pair, in memory or straight to CSIF.

    Without ``out`` the pair is returned as a :class:`SynthOutput`. With
    ``out`` it is written to ``<out>.true.csif`` and ``<out>.meas.csif``
    a row block of about ``core._BLOCK`` cells at a time, and nothing is
    returned: no S x K array exists at any point, so the working set
    stays at a few blocks whatever S is. The files hold the bytes that
    ``io.write_csif`` writes for the in-memory pair. Deterministic for a
    given seed and specs.
    """
    if out is not None:
        _write_dataset(channel, imp, symbols, out)
        return None
    true_csi = gen_true_csi(channel, symbols, imp.smap)
    return replace(apply_impairments(true_csi, imp), channel=channel)


def demo_channel() -> ChannelSpec:
    """Three gentle paths with no amplitude nulls on a 64-bin grid."""
    return ChannelSpec(
        paths=(
            (0.0, 1.0 + 0.0j),
            (2.0, 0.3 * np.exp(0.7j)),
            (4.0, 0.15 * np.exp(-1.1j)),
        )
    )


def _draw(rng: np.random.Generator, bounds: tuple[float, float], n: int) -> np.ndarray:
    """n uniform draws from [low, high); a constant range draws nothing."""
    lo, hi = bounds
    if lo == hi:
        return np.full(n, lo)
    return rng.uniform(lo, hi, size=n)


def _seeded_impairments(
    seed: int,
    symbols: int,
    smap: SubcarrierMap,
    delta_bounds: tuple[float, float],
    gamma_bounds: tuple[float, float],
    noise_sigma: float,
) -> ImpairmentSpec:
    """Impairments from one root seed split into two PCG64 streams.

    The first draws delta_t, then gamma; the second, its seed stored on
    the spec, feeds the noise injection, so the two never share a stream.
    """
    param_seed, noise_seed = np.random.SeedSequence(seed).generate_state(2, np.uint64)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(param_seed))))
    delta_t = _draw(rng, delta_bounds, symbols)
    gamma = _draw(rng, gamma_bounds, symbols)
    return ImpairmentSpec(
        delta_t=delta_t,
        gamma=gamma,
        noise_sigma=noise_sigma,
        seed=int(noise_seed),
        smap=smap,
    )


def demo_impairments(
    symbols: int = 1000,
    smap: SubcarrierMap | None = None,
    *,
    seed: int = 0,
    noise_sigma: float = _NOISE_SIGMA,
) -> ImpairmentSpec:
    """Per-symbol lags in [-2, 2] samples and offsets in (-pi, pi].

    Parameters and noise come from two streams split off one root seed.
    """
    if smap is None:
        smap = SubcarrierMap.contiguous(52, n_fft=64)
    return _seeded_impairments(seed, symbols, smap, _DELTA_T_RANGE, _GAMMA_RANGE, noise_sigma)


# ---------------------------------------------------------------------------
# scenario files


def _parse_scenario(text: str, source: str) -> dict[str, tuple[str, str]]:
    """Parse ``key = value`` lines; ``#`` starts a comment. Each key maps to
    where its line is (``<source> line <n>``) and its value."""
    entries: dict[str, tuple[str, str]] = {}
    for n, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise ValueError(f"{source} line {n}: expected 'key = value', got {line!r}")
        if key not in _SCENARIO:
            raise ValueError(
                f"{source} line {n}: unknown key {key!r} "
                f"(known: {', '.join(sorted(_SCENARIO))})"
            )
        if key in entries:
            raise ValueError(f"{source} line {n}: duplicate key {key!r}")
        entries[key] = (f"{source} line {n}", value)
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
    if len(parts) > 2:
        raise ValueError(f"expected a constant or low:high, got {value!r}")
    lo, hi = float(parts[0]), float(parts[-1])
    if hi < lo:
        raise ValueError(f"range {value!r} has its endpoints reversed")
    # Also a constant: inf - inf is nan.
    if not np.isfinite(hi - lo):
        raise ValueError(f"range {value!r} must have finite endpoints and width")
    return lo, hi


# Each scenario key: its parser, and the value a missing key takes.
_SCENARIO = {
    "n_fft": (int, 64),
    "subcarriers": (_parse_subcarriers, np.arange(1, 31)),
    "paths": (_parse_paths, demo_channel().paths),
    "gain_drift_depth": (float, 0.0),
    "gain_drift_period": (float, 0.0),
    "delta_t": (_parse_range, _DELTA_T_RANGE),
    "gamma": (_parse_range, _GAMMA_RANGE),
    "noise_sigma": (float, _NOISE_SIGMA),
}


def load_scenario(
    path: str | Path | None,
    *,
    seed: int,
    symbols: int,
    subcarriers: int | None = None,
) -> tuple[ChannelSpec, ImpairmentSpec]:
    """Channel and impairments from a scenario file of ``key = value`` lines.

    Every key is optional, and ``path=None`` reads as an empty file.
    Missing keys take the demo values: the :func:`demo_channel` paths,
    no gain drift, n_fft 64, subcarriers 1..30, and the
    :func:`demo_impairments` ranges and noise level. A ``subcarriers``
    count K stands for the key ``subcarriers = 1:K`` and replaces the
    file's map. The impairments are drawn from ``seed`` as in
    :func:`demo_impairments`.

    Raises:
        OSError: the file cannot be read.
        ValueError: a line, key or value is malformed, or the values fail
            a check of the specs; the message starts with the file, line
            and key of the malformed value, or of each entry the failing
            check reads.
    """
    entries = {} if path is None else _parse_scenario(Path(path).read_text(), Path(path).name)
    if subcarriers is not None:
        entries["subcarriers"] = ("the subcarriers argument", f"1:{subcarriers}")

    def checked(keys, make, *args, **kwargs):
        """``make(*args, **kwargs)``; a ValueError it raises names where
        the entries ``keys``, which its failing check reads, are set."""
        try:
            return make(*args, **kwargs)
        except ValueError as exc:
            where = " and ".join(f"{entries[key][0]}: {key}" for key in keys if key in entries)
            raise ValueError(f"{where}: {exc}" if where else str(exc)) from None

    v = {key: default for key, (_, default) in _SCENARIO.items()}
    for key, (_, value) in entries.items():
        v[key] = checked((key,), _SCENARIO[key][0], value)
    # Each check runs on the entries it reads alone: the paths before the
    # drift, the noise level after the draws, which no entry can fail.
    channel = checked(("paths",), ChannelSpec, v["paths"])
    channel = checked(("gain_drift_depth", "gain_drift_period"), replace, channel,
                      drift_depth=v["gain_drift_depth"], drift_period=v["gain_drift_period"])
    smap = checked(("subcarriers", "n_fft"), SubcarrierMap, v["subcarriers"], n_fft=v["n_fft"])
    imp = _seeded_impairments(seed, symbols, smap, v["delta_t"], v["gamma"], _NOISE_SIGMA)
    return channel, checked(("noise_sigma",), replace, imp, noise_sigma=v["noise_sigma"])
