"""Two-step filtering and rebuild of calibrated CSI phase.

Time smoothing removes temporal noise from each subcarrier track but can
drag outlier energy across frequency, leaving single-subcarrier spikes
inside a symbol. The rebuild step walks each symbol row left to right
and limits every adjacent phase gap to a per-symbol threshold

    d_s = mu_s + sigma_s,

the mean plus standard deviation of the absolute adjacent gaps of the
*calibrated, pre-smoothing* row. Gaps within the threshold keep their
shape (the running offset introduced by earlier clamps is preserved);
gaps beyond it are clamped to exactly +/- d_s:

    out_1 = phi_1
    out_k = out_{k-1} - d_s                 if phi_k - phi_{k-1} < -d_s
    out_k = out_{k-1} + d_s                 if phi_k - phi_{k-1} > d_s
    out_k = phi_k - (phi_{k-1} - out_{k-1}) otherwise

A row whose gaps all satisfy the threshold passes through bit for bit.

The chain keeps to the package's working-set rule (a stage allocates its
output plus at most one S x K temporary; see :mod:`csiphase.core`): the
calibrated phase is dropped once it is smoothed, and the smoothed phase
stays in the time-major K x S layout the smoother produced, is unwrapped
across subcarriers and rebuilt in place. Only the rebuilt phase and the
exceedance marks are transposed to S x K; the clamp counts are summed
from the K x S masks. Every array handed to a container is one just
allocated, marked read-only, so the container keeps it uncopied.

:func:`process` bundles every calibration route in this package behind
one entry point and always hands the untouched amplitude back to the
reconstruction, so only the phase differs between methods.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .calib import lrr_calibrate, lt_calibrate
from .core import (
    CsiMatrix,
    PhaseMatrix,
    Stage,
    SubcarrierMap,
    _freeze,
    _row_blocks,
    _unwrap_axis,
    _unwrap_blocks,
    decompose,
    recompose,
)
from .savgol import _time_tracks, sg_2d, sg_freq, sg_time

__all__ = [
    "GapThreshold",
    "TsfrReport",
    "gap_stats",
    "rebuild_symbol",
    "tsfr",
    "process",
    "ProcessResult",
    "METHODS",
]

METHODS = ("raw", "lt", "lrr", "lrr+sgfreq", "lrr+sgtime", "lrr+sg2d", "tsfr")


@dataclass(frozen=True)
class GapThreshold:
    """Per-symbol gap statistics: mean, spread and their sum d = mu + sigma."""

    mu: float
    sigma: float
    d: float

    def __post_init__(self) -> None:
        _check_gap_stats(np.float64(self.mu), np.float64(self.sigma), np.float64(self.d))


def _check_gap_stats(mu: np.ndarray, sigma: np.ndarray, d: np.ndarray) -> None:
    """Gap statistics are finite and non-negative, and d is exactly mu + sigma."""
    if not (np.isfinite(mu).all() and np.isfinite(sigma).all()):
        raise ValueError("gap statistics must be finite")
    if (mu < 0).any() or (sigma < 0).any():
        raise ValueError("gap statistics are non-negative by construction")
    total = mu + sigma
    bad = np.flatnonzero(d != total)
    if bad.size:
        s = bad[0]
        raise ValueError(f"d={float(d.flat[s])!r} is not mu + sigma = {float(total.flat[s])!r}")


@dataclass(frozen=True)
class TsfrReport:
    """What the rebuild did to each symbol.

    Attributes:
        mu: per-symbol mean absolute adjacent gap of the calibrated row.
        sigma: per-symbol population standard deviation of those gaps.
        d: per-symbol threshold d_s = mu_s + sigma_s.
        exceedance: S x K boolean marks; (s, k) is set exactly when the
            smoothed row's gap into subcarrier k exceeded d_s (column 0
            has no preceding gap and is never marked).
        modified_fraction: per-symbol fraction of the K-1 gap positions
            that were clamped.
        clamped_down: per-symbol count of gaps clamped at -d_s.
        clamped_up: per-symbol count of gaps clamped at +d_s.
    """

    mu: np.ndarray
    sigma: np.ndarray
    d: np.ndarray
    exceedance: np.ndarray
    modified_fraction: np.ndarray
    clamped_down: np.ndarray
    clamped_up: np.ndarray

    def __post_init__(self) -> None:
        for name, dtype in (("mu", float), ("sigma", float), ("d", float), ("exceedance", bool),
                            ("modified_fraction", float), ("clamped_down", np.int64),
                            ("clamped_up", np.int64)):
            object.__setattr__(self, name, _freeze(getattr(self, name), dtype))
        if self.mu.ndim != 1 or not self.mu.shape == self.sigma.shape == self.d.shape:
            raise ValueError("mu, sigma and d must be 1-D arrays of one length per symbol")
        _check_gap_stats(self.mu, self.sigma, self.d)


def _gap_stats(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """mu, sigma and d = mu + sigma of the absolute adjacent gaps (last axis)."""
    gaps = np.diff(rows, axis=-1)
    np.abs(gaps, out=gaps)
    mu = gaps.mean(axis=-1)
    # The squared deviations reuse the gap buffer.
    gaps -= np.expand_dims(mu, -1)
    np.square(gaps, out=gaps)
    sigma = np.sqrt(gaps.mean(axis=-1))
    return mu, sigma, mu + sigma


def _unwrapped_gap_stats(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_gap_stats` of the unwrapped rows, unwrapped and reduced a
    block of rows at a time, so no S x K gap buffer exists. The three rows
    of one read-only buffer are returned, for containers to keep uncopied."""
    stats = np.empty((3, rows.shape[0]))
    for block in _row_blocks(*rows.shape):
        stats[:, block] = _gap_stats(_unwrap_axis(rows[block]))
    stats.setflags(write=False)
    return stats[0], stats[1], stats[2]


def gap_stats(row: np.ndarray) -> GapThreshold:
    """Gap statistics of one unwrapped calibrated row.

    mu is the mean absolute adjacent gap, sigma the population standard
    deviation of the absolute gaps (both over the K-1 gap positions),
    and d their sum.
    """
    row = np.asarray(row, dtype=np.float64)
    if row.ndim != 1 or row.size < 2:
        raise ValueError(f"need a 1-D row of at least 2 samples, got shape {row.shape}")
    if not np.isfinite(row).all():
        raise ValueError("gap_stats expects finite samples")
    mu, sigma, d = _gap_stats(row)
    return GapThreshold(mu=float(mu), sigma=float(sigma), d=float(d))


def _rebuild_rows(tracks: np.ndarray, d: np.ndarray):
    """Rebuild every symbol against its own threshold, in place.

    ``tracks`` is the time-major (K x S, C-contiguous, writable) layout:
    row k holds subcarrier k of every symbol, so each step of the walk
    reads and writes contiguous memory. The walk overwrites ``tracks``,
    keeping the previous source row in a one-row buffer. The clamp masks
    are marked a block of symbols at a time, so no K x S gap buffer
    exists.

    Vectorized across symbols, sequential across subcarriers; each
    elementwise update evaluates the same IEEE expressions as a scalar
    left-to-right walk, so the result is bit-identical to one. The walk
    starts at the earliest subcarrier any symbol clamps at, and is
    skipped when none clamps: before its first clamp a symbol passes
    through bit for bit, because there ``out_{k-1} == phi_{k-1}``, so the
    carried value is ``phi_k - (phi_{k-1} - phi_{k-1}) == phi_k - 0.0 ==
    phi_k``.

    Returns:
        (low, high): K x S C-contiguous boolean masks of the down- and
        up-clamped positions, time-major like ``tracks`` (row 0 all
        False).
    """
    k_count, s = tracks.shape
    low = np.zeros(tracks.shape, dtype=bool)
    high = np.zeros(tracks.shape, dtype=bool)
    for symbols in _row_blocks(s, k_count):
        eps = tracks[1:, symbols] - tracks[:-1, symbols]
        np.less(eps, -d[symbols], out=low[1:, symbols])
        np.greater(eps, d[symbols], out=high[1:, symbols])
    del eps
    clamped = np.flatnonzero((low | high).any(axis=1))
    first = int(clamped[0]) if clamped.size else k_count
    src_prev = tracks[first - 1].copy()
    for k in range(first, k_count):
        prev = tracks[k - 1]
        carried = tracks[k] - (src_prev - prev)
        src_prev[:] = tracks[k]
        tracks[k] = np.where(low[k], prev - d, np.where(high[k], prev + d, carried))
    return low, high


def rebuild_symbol(smoothed_row: np.ndarray, d: float) -> np.ndarray:
    """Limit the adjacent gaps of one smoothed row to +/- d.

    See the module docstring for the exact walk. A row already within
    the threshold is returned bit for bit.
    """
    row = np.asarray(smoothed_row, dtype=np.float64)
    if row.ndim != 1 or row.size < 1:
        raise ValueError(f"need a non-empty 1-D row, got shape {row.shape}")
    if not np.isfinite(row).all():
        raise ValueError("rebuild_symbol expects finite samples")
    d = float(d)
    if not np.isfinite(d) or d < 0:
        raise ValueError(f"threshold must be finite and non-negative, got {d}")
    if row.size == 1:
        return row.copy()
    track = row[:, None].copy()
    _rebuild_rows(track, np.array([d]))
    return track[:, 0]


def tsfr(
    phase: PhaseMatrix,
    *,
    order: int = 2,
    fraction: float = 0.1,
    abscissa: np.ndarray | None = None,
) -> tuple[PhaseMatrix, TsfrReport]:
    """Full two-step chain: regression calibration, time smoothing, rebuild.

    Args:
        phase: raw-stage phase matrix.
        order: polynomial order of the time smoother.
        fraction: window fraction of S for the time smoother.
        abscissa: optional regression abscissa forwarded to the
            calibration step.

    Returns:
        (rebuilt, report): the rebuilt-stage phase matrix and the
        per-symbol account of what the rebuild did.
    """
    calibrated = lrr_calibrate(phase, abscissa)
    mu, sigma, d = _unwrapped_gap_stats(calibrated.values)
    # sg_time short of its transpose: the time-major tracks the rebuild
    # walks, unwrapped across subcarriers (axis 0) in place.
    tracks = _time_tracks(calibrated, None, order, fraction)
    del calibrated
    if not tracks.flags.writeable:  # degenerate pass-through: the input's own
        tracks = np.array(tracks, order="C")
    _unwrap_blocks(tracks, tracks, axis=0)
    low, high = _rebuild_rows(tracks, d)
    rebuilt = np.ascontiguousarray(tracks.T)
    del tracks
    # The masks are disjoint, so the two counts sum to the marks per symbol.
    down, up = low.sum(axis=0), high.sum(axis=0)
    exceed = np.ascontiguousarray((low | high).T)
    modified = (down + up) / (phase.subcarriers - 1)
    # Just allocated here: read-only hands them to the containers uncopied.
    for handed in (rebuilt, exceed, modified, down, up):
        handed.setflags(write=False)
    report = TsfrReport(
        mu=mu,
        sigma=sigma,
        d=d,
        exceedance=exceed,
        modified_fraction=modified,
        clamped_down=down,
        clamped_up=up,
    )
    return PhaseMatrix(rebuilt, Stage.REBUILT), report


class ProcessResult(NamedTuple):
    output: CsiMatrix
    report: TsfrReport | None


def process(
    csi: CsiMatrix,
    method: str,
    *,
    smap: SubcarrierMap | None = None,
    sg_order: int = 2,
    sg_fraction: float = 0.1,
    abscissa: str = "ordinal",
    separable: bool = False,
) -> ProcessResult:
    """Run one named calibration route end to end on a complex CSI matrix.

    The matrix is decomposed, the phase is pushed through the chosen
    route, and the result is recomposed with the original amplitude,
    which is handed through untouched.

    Args:
        csi: complex CSI matrix.
        method: one of ``METHODS``: "raw" (decompose/recompose only),
            "lt", "lrr", "lrr+sgfreq", "lrr+sgtime", "lrr+sg2d", "tsfr".
        smap: physical subcarrier map; required for "lt" and for the
            physical abscissa, defaulted to contiguous 1..K otherwise.
        sg_order: polynomial order of any smoothing step.
        sg_fraction: window fraction of any smoothing step.
        abscissa: "ordinal" to regress over k = 1..K, "physical" to
            regress over the map indices.
        separable: make "lrr+sg2d" run sequential 1-D passes instead of
            the bivariate fit.

    Returns:
        ProcessResult(output, report); ``report`` is None for every
        method except "tsfr".
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; valid methods: {', '.join(METHODS)}")
    if abscissa not in ("ordinal", "physical"):
        raise ValueError(f"abscissa must be 'ordinal' or 'physical', got {abscissa!r}")
    if abscissa == "physical" and smap is None:
        raise ValueError("the physical abscissa needs a subcarrier map")
    if smap is not None and len(smap) != csi.subcarriers:
        raise ValueError(
            f"subcarrier map length {len(smap)} does not match matrix columns {csi.subcarriers}"
        )

    amplitude, raw, _ = decompose(csi)
    x = smap.m.astype(np.float64) if abscissa == "physical" else None
    report: TsfrReport | None = None

    if method == "raw":
        out_phase = raw
    elif method == "lt":
        out_phase = lt_calibrate(raw, smap if smap is not None else SubcarrierMap.contiguous(csi.subcarriers))
    elif method == "lrr":
        out_phase = lrr_calibrate(raw, x)
    elif method == "lrr+sgfreq":
        out_phase = sg_freq(lrr_calibrate(raw, x), order=sg_order, fraction=sg_fraction)
    elif method == "lrr+sgtime":
        out_phase = sg_time(lrr_calibrate(raw, x), order=sg_order, fraction=sg_fraction)
    elif method == "lrr+sg2d":
        out_phase = sg_2d(
            lrr_calibrate(raw, x), order=sg_order, fraction=sg_fraction, separable=separable
        )
    else:
        out_phase, report = tsfr(raw, order=sg_order, fraction=sg_fraction, abscissa=x)

    return ProcessResult(output=recompose(amplitude, out_phase), report=report)
