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

The chain is the paper's: ``lrr`` sanitization, time smoothing, rebuild;
the other methods are prefixes or variants of it. :func:`_run` runs a
method's stage kernels from the raw phase into one S x K array (see the
working-set rule of :mod:`csiphase.core`). The rebuild takes one row
block of symbols at a time: every block is unwrapped across subcarriers
in one call, then its clamps are marked and it is walked, all in place.
The block's clamp masks give its rows of the S x K exceedance marks and
its clamp counts, so beyond a few blocks of scratch no K x S mask,
transposed copy or second phase array exists.

:func:`process` bundles every method behind one entry point and always
hands the untouched amplitude back to the reconstruction, so only the
phase differs between methods. It takes a matrix or a pair, which it
never writes, and runs the stages in a fresh array. The CLI runs
:func:`_run` on the phase it reads, and reads a file's amplitude again
as it writes the output instead of holding it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import core
from .calib import _abscissa, _lrr_rows, _lt_rows
from .core import (
    AmplitudeMatrix,
    CsiMatrix,
    PhaseMatrix,
    Stage,
    SubcarrierMap,
    _as_row,
    _freeze,
    _require_stage,
    _row_blocks,
    _row_gaps,
    _sealed,
    _unwrap_axis,
    _unwrap_rows,
    decompose,
    recompose,
)
from .savgol import _check_window, _smooth_grid, _smooth_rows, _smooth_time

# Not called here, as every method runs its kernels through _run; they stay
# names of this module because perfbench/tracer.py wraps them.
from .calib import lrr_calibrate, lt_calibrate  # noqa: F401
from .savgol import sg_2d, sg_freq, sg_time  # noqa: F401

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


def _gap_stats(
    rows: np.ndarray, gaps: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """mu, sigma and d = mu + sigma of the absolute adjacent gaps (last axis).

    The gaps are taken and made absolute in one pass over the buffer of
    ``rows``, in the flat buffer ``gaps`` (``core._row_gaps``); only the
    means and the deviations from them run a row at a time.
    """
    full = _row_gaps(rows, gaps)
    np.abs(full, out=full)
    mu = full[..., 1:].mean(axis=-1)
    # The squared deviations reuse the gap buffer. No mean reads column 0,
    # but it holds -mu, whose square would overflow (and warn) for gaps
    # beyond 1e154 that no deviation of a row's own gaps need reach.
    full -= np.expand_dims(mu, -1)
    full[..., 0] = 0.0
    np.square(full, out=full)
    sigma = np.sqrt(full[..., 1:].mean(axis=-1))
    return mu, sigma, mu + sigma


def _unwrapped_gap_stats(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_gap_stats` of the unwrapped rows, unwrapped and reduced a
    block of rows at a time, so no S x K gap buffer exists. Each block is
    unwrapped into one reused buffer and its gaps are taken in the unwrap's
    gap buffer; the blocks have half the cells of ``core._BLOCK``, so the
    two buffers together hold one block. The three rows of one read-only
    buffer are returned, for containers to keep uncopied."""
    stats = np.empty((3, rows.shape[0]))
    blocks = _row_blocks(*rows.shape, core._BLOCK // 2)
    unwrapped = np.empty((blocks[0].stop, rows.shape[1]))
    gaps = np.empty(unwrapped.size)
    for block in blocks:
        u = unwrapped[: block.stop - block.start]
        _unwrap_axis(rows[block], out=u, first_row=block.start, gaps=gaps[: u.size])
        stats[:, block] = _gap_stats(u, gaps[: u.size])
    stats.setflags(write=False)
    return stats[0], stats[1], stats[2]


def gap_stats(row: np.ndarray) -> GapThreshold:
    """Gap statistics of one unwrapped calibrated row.

    mu is the mean absolute adjacent gap, sigma the population standard
    deviation of the absolute gaps (both over the K-1 gap positions),
    and d their sum.
    """
    mu, sigma, d = _gap_stats(_as_row(row, "gap_stats", 2))
    return GapThreshold(mu=float(mu), sigma=float(sigma), d=float(d))


def _rebuild_rows(tracks: np.ndarray, d: np.ndarray):
    """Rebuild every symbol against its own threshold, in place.

    ``tracks`` is a writable time-major (K x S) view, in any layout: row k
    holds subcarrier k of every symbol. ``tsfr`` hands it the transpose of
    a row block of its S x K phase, so the block is walked where it lies;
    :func:`rebuild_symbol` one K x 1 track. The walk overwrites
    ``tracks``, keeping the previous source row in a one-row buffer, and
    the gaps are taken a quarter of the subcarriers at a time, so beyond
    the clamp masks of the block no scratch of its size exists.

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
    k_count = tracks.shape[0]
    low = np.zeros(tracks.shape, dtype=bool)
    high = np.zeros(tracks.shape, dtype=bool)
    below = -d
    # The gaps of a quarter of the subcarriers at a time: their buffer takes
    # the bytes of the two masks.
    step = max(1, k_count // 4)
    gaps = np.empty((step, tracks.shape[1]))
    for k in range(1, k_count, step):
        stop = min(k + step, k_count)
        np.subtract(tracks[k:stop], tracks[k - 1 : stop - 1], out=gaps[: stop - k])
        np.less(gaps[: stop - k], below, out=low[k:stop])
        np.greater(gaps[: stop - k], d, out=high[k:stop])
    gap = gaps[0]
    clamped = np.flatnonzero(low.any(axis=1) | high.any(axis=1))
    first = int(clamped[0]) if clamped.size else k_count
    src_prev = tracks[first - 1].copy()
    for k in range(first, k_count):
        prev, out = tracks[k - 1], tracks[k]
        # out_k = phi_k - (phi_{k-1} - out_{k-1}), or out_{k-1} -/+ d where clamped.
        np.subtract(src_prev, prev, out=gap)
        src_prev[...] = out
        np.subtract(out, gap, out=out)
        np.subtract(prev, d, out=out, where=low[k])
        np.add(prev, d, out=out, where=high[k])
    return low, high


def rebuild_symbol(smoothed_row: np.ndarray, d: float) -> np.ndarray:
    """Limit the adjacent gaps of one smoothed row to +/- d.

    See the module docstring for the exact walk. A row already within
    the threshold is returned bit for bit.
    """
    track = _as_row(smoothed_row, "rebuild_symbol")[:, None].copy()
    d = float(d)
    if not np.isfinite(d) or d < 0:
        raise ValueError(f"threshold must be finite and non-negative, got {d}")
    _rebuild_rows(track, np.array([d]))
    return track[:, 0]


def _rebuild(phi: np.ndarray, mu: np.ndarray, sigma: np.ndarray, d: np.ndarray) -> TsfrReport:
    """Rebuild every symbol row of the smoothed phase ``phi`` in place
    against its threshold ``d``, and report it with ``mu`` and ``sigma``;
    the gap buffer of the row unwraps is gone before the marks exist."""
    s, k = phi.shape
    _unwrap_rows(phi, phi)
    exceed = np.empty((s, k), dtype=bool)
    down = np.empty(s, dtype=np.int64)
    up = np.empty(s, dtype=np.int64)
    for rows in _row_blocks(s, k):
        low, high = _rebuild_rows(phi[rows].T, d[rows])
        np.logical_or(low.T, high.T, out=exceed[rows])
        # The masks are disjoint, so the two counts sum to the marks per symbol.
        low.sum(axis=0, out=down[rows])
        high.sum(axis=0, out=up[rows])
        del low, high  # before the next block's are made
    modified = (down + up) / (k - 1)
    # Just allocated here: read-only, the report keeps them uncopied.
    for computed in (exceed, modified, down, up):
        computed.setflags(write=False)
    return TsfrReport(mu=mu, sigma=sigma, d=d, exceedance=exceed, modified_fraction=modified,
                      clamped_down=down, clamped_up=up)


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
    _require_stage(phase, "tsfr", Stage.RAW)
    rebuilt, report = _run("tsfr", phase.values, x=abscissa, order=order, fraction=fraction)
    return _sealed(PhaseMatrix, rebuilt, Stage.REBUILT), report


def _run(method: str, src: np.ndarray, out: np.ndarray | None = None, *,
         m: np.ndarray | None = None, x: np.ndarray | None = None, order: int = 2,
         fraction: float = 0.1, separable: bool = False) -> tuple[np.ndarray, TsfrReport | None]:
    """Run the stage kernels of ``method`` on the raw phase ``src`` in
    ``out``: ``src`` itself where the caller alone holds it, else (None) a
    fresh array. "raw" has no stage and returns ``src``. "lt" fits over
    the indices ``m``, the others by ``lrr`` over the abscissa ``x`` (each
    1..K when None), and smooth with the window of ``order`` and
    ``fraction``, which every method checks. Returns ``(phase, report)``,
    the rebuild's report for "tsfr" and None for the others.
    """
    _check_window(order, fraction)
    if method == "raw":
        return src, None
    if out is None:
        out = np.empty(src.shape)
    k = src.shape[1]
    if method == "lt":
        return _lt_rows(src, out, _abscissa(m, k)), None
    _lrr_rows(src, out, _abscissa(x, k))
    if method == "lrr+sgfreq":
        _smooth_rows(out, None, order, fraction, "frequency axis", out=out)
    elif method == "lrr+sgtime":
        _smooth_time(out, out, None, order, fraction)
    elif method == "lrr+sg2d":
        _smooth_grid(out, out, None, order, fraction, None, separable)
    elif method == "tsfr":
        # The thresholds are those of the calibrated rows, before smoothing.
        stats = _unwrapped_gap_stats(out)
        _smooth_time(out, out, None, order, fraction)
        return out, _rebuild(out, *stats)
    return out, None


class ProcessResult(NamedTuple):
    output: CsiMatrix
    report: TsfrReport | None


def process(
    csi: CsiMatrix | tuple[AmplitudeMatrix, PhaseMatrix],
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
    route in a fresh array, and the result is recomposed with the
    original amplitude, which is handed through untouched; the matrix or
    pair is never written. ``process(reader.read(), ...)`` of an open
    ``io.CsifReader`` gives the bytes of ``process(read_csif(path), ...)``
    without the complex values ever existing whole.

    Args:
        csi: complex CSI matrix, or its decomposed ``(amplitude, phase)``
            pair with a raw-stage phase, as ``decompose`` returns it.
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
    amplitude, phase = csi if isinstance(csi, tuple) else decompose(csi)
    if not (isinstance(amplitude, AmplitudeMatrix) and isinstance(phase, PhaseMatrix)):
        raise TypeError("expected an (AmplitudeMatrix, PhaseMatrix) pair")
    if amplitude.shape != phase.shape:
        raise ValueError(
            f"amplitude shape {amplitude.shape} does not match phase shape {phase.shape}"
        )
    _require_stage(phase, "process", Stage.RAW)
    m = None
    if smap is not None:
        smap._check_length(phase.subcarriers)
        m = smap.m.astype(np.float64)
    phase, report = _run(
        method, phase.values, m=m, x=m if abscissa == "physical" else None, order=sg_order,
        fraction=sg_fraction, separable=separable,
    )
    # recompose keeps the phase's values alone, not its stage tag.
    return ProcessResult(output=recompose(amplitude, _sealed(PhaseMatrix, phase)), report=report)
