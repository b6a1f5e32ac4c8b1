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
output plus at most one S x K temporary; see :mod:`csiphase.core`) with
one S x K phase array: the one the calibration has just written, a fresh
one or the raw phase's own when that was handed over. The subcarrier
tracks are smoothed over it, and the rebuild then takes one row block
of symbols at a time (see ``core._row_blocks``): every block is
unwrapped across subcarriers in one call, then each block's clamps are
marked and it is walked, all in place. The block's clamp masks give its
rows of the S x K exceedance marks and its clamp counts, so beyond a
few blocks of scratch no K x S mask, transposed copy or second phase
array exists. Every array handed to a container is one just allocated,
marked read-only, so the container keeps it uncopied.

:func:`process` bundles every calibration route in this package behind
one entry point and always hands the untouched amplitude back to the
reconstruction, so only the phase differs between methods. Its phase
half, ``_route``, also serves the CLI, which reads a file's amplitude
again as it writes the output instead of holding it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import core
from .calib import lrr_calibrate, lt_calibrate
from .core import (
    AmplitudeMatrix,
    CsiMatrix,
    PhaseMatrix,
    Stage,
    SubcarrierMap,
    _as_row,
    _freeze,
    _hand_over,
    _require_stage,
    _row_blocks,
    _row_gaps,
    _unwrap_axis,
    _unwrap_rows,
    decompose,
    recompose,
)
from .io import CsifReader
from .savgol import _smooth_rows, sg_2d, sg_freq, sg_time

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


def tsfr(
    phase: PhaseMatrix,
    *,
    order: int = 2,
    fraction: float = 0.1,
    abscissa: np.ndarray | None = None,
) -> tuple[PhaseMatrix, TsfrReport]:
    """Full two-step chain: regression calibration, time smoothing, rebuild.

    Args:
        phase: raw-stage phase matrix; calibrated in its own array when
            its holder handed it over (``core._hand_over``).
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
    s, k = calibrated.shape
    if s < 3:
        raise ValueError(f"time smoothing needs at least 3 symbols, got {s}")
    # Nothing else holds the calibrated matrix: the chain runs in its array.
    phi = _hand_over(calibrated)
    del calibrated
    # sg_time's smoothing of the subcarrier tracks, written over them.
    _smooth_rows(phi.T, None, order, fraction, "time axis", stacklevel=4, out=phi.T)
    # Each block of symbols is unwrapped across subcarriers, then walked, in
    # place; the gap buffer of the unwraps is gone before the marks exist.
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
    # Just allocated here: read-only hands them to the containers uncopied.
    for handed in (phi, exceed, modified, down, up):
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
    return PhaseMatrix(phi, Stage.REBUILT), report


class ProcessResult(NamedTuple):
    output: CsiMatrix
    report: TsfrReport | None


def process(
    csi: CsiMatrix | tuple[AmplitudeMatrix, PhaseMatrix] | CsifReader,
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

    ``process`` writes only into arrays it has allocated or read itself.
    Given an open reader, it reads the pair with ``CsifReader.read`` and
    alone holds the raw phase, so the calibration (``lt``, ``lrr``, and
    the ``lrr`` inside ``tsfr``) runs in that array instead of a fresh
    one. A matrix or pair the caller holds is never written: its phase is
    calibrated into a fresh array. Either way the smoother of
    ``lrr+sgfreq``, ``lrr+sgtime`` and ``lrr+sg2d`` then runs in the
    calibrated array, and every output byte is the same.

    Args:
        csi: complex CSI matrix; its decomposed ``(amplitude, phase)``
            pair with a raw-stage phase, as ``decompose`` returns it; or
            an open ``io.CsifReader`` of a complex CSIF file, whose
            payload is read here, decomposed as it is read, so its
            complex values never exist whole.
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
    if isinstance(csi, tuple):
        amplitude, raw = csi
        if not (isinstance(amplitude, AmplitudeMatrix) and isinstance(raw, PhaseMatrix)):
            raise TypeError("expected an (AmplitudeMatrix, PhaseMatrix) pair")
        if amplitude.shape != raw.shape:
            raise ValueError(
                f"amplitude shape {amplitude.shape} does not match phase shape {raw.shape}"
            )
        _require_stage(raw, "process", Stage.RAW)
    elif isinstance(csi, CsifReader):
        amplitude, raw = csi.read()
        if method != "raw":
            # Only this call holds what it read: the calibration runs in that array.
            _hand_over(raw)
    else:
        amplitude, raw = decompose(csi)
    out_phase, report = _route(
        raw, method, smap=smap, sg_order=sg_order, sg_fraction=sg_fraction,
        abscissa=abscissa, separable=separable,
    )
    return ProcessResult(output=recompose(amplitude, out_phase), report=report)


def _route(
    raw: PhaseMatrix,
    method: str,
    *,
    smap: SubcarrierMap | None,
    sg_order: int,
    sg_fraction: float,
    abscissa: str,
    separable: bool,
) -> tuple[PhaseMatrix, TsfrReport | None]:
    """The phase half of :func:`process`: push the raw-stage phase ``raw``
    through ``method``, with settings :func:`process` has checked.

    A handed-over ``raw`` (``core._hand_over``) is calibrated in its own
    array; otherwise the calibration allocates one. Either way the
    smoother of ``lrr+sgfreq``, ``lrr+sgtime`` and ``lrr+sg2d`` then runs
    in the calibrated array. ``raw`` itself is returned for "raw".

    Returns:
        ``(out_phase, report)``; ``report`` is None for every method
        except "tsfr".
    """
    if smap is not None:
        smap._check_length(raw.subcarriers)

    x = smap.m.astype(np.float64) if abscissa == "physical" else None
    report: TsfrReport | None = None

    if method == "raw":
        out_phase = raw
    elif method == "lt":
        out_phase = lt_calibrate(raw, smap if smap is not None else SubcarrierMap.contiguous(raw.subcarriers))
    elif method == "lrr":
        out_phase = lrr_calibrate(raw, x)
    elif method != "tsfr":
        # Only this call holds the calibrated matrix: the smoother runs in its array.
        calibrated = lrr_calibrate(raw, x)
        _hand_over(calibrated)
        if method == "lrr+sgfreq":
            out_phase = sg_freq(calibrated, order=sg_order, fraction=sg_fraction)
        elif method == "lrr+sgtime":
            out_phase = sg_time(calibrated, order=sg_order, fraction=sg_fraction)
        else:
            out_phase = sg_2d(
                calibrated, order=sg_order, fraction=sg_fraction, separable=separable
            )
    else:
        out_phase, report = tsfr(raw, order=sg_order, fraction=sg_fraction, abscissa=x)

    return out_phase, report
