"""Savitzky-Golay polynomial smoothing over time, frequency, or both.

The filter replaces each sample with the value at that sample of a
least-squares polynomial of degree n fitted over a sliding window of
2l+1 points. In the interior that reduces to one fixed convolution
kernel (the fit evaluated at the window center). Near the ends no
samples are invented (Gorry, Anal. Chem. 62(6), 1990): the window is
anchored to the nearest 2l+1 real samples and its fitted polynomial is
evaluated at the point's own abscissa.

``sg_time`` smooths every subcarrier down the time axis, ``sg_freq``
every symbol across frequency (the exact transpose of ``sg_time``), and
``sg_2d`` fits one bivariate polynomial of total degree <= n over a
rectangular time-frequency neighborhood. Window lengths default to a
fraction (0.1) of the filtered dimension, rounded and forced odd.

The 1-D passes run on one row-correlation engine. Windows shorter than
``_FFT_MIN_WINDOW`` are correlated by direct sliding-window sums; longer
ones by real FFT, so a window that grows with S costs O(S log S) per
track instead of O(S^2). The choice depends on the window alone, which
keeps ``sg_freq`` and the transposed ``sg_time`` on the same path. Every
FFT correlation, ``sg_2d``'s too, transforms the tracks and the reversed
taps at ``_fast_length(S)`` and keeps samples w - 1 to S - 1 of the
inverse transform of their product (``_taps_spectra``,
``_valid_correlation``). ``sg_2d`` makes no per-offset engine calls: one
real FFT of every subcarrier track down time serves its interior, and
one of its first and last w_c tracks its left and right bands, each a
sum over subcarrier offsets taken in the frequency domain. Edge points
need only the fit coefficients of their anchored window: order+1 per
track end in 1-D, (order+1)(order+2)/2 per window along the four bands
of ``sg_2d`` (one einsum for the top and bottom, the weight spectra of
every fit term for the left and right). No w x w or (w_r*w_c)^2
projection matrix is built and no loop runs over cells. Designs are
cached per order and window(s), and their arrays are read-only.

An axis shorter than its window (an explicit ``SgSpec``, or any window
its fraction gives) passes through unchanged, a fresh copy in 1-D, with
one :class:`DegenerateWindowWarning` from ``_warn_degenerate`` naming it.

Every pass runs a block of about ``core._BLOCK`` cells at a time, so its
scratch stays at a few blocks whatever S is:

* The 1-D passes unwrap each block of rows (tracks for ``sg_time``,
  symbols for ``sg_freq``) into one reused buffer, and correlate and
  edge-fit it straight into the output; no S x K spectrum or inverse
  transform exists.
* ``sg_2d`` runs its interior over blocks of output tracks. A block's
  windows reach w_c - 1 tracks past it; the spectra of that halo are
  kept for the next block, so every track is transformed once, and each
  block's output goes into the rows of the unwrapped grid it has already
  transformed.

A matrix of at most ``_BLOCK`` cells runs as one block, through the calls
of an unblocked pass. Every step is local to one row or one track and
sums by einsum or ufunc, never by a BLAS call, so no bit depends on the
block size or on the BLAS thread count.
"""

from __future__ import annotations

import functools
import warnings
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import (
    PhaseMatrix,
    Stage,
    _as_row,
    _freeze,
    _handed_over,
    _require_stage,
    _row_blocks,
    _unwrap_axis,
    _unwrap_blocks,
)

__all__ = [
    "SgSpec",
    "SgKernel",
    "DegenerateWindowWarning",
    "sg_design",
    "sg_apply",
    "sg_time",
    "sg_freq",
    "sg_2d",
]


class DegenerateWindowWarning(UserWarning):
    """Input too short for the requested window; data passed through unchanged."""


@dataclass(frozen=True)
class SgSpec:
    """Polynomial order and odd window length of a smoothing pass."""

    order: int
    window: int

    def __post_init__(self) -> None:
        order = int(self.order)
        window = int(self.window)
        if order < 0:
            raise ValueError(f"polynomial order must be >= 0, got {order}")
        if window % 2 == 0:
            raise ValueError(f"window must be odd, got {window}")
        if window < 3:
            raise ValueError(f"window must be at least 3, got {window}")
        if window < order + 1:
            raise ValueError(
                f"window {window} cannot determine a degree-{order} polynomial"
            )
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "window", window)

    @property
    def half(self) -> int:
        return self.window // 2


@dataclass(frozen=True)
class SgKernel:
    """Weights realizing one smoothing pass.

    Attributes:
        spec: the order/window pair the kernel was designed for.
        coefficients: length-w convolution weights for interior points
            (the fit evaluated at the window center).
        fit: (order+1) x w least-squares weights; applied to a window they
            give its polynomial coefficients over the scaled abscissas of
            ``_powers``, which the edge points evaluate at their offset.
    """

    spec: SgSpec
    coefficients: np.ndarray
    fit: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "coefficients", _freeze(self.coefficients, np.float64))
        object.__setattr__(self, "fit", _freeze(self.fit, np.float64))


def _powers(window: int, order: int) -> np.ndarray:
    """window x (order+1) powers of the window abscissas, scaled into
    [-1, 1] for conditioning (the fit is invariant to that scaling)."""
    half = window // 2
    t = (np.arange(window, dtype=np.float64) - half) / max(half, 1)
    return np.vander(t, order + 1, increasing=True)


# Designs and FFT lengths kept per process; a run uses a handful of each.
_DESIGN_CACHE_SIZE = 64


@functools.lru_cache(maxsize=_DESIGN_CACHE_SIZE)
def sg_design(spec: SgSpec) -> SgKernel:
    """Compute the least-squares weights for one order/window pair.

    ``fit`` is the pseudo-inverse of the polynomial basis over the
    window, so ``_powers(w, n)[p] @ fit`` evaluates the fit at offset p;
    the central convolution kernel is that row at the window center.
    Each spec is designed once; the cached kernel's arrays are read-only.
    """
    basis = _powers(spec.window, spec.order)
    fit = np.linalg.pinv(basis)
    return SgKernel(spec=spec, coefficients=basis[spec.half] @ fit, fit=fit)


# Shortest window the engine correlates by FFT rather than by direct sums.
_FFT_MIN_WINDOW = 32


@functools.lru_cache(maxsize=_DESIGN_CACHE_SIZE)
def _fast_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n, a length the real FFT handles quickly."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _taps_spectra(taps: np.ndarray, length: int) -> np.ndarray:
    """Spectra of the reversed taps along the last axis, for tracks of ``length``."""
    return np.fft.rfft(taps[..., ::-1], _fast_length(length), axis=-1)


def _valid_correlation(product: np.ndarray, w: int, length: int) -> np.ndarray:
    """Valid correlation of tracks with w taps from the product of their
    spectra; circular wrap-around only reaches the w - 1 samples it drops."""
    return np.fft.irfft(product, _fast_length(length), axis=-1)[..., w - 1 : length]


def _correlate_rows(
    arr: np.ndarray,
    weights: np.ndarray,
    pad: int = 0,
    out: np.ndarray | None = None,
    spectrum: Callable[[], np.ndarray] | None = None,
) -> np.ndarray:
    """Valid correlation of every row of a C-contiguous (signals, length)
    stack with one kernel: out[i, pad + j] = sum_p weights[p] * arr[i, j + p].

    The result is ``pad`` columns wider on each side than the valid part,
    and those columns are left unset for the caller to fill. It goes to
    ``out`` when given; otherwise direct sums land straight in a new
    result, and the FFT path allocates it only after its spectrum is gone,
    which keeps its peak lower. A caller that correlates many blocks of
    one length passes a cached call of ``_taps_spectra(weights, length)``
    in ``spectrum``, which only the FFT path calls.
    """
    w = weights.size
    length = arr.shape[1]
    shape = (arr.shape[0], length - w + 1 + 2 * pad)
    if w < _FFT_MIN_WINDOW:
        if out is None:
            out = np.empty(shape)
        # The window view's strides keep numpy off BLAS: each sum runs in order.
        np.matmul(sliding_window_view(arr, w, axis=1), weights, out=out[:, pad : shape[1] - pad])
        return out
    product = np.fft.rfft(arr, _fast_length(length), axis=1)
    product *= _taps_spectra(weights, length) if spectrum is None else spectrum()
    valid = _valid_correlation(product, w, length)
    del product
    if out is None:
        out = np.empty(shape)
    out[:, pad : shape[1] - pad] = valid
    return out


def _fit_edges(out: np.ndarray, arr: np.ndarray, kernel: SgKernel) -> None:
    """Fill the first and last half columns of every row of ``out`` from
    the fits of the first and last w samples of that row of ``arr``."""
    w, half = kernel.spec.window, kernel.spec.half
    basis = _powers(w, kernel.spec.order)
    head = np.einsum("rw,cw->rc", arr[:, :w], kernel.fit)
    tail = np.einsum("rw,cw->rc", arr[:, arr.shape[1] - w :], kernel.fit)
    out[:, :half] = np.einsum("rc,pc->rp", head, basis[:half])
    out[:, out.shape[1] - half :] = np.einsum("rc,pc->rp", tail, basis[half + 1 :])


def _apply_stack(
    arr: np.ndarray, kernel: SgKernel, out: np.ndarray | None = None
) -> np.ndarray:
    """Filter each row of a C-contiguous (signals, length) stack, into
    ``out`` when given."""
    out = _correlate_rows(arr, kernel.coefficients, kernel.spec.half, out)
    _fit_edges(out, arr, kernel)
    return out


def sg_apply(v: np.ndarray, spec: SgSpec) -> np.ndarray:
    """Smooth a 1-D vector.

    A vector shorter than the window cannot support the fit; it is
    returned unchanged and a :class:`DegenerateWindowWarning` is issued.
    """
    v = _as_row(v, "sg_apply")
    if v.size < spec.window:
        _warn_degenerate("vector", v.size, spec)
        return v.copy()
    kernel = sg_design(spec)
    return _apply_stack(np.ascontiguousarray(v[None, :]), kernel)[0]


def _window_from_fraction(length: int, order: int, fraction: float) -> int | None:
    """Odd window length for a dimension of the given size, or None if the
    dimension is too short to support any valid window."""
    if not 0.0 < fraction < np.inf:
        raise ValueError(f"window fraction must be positive and finite, got {fraction}")
    # Any fraction >= 1 asks for the whole dimension.
    w = round(min(fraction, 1.0) * length)
    if w % 2 == 0:
        w += 1
    min_w = order + 1 if (order + 1) % 2 == 1 else order + 2
    w = max(w, 3, min_w)
    largest_odd = length if length % 2 == 1 else length - 1
    if w > largest_odd:
        w = largest_odd
    if w < 3 or w < order + 1:
        return None
    return w


def _resolve_spec(
    spec: SgSpec | None, order: int, fraction: float, length: int
) -> SgSpec | None:
    """The explicit spec, or the order and window fraction, as an SgSpec.

    Returns None when the dimension cannot support the window (degenerate
    pass-through case).
    """
    if isinstance(spec, SgSpec):
        return spec if spec.window <= length else None
    if spec is not None:
        raise TypeError(
            f"spec must be an SgSpec or None, got {spec!r}; pass a window fraction as fraction="
        )
    w = _window_from_fraction(length, order, fraction)
    return SgSpec(order, w) if w is not None else None


def _warn_degenerate(what: str, length: int, spec: SgSpec | None, stacklevel: int = 3) -> None:
    """Warn that an axis is shorter than the explicit ``spec``, or than any
    window when it is None; by default the caller's caller is blamed."""
    window = "any valid window" if spec is None else f"window {spec.window}"
    warnings.warn(
        f"{what} of size {length} is shorter than {window}; returning the input unchanged",
        DegenerateWindowWarning,
        stacklevel=stacklevel,
    )


_SMOOTHABLE = (Stage.RAW, Stage.CALIBRATED, Stage.TIME_SMOOTHED)


def _smooth_rows(
    rows: np.ndarray,
    spec: SgSpec | None,
    order: int,
    fraction: float,
    what: str,
    stacklevel: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Unwrap and smooth every row with the window resolved for the row
    length, into ``out``, by default a fresh C-contiguous array. Rows too
    short for the window are copied unchanged, and warned of ``stacklevel``
    frames up.

    ``out`` may be ``rows`` itself, in any layout: the rows are unwrapped
    into scratch, a block at a time, before their output is written.
    """
    length = rows.shape[1]
    resolved = _resolve_spec(spec, order, fraction, length)
    if resolved is None:
        _warn_degenerate(what, length, spec, stacklevel=stacklevel)
        if out is None:
            out = np.empty(rows.shape)
        out[...] = rows
        return out
    kernel = sg_design(resolved)
    blocks = _row_blocks(*rows.shape)
    if len(blocks) == 1:
        # One fresh C-contiguous array receives the unwrap, whatever the layout of rows.
        return _apply_stack(_unwrap_axis(rows, out=np.empty(rows.shape)), kernel, out)
    # Each block is copied into one reused buffer (a gather, for the strided
    # tracks of sg_time), unwrapped there, then correlated and edge-fitted into the output.
    if out is None:
        out = np.empty(rows.shape)
    unwrapped = np.empty((blocks[0].stop, length))
    spectrum = functools.cache(functools.partial(_taps_spectra, kernel.coefficients, length))
    for block in blocks:
        u = unwrapped[: block.stop - block.start]
        u[...] = rows[block]
        _unwrap_axis(u, out=u)
        _correlate_rows(u, kernel.coefficients, resolved.half, out[block], spectrum)
        _fit_edges(out[block], u, kernel)
    return out


def sg_time(
    phase: PhaseMatrix,
    spec: SgSpec | None = None,
    *,
    order: int = 2,
    fraction: float = 0.1,
) -> PhaseMatrix:
    """Smooth every subcarrier track down the time axis.

    Each column is unwrapped, then filtered with a window derived from
    the number of symbols (fraction of S, rounded, forced odd, at least
    3) unless an explicit :class:`SgSpec` is given.

    Args:
        phase: matrix to smooth; must not already be rebuilt.
        spec: explicit SgSpec; None derives the window from order and fraction.
        order: polynomial order when no explicit spec is given.
        fraction: window fraction of S when no explicit spec is given.

    Returns:
        Time-smoothed-stage matrix of the same shape.
    """
    _require_stage(phase, "sg_time", *_SMOOTHABLE)
    s = phase.symbols
    if s < 3:
        raise ValueError(f"time smoothing needs at least 3 symbols, got {s}")
    tracks = _smooth_rows(phase.values.T, spec, order, fraction, "time axis", stacklevel=4)
    out = np.ascontiguousarray(tracks.T)
    out.setflags(write=False)
    return PhaseMatrix(out, Stage.TIME_SMOOTHED)


def sg_freq(
    phase: PhaseMatrix,
    spec: SgSpec | None = None,
    *,
    order: int = 2,
    fraction: float = 0.1,
) -> PhaseMatrix:
    """Smooth every symbol row across frequency.

    The same row pass as ``sg_time``, on the matrix itself instead of its
    transpose: rows are unwrapped and filtered with a window derived from
    the number of subcarriers. The stage tag is kept (frequency smoothing
    is a side step, not a position on the time-processing ladder). A
    handed-over ``phase`` (``core._hand_over``) is smoothed in its own array.
    """
    _require_stage(phase, "sg_freq", *_SMOOTHABLE)
    rows = _smooth_rows(phase.values, spec, order, fraction, "frequency axis", stacklevel=4,
                        out=_handed_over(phase))
    rows.setflags(write=False)
    return PhaseMatrix(rows, phase.stage)


def _unwrap_grid(values: np.ndarray) -> np.ndarray:
    """Time-major (K x S, C-contiguous) copy of an S x K phase grid,
    unwrapped down time and then across subcarriers, in place."""
    x = np.array(values.T, order="C")
    _unwrap_blocks(x, x)
    return _unwrap_blocks(x, x, axis=0)


@functools.lru_cache(maxsize=_DESIGN_CACHE_SIZE)
def _design_2d(
    order: int, w_rows: int, w_cols: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bivariate fit of total degree <= order over a w_rows x w_cols grid.

    Term t of the basis is tr**i * tc**j. Returns the per-row factors
    (w_rows, terms) and per-column factors (w_cols, terms) of the basis,
    and the fit weights (terms, w_rows, w_cols): weights[t] applied to a
    window gives its coefficient on term t, so the fit at grid point
    (a, b) is sum_t rows[a, t] * cols[b, t] * coefficient[t]. Each
    (order, w_rows, w_cols) is designed once; the cached arrays are
    read-only.
    """
    i, j = np.array([(i, j) for i in range(order + 1) for j in range(order + 1 - i)]).T
    rows = _powers(w_rows, order)[:, i]
    cols = _powers(w_cols, order)[:, j]
    basis = (rows[:, None, :] * cols[None, :, :]).reshape(w_rows * w_cols, -1)
    fit = np.linalg.pinv(basis).reshape(-1, w_rows, w_cols)
    return _freeze(rows), _freeze(cols), _freeze(fit)


def sg_2d(
    phase: PhaseMatrix,
    spec: SgSpec | None = None,
    *,
    order: int = 2,
    fraction: float = 0.1,
    freq_spec: "SgSpec | None" = None,
    separable: bool = False,
) -> PhaseMatrix:
    """Smooth with one bivariate polynomial fit per time-frequency cell.

    A polynomial of total degree <= order is least-squares fitted over a
    rectangular window (time window derived from S, frequency window from
    K, each as in the 1-D filters) and evaluated at the cell. Edge cells
    anchor the window inside the matrix and evaluate the fit at their own
    offset, mirroring the 1-D edge policy. Columns are unwrapped first,
    then rows.

    Args:
        phase: matrix to smooth; must not already be rebuilt.
        spec: explicit SgSpec for the time window.
        order: polynomial total degree when no explicit spec is given.
        fraction: per-dimension window fraction when no spec is given.
        freq_spec: explicit SgSpec for the frequency window (order must
            match the time spec).
        separable: run sequential 1-D passes (time, then frequency)
            instead of the bivariate fit.

    Returns:
        Time-smoothed-stage matrix of the same shape.
    """
    _require_stage(phase, "sg_2d", *_SMOOTHABLE)
    if separable:
        return sg_freq(sg_time(phase, spec, order=order, fraction=fraction),
                       freq_spec, order=order, fraction=fraction)
    s, k = phase.shape
    if s < 3:
        raise ValueError(f"2-D smoothing needs at least 3 symbols, got {s}")
    row_spec = _resolve_spec(spec, order, fraction, s)
    col_spec = _resolve_spec(freq_spec, row_spec.order if row_spec else order, fraction, k)
    if row_spec is None or col_spec is None:
        failed = ("time axis", s, spec) if row_spec is None else ("frequency axis", k, freq_spec)
        _warn_degenerate(*failed)
        return PhaseMatrix(phase.values, Stage.TIME_SMOOTHED)
    if row_spec.order != col_spec.order:
        raise ValueError(
            f"time and frequency windows must share one polynomial order, "
            f"got {row_spec.order} and {col_spec.order}"
        )

    w_r, w_c = row_spec.window, col_spec.window
    l_r, l_c = row_spec.half, col_spec.half
    # Time runs along the rows of x: one subcarrier track per row.
    x = _unwrap_grid(phase.values)
    rows, cols, fit = _design_2d(row_spec.order, w_r, w_c)
    nc = k - w_c + 1

    # Edge cells evaluate the fit of the window anchored inside the grid at
    # their own offset. Top and bottom bands: windows over the first and
    # last w_r symbols, sliding across subcarriers, clamped at the corners.
    ends = np.stack([x[:, :w_r], x[:, s - w_r :]])
    coef = np.einsum("ekrb,trb->ekt", sliding_window_view(ends, w_c, axis=1), fit)
    del ends
    start = np.clip(np.arange(k) - l_c, 0, nc - 1)
    coef = coef[:, start] * cols[np.arange(k) - start]

    # Every other window sums time correlations of its w_c tracks with the
    # columns of some weights. Left and right bands: windows over the first
    # and last w_c subcarriers, sliding down time; one spectrum per fit term.
    n = _fast_length(s)
    fit_spectra = _taps_spectra(fit.transpose(0, 2, 1), s)
    sides = []
    for end in (x[:w_c], x[k - w_c :]):
        band = np.einsum("bf,tbf->tf", np.fft.rfft(end, n, axis=1), fit_spectra)
        sides.append(_valid_correlation(band, w_r, s))
    del fit_spectra, band, end  # end views x, which the one-block interior frees
    left = np.einsum("tf,tc->fc", sides[0], rows[l_r, :, None] * cols[:l_c].T)
    right = np.einsum("tf,tc->fc", sides[1], rows[l_r, :, None] * cols[l_c + 1 :].T)
    del sides

    # Interior: the fit evaluated at the window center, in blocks of output
    # tracks, each spanning at least the w_c - 1 tracks its windows reach
    # past it (its halo).
    center = np.einsum("t,t,tab->ab", rows[l_r], cols[l_c], fit)
    halo = w_c - 1
    blocks = _row_blocks(nc, s, min_rows=halo)
    if len(blocks) == 1:
        # x goes before the center spectra exist, which keeps the peak lower.
        spectra = np.fft.rfft(x, n, axis=1)
        del x
        product = _interior_spectra(spectra, _taps_spectra(center.T, s))
        del spectra
        interior = _valid_correlation(product, w_r, s)
    else:
        # The spectra of a block's halo are kept for the next block, so
        # every track is transformed once; the block's output tracks go
        # into the rows of x it has already transformed.
        center_spectra = _taps_spectra(center.T, s)
        spectra = np.empty((blocks[0].stop + halo, n // 2 + 1), dtype=np.complex128)
        np.fft.rfft(x[:halo], n, axis=1, out=spectra[:halo])
        for block in blocks:
            count = block.stop - block.start
            np.fft.rfft(x[block.start + halo : block.stop + halo], n, axis=1,
                        out=spectra[halo : halo + count])
            product = _interior_spectra(spectra[: halo + count], center_spectra)
            x[block, : s - w_r + 1] = _valid_correlation(product, w_r, s)
            spectra[:halo] = spectra[count : count + halo]
        interior = x[:nc, : s - w_r + 1]
        del spectra, x, center_spectra
    del product

    out = np.empty((s, k))
    out[:l_r] = np.einsum("at,kt->ak", rows[:l_r], coef[0])
    out[s - l_r :] = np.einsum("at,kt->ak", rows[l_r + 1 :], coef[1])
    out[l_r : s - l_r, :l_c] = left
    out[l_r : s - l_r, k - l_c :] = right
    out[l_r : s - l_r, l_c : k - l_c] = interior.T
    del interior, left, right
    out.setflags(write=False)
    return PhaseMatrix(out, Stage.TIME_SMOOTHED)


def _interior_spectra(spectra: np.ndarray, center_spectra: np.ndarray) -> np.ndarray:
    """Spectra of the interior fits of every window over w_c consecutive
    tracks of ``spectra``, one per window position."""
    windows = sliding_window_view(spectra, center_spectra.shape[0], axis=0)
    return np.einsum("kfb,bf->kf", windows, center_spectra)
