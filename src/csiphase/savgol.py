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
track instead of O(S^2). The choice (``_kernel_spectrum``) depends on the
window alone, which keeps ``sg_freq`` and the transposed ``sg_time`` on
the same path. Every FFT correlation, ``sg_2d``'s too, transforms the
tracks and the reversed taps at ``_fast_length(S)`` and keeps samples
w - 1 to S - 1 of the inverse transform of their product
(``_taps_spectra``, ``_valid_correlation``). ``sg_2d`` makes no
per-offset engine calls: one real FFT of every subcarrier track down
time serves its interior, and one of its first and last w_c tracks its
left and right bands, each a sum over subcarrier offsets taken in the
frequency domain. Edge points need only the fit coefficients of their
anchored window: order+1 per track end in 1-D, (order+1)(order+2)/2 per
window along the top and bottom bands of ``sg_2d`` (one einsum), and
order+1 per window along its left and right bands, whose cells sit where
every other term vanishes (the weight spectra of a row block of those
terms at a time, made once for both bands). No w x w or (w_r*w_c)^2
projection matrix is built and no loop runs over cells. Designs are
cached per order and window(s), and their arrays are read-only.

An axis shorter than its window (an explicit ``SgSpec``, or any window
its fraction gives) passes through unchanged, copied into the output,
with one :class:`DegenerateWindowWarning` from ``_warn_degenerate``
naming it and blaming the first caller outside the package.

Each smoother kernel (``_smooth_rows``, ``_smooth_time``,
``_smooth_grid``) writes one S x K array, ``out``, which may be its
input; the public functions pass a fresh one. Every pass runs a block
of about ``core._BLOCK`` cells at a time, so its scratch stays at a few
blocks whatever S is:

* The 1-D passes unwrap each block of rows (tracks for ``sg_time``,
  symbols for ``sg_freq``) into one reused buffer, and correlate and
  edge-fit it straight into the output; the FFT path inverse-transforms
  into that buffer, so no S x K spectrum or inverse transform exists.
* ``sg_2d`` unwraps its grid in the output array, a block of symbol rows
  at a time, writes its left band there and keeps the fits of its other
  three; then it runs its interior over blocks of output tracks whose
  spectra and products fill about two row blocks. A block's windows
  reach w_c - 1 tracks past it; the spectra of that halo are kept for
  the next block, so every track is transformed once, and each block's
  output goes into tracks of the grid it has already transformed.

A matrix of at most ``_BLOCK`` cells is one block of the same pass.
Every step is local to one row or one track and sums by einsum or ufunc,
never by a BLAS call, so no bit depends on the block size or on the BLAS
thread count.
"""

from __future__ import annotations

import functools
import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import core
from .core import (
    _TWO_PI,
    PhaseMatrix,
    Stage,
    _as_row,
    _check_gaps,
    _freeze,
    _require_stage,
    _row_blocks,
    _run_blocks,
    _sealed,
    _unwrap_axis,
    _unwrap_rows,
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


def _valid_correlation(
    product: np.ndarray, w: int, length: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Valid correlation of tracks with w taps from the product of their
    spectra; circular wrap-around only reaches the w - 1 samples it drops.
    The inverse transform goes to ``out`` when given, ``_fast_length(length)``
    columns wide."""
    return np.fft.irfft(product, _fast_length(length), axis=-1, out=out)[..., w - 1 : length]


def _kernel_spectrum(weights: np.ndarray, length: int) -> np.ndarray | None:
    """``_taps_spectra`` of a kernel that correlates tracks of ``length`` by
    FFT, or None for one shorter than ``_FFT_MIN_WINDOW``, which correlates
    them by direct sums: the one place the path is chosen."""
    return _taps_spectra(weights, length) if weights.size >= _FFT_MIN_WINDOW else None


def _correlate_rows(
    arr: np.ndarray,
    weights: np.ndarray,
    pad: int = 0,
    out: np.ndarray | None = None,
    spectrum: np.ndarray | None = None,
    inverse: np.ndarray | None = None,
    product: np.ndarray | None = None,
) -> np.ndarray:
    """Valid correlation of every row of a (signals, length) stack with
    unit column stride with one kernel:
    out[i, pad + j] = sum_p weights[p] * arr[i, j + p].

    The result is ``pad`` columns wider on each side than the valid part,
    and those columns are left unset for the caller to fill. It goes to
    ``out`` when given; otherwise direct sums land straight in a new
    result, and the FFT path allocates it only after its spectrum is gone,
    which keeps its peak lower. The path is the one ``_kernel_spectrum``
    chooses. A caller that correlates many blocks of one length passes
    ``_kernel_spectrum(weights, length)`` in ``spectrum``, and on the FFT
    path a C-contiguous (signals, ``_fast_length(length)``) buffer in
    ``inverse``, which may hold ``arr`` itself: the FFT path
    inverse-transforms into it once ``arr`` is transformed. Such a caller
    may pass a (signals, ``_fast_length(length) // 2 + 1``) complex buffer
    in ``product`` too, which the FFT path takes the rows' spectra in.
    """
    w = weights.size
    length = arr.shape[1]
    shape = (arr.shape[0], length - w + 1 + 2 * pad)
    if spectrum is None:
        spectrum = _kernel_spectrum(weights, length)
    if spectrum is None:
        if out is None:
            out = np.empty(shape)
        # The window view's strides keep numpy off BLAS: each sum runs in order.
        np.matmul(sliding_window_view(arr, w, axis=1), weights, out=out[:, pad : shape[1] - pad])
        return out
    product = np.fft.rfft(arr, _fast_length(length), axis=1, out=product)
    product *= spectrum
    valid = _valid_correlation(product, w, length, inverse)
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
    row = np.ascontiguousarray(v[None, :])
    out = _correlate_rows(row, kernel.coefficients, spec.half)
    _fit_edges(out, row, kernel)
    return out[0]


def _check_window(order: int, fraction: float) -> None:
    """Raise unless order >= 0 and the window fraction is positive and finite."""
    if order < 0:
        raise ValueError(f"polynomial order must be >= 0, got {order}")
    if not 0.0 < fraction < np.inf:
        raise ValueError(f"window fraction must be positive and finite, got {fraction}")


def _window_from_fraction(length: int, order: int, fraction: float) -> int | None:
    """Odd window length for a dimension of the given size, or None if the
    dimension is too short to support any valid window."""
    _check_window(order, fraction)
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


# The package's directory, whose frames a warning does not blame.
_PACKAGE = os.path.dirname(__file__)


def _warn_degenerate(what: str, length: int, spec: SgSpec | None) -> None:
    """Warn that an axis is shorter than the explicit ``spec``, or than any
    window when it is None, blaming the first caller outside the package."""
    window = "any valid window" if spec is None else f"window {spec.window}"
    frame, stacklevel = sys._getframe(1), 2
    while frame is not None and os.path.dirname(frame.f_code.co_filename) == _PACKAGE:
        frame, stacklevel = frame.f_back, stacklevel + 1
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
    out: np.ndarray,
) -> np.ndarray:
    """Unwrap and smooth every row with the window resolved for the row
    length, into ``out``, which may be ``rows`` itself, in any layout. Rows
    too short for the window are copied unchanged, and warned of.

    A block of rows at a time, on every worker (``core._run_blocks``), is
    copied into the worker's reused buffer (a gather, for the strided
    tracks of sg_time) and unwrapped there; its edges are
    fitted and its correlation written into ``out``. For the FFT path the
    buffer is ``_fast_length`` columns wide and takes the block's inverse
    transform over its unwrapped rows, so the block's spectrum is its only
    other scratch; the unwrap takes its gaps in the spectrum's buffer
    before the spectrum is taken there. The unwrapped rows lie packed at
    the start of the buffer, C-contiguous whatever its width, so the
    unwrap runs over one contiguous buffer; they are read only before the
    inverse is written. Each worker allocates the buffer and the spectrum
    once, for its first block, so its scratch is the same through its
    share.
    """
    length = rows.shape[1]
    resolved = _resolve_spec(spec, order, fraction, length)
    if resolved is None:
        _warn_degenerate(what, length, spec)
        out[...] = rows
        return out
    kernel = sg_design(resolved)
    spectrum = _kernel_spectrum(kernel.coefficients, length)
    width = length if spectrum is None else _fast_length(length)

    def smooth(blocks):
        count = blocks[0].stop - blocks[0].start
        scratch = np.empty((count, width))
        products = None if spectrum is None else np.empty((count, width // 2 + 1), np.complex128)
        for block in blocks:
            inverse = scratch[: block.stop - block.start]
            u = inverse.reshape(-1)[: inverse.shape[0] * length].reshape(-1, length)
            u[...] = rows[block]
            # On the FFT path the unwrap takes its gaps in the block's spectrum buffer.
            gaps = None if products is None else products.view(np.float64).reshape(-1)[: u.size]
            _unwrap_axis(u, out=u, first_row=block.start, gaps=gaps)
            _fit_edges(out[block], u, kernel)
            product = None if products is None else products[: u.shape[0]]
            _correlate_rows(u, kernel.coefficients, resolved.half, out[block], spectrum, inverse,
                            product)

    _run_blocks(smooth, *rows.shape)
    return out


def _smooth_time(src: np.ndarray, out: np.ndarray, spec: SgSpec | None, order: int,
                 fraction: float) -> np.ndarray:
    """:func:`sg_time` of ``src`` into ``out``, which may be ``src``."""
    if src.shape[0] < 3:
        raise ValueError(f"time smoothing needs at least 3 symbols, got {src.shape[0]}")
    _smooth_rows(src.T, spec, order, fraction, "time axis", out=out.T)
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
    3) unless an explicit :class:`SgSpec` is given. The tracks are
    smoothed straight into a fresh S x K array.

    Args:
        phase: matrix to smooth; must not already be rebuilt.
        spec: explicit SgSpec; None derives the window from order and fraction.
        order: polynomial order when no explicit spec is given.
        fraction: window fraction of S when no explicit spec is given.

    Returns:
        Time-smoothed-stage matrix of the same shape.
    """
    _require_stage(phase, "sg_time", *_SMOOTHABLE)
    out = _smooth_time(phase.values, np.empty(phase.shape), spec, order, fraction)
    return _sealed(PhaseMatrix, out, Stage.TIME_SMOOTHED)


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
    is a side step, not a position on the time-processing ladder).
    """
    _require_stage(phase, "sg_freq", *_SMOOTHABLE)
    out = _smooth_rows(phase.values, spec, order, fraction, "frequency axis",
                       out=np.empty(phase.shape))
    return _sealed(PhaseMatrix, out, phase.stage)


def _unwrap_grid(values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """An S x K phase grid unwrapped down time and then across
    subcarriers, into ``out``, which may be ``values`` itself.

    Both passes run a block of symbol rows at a time in the S x K layout,
    so no track is gathered. Down time, each block's gaps start from the
    last sample before it, kept as read, and its wrap counts continue the
    running sums the previous block ended with. -0.0 adds nothing, not
    even to -0.0, so every track gets the bytes of one ``_unwrap_axis``
    call along it; a block whose gaps satisfy |d| < 3 has only -0.0 wrap
    counts (see ``_unwrap_axis``) and subtracts its running sums as they
    are.
    """
    k = values.shape[1]
    out[0] = values[0]
    before = values[0].copy()
    wraps = np.full(k, -0.0)
    blocks = _row_blocks(values.shape[0] - 1, k)
    gaps = np.empty((blocks[0].stop, k))
    for block in blocks:
        rows = slice(block.start + 1, block.stop + 1)
        now, d = values[rows], gaps[: block.stop - block.start]
        np.subtract(now[0], before, out=d[0])
        np.subtract(now[1:], now[:-1], out=d[1:])
        before[...] = now[-1]
        if d.max() < 3.0 and d.min() > -3.0:
            np.subtract(now, _TWO_PI * wraps, out=out[rows])
        else:
            d -= np.pi
            d /= _TWO_PI
            np.ceil(d, out=d)
            d[0] += wraps
            np.cumsum(d, axis=0, out=d)
            wraps[...] = d[-1]
            np.multiply(_TWO_PI, d, out=d)
            np.subtract(now, d, out=out[rows])
        if not np.isfinite(out[rows]).all():
            # named as along a track: its symbols are the columns of its row
            _check_gaps(out[1 : rows.stop].T, "unwrapping")
    return _unwrap_rows(out, out)


@functools.lru_cache(maxsize=_DESIGN_CACHE_SIZE)
def _design_2d(
    order: int, w_rows: int, w_cols: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bivariate fit of total degree <= order over a w_rows x w_cols grid.

    Term t of the basis is tr**i * tc**j, i major, so the first order+1
    terms are the powers of tc alone. Returns the per-row factors
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
    out = _smooth_grid(phase.values, np.empty(phase.shape), spec, order, fraction, freq_spec,
                       separable)
    return _sealed(PhaseMatrix, out, Stage.TIME_SMOOTHED)


def _smooth_grid(src: np.ndarray, out: np.ndarray, spec: SgSpec | None, order: int,
                 fraction: float, freq_spec: SgSpec | None, separable: bool) -> np.ndarray:
    """:func:`sg_2d` of ``src`` into ``out``, which may be ``src``."""
    if separable:
        _smooth_time(src, out, spec, order, fraction)
        return _smooth_rows(out, freq_spec, order, fraction, "frequency axis", out=out)
    s, k = src.shape
    if s < 3:
        raise ValueError(f"2-D smoothing needs at least 3 symbols, got {s}")
    row_spec = _resolve_spec(spec, order, fraction, s)
    col_spec = _resolve_spec(freq_spec, row_spec.order if row_spec else order, fraction, k)
    if row_spec is None or col_spec is None:
        failed = ("time axis", s, spec) if row_spec is None else ("frequency axis", k, freq_spec)
        _warn_degenerate(*failed)
        out[...] = src
        return out
    if row_spec.order != col_spec.order:
        raise ValueError(
            f"time and frequency windows must share one polynomial order, "
            f"got {row_spec.order} and {col_spec.order}"
        )

    w_r, w_c = row_spec.window, col_spec.window
    l_r, l_c = row_spec.half, col_spec.half
    # The grid is unwrapped and smoothed in the one S x K array out. Every
    # cell is read before it is written: the left band's fits go in once its
    # tracks are transformed, those of the other three bands are kept until
    # the end, and the interior cells of a track are written once every
    # window that reads it is transformed.
    x = _unwrap_grid(src, out)
    rows, cols, fit = _design_2d(row_spec.order, w_r, w_c)
    nc = k - w_c + 1

    # Edge cells evaluate the fit of the window anchored inside the grid at
    # their own offset. Top and bottom bands: windows over the first and
    # last w_r symbols, sliding across subcarriers, clamped at the corners.
    # C order, as the einsum's sums run in the order of its operands' layout.
    ends = np.array([x[:w_r].T, x[s - w_r :].T], order="C")
    coef = np.einsum("ekrb,trb->ekt", sliding_window_view(ends, w_c, axis=1), fit)
    del ends
    start = np.clip(np.arange(k) - l_c, 0, nc - 1)
    coef = coef[:, start] * cols[np.arange(k) - start]

    # Every other window sums time correlations of its w_c tracks with the
    # columns of some weights. Left and right bands: windows over the first
    # and last w_c subcarriers, sliding down time. Both bands' tracks are
    # transformed first, so the left band's fits go straight into its
    # tracks, and the interior takes the spectra of its first tracks from
    # the band's. A band cell is its window's middle symbol, where each term
    # with a power of the time abscissa has weight 0: adding its +-0.0
    # products to sums that start at +0.0 changes no bit, so only the
    # order + 1 others are fitted.
    n = _fast_length(s)
    first = np.fft.rfft(x[:, :w_c].T, n, axis=1)
    last = np.fft.rfft(x[:, k - w_c :].T, n, axis=1)
    left, right = x[l_r : s - l_r, :l_c], np.zeros((s - 2 * l_r, l_c))
    left[...] = 0.0
    terms = slice(row_spec.order + 1)
    weights = rows[l_r, terms, None] * cols[:, terms].T
    _band_fits((first, last), fit[terms], s, ((weights[:, :l_c], left),
                                              (weights[:, l_c + 1 :], right)))
    del last

    # Interior: the fit evaluated at the window center, in blocks of output
    # tracks. A block's windows reach the w_c - 1 tracks past it (its halo);
    # the spectra of the halo are moved down for the next block, so every
    # track is transformed once. The output of a block goes to tracks it
    # has transformed.
    center = np.einsum("t,t,tab->ab", rows[l_r], cols[l_c], fit)
    halo = w_c - 1
    blocks = _interior_blocks(nc, n, halo, l_c)
    spectra = np.empty((blocks[0].stop + halo, n // 2 + 1), dtype=np.complex128)
    spectra[:halo] = first[:halo]
    del first
    center_spectra = _taps_spectra(center.T, s)
    for block in blocks:
        count = block.stop - block.start
        np.fft.rfft(x[:, block.start + halo : block.stop + halo].T, n, axis=1,
                    out=spectra[halo : halo + count])
        product = _interior_spectra(spectra[: halo + count], center_spectra)
        # No later block reads the spectra of this block's first tracks: the
        # inverse transform goes over them.
        inverse = spectra[:count].view(np.float64)[:, :n]
        x[l_r : s - l_r, l_c + block.start : l_c + block.stop] = _valid_correlation(
            product, w_r, s, inverse
        ).T
        del product
        # count spectra at a time, so that no copy overlaps its source
        for start in range(0, halo, count):
            stop = min(start + count, halo)
            spectra[start:stop] = spectra[count + start : count + stop]
    del spectra, center_spectra

    x[:l_r] = np.einsum("at,kt->ak", rows[:l_r], coef[0])
    x[s - l_r :] = np.einsum("at,kt->ak", rows[l_r + 1 :], coef[1])
    x[l_r : s - l_r, k - l_c :] = right
    return x


def _interior_blocks(tracks: int, n: int, halo: int, min_rows: int) -> list[slice]:
    """Blocks of at least ``min_rows`` of the ``tracks`` interior output
    tracks of ``sg_2d``. A block of c tracks holds the spectra of c + halo
    tracks and the products of c, ``n // 2 + 1`` complex values each: about
    two row blocks of cells together."""
    cells = 2 * (n // 2 + 1)
    return _row_blocks(tracks, 2 * cells, 2 * core._BLOCK - halo * cells, min_rows)


def _band_fits(ends: tuple, fit: np.ndarray, s: int, bands: tuple) -> None:
    """Add the weighted fits of every window over each band's w_c tracks,
    sliding down time, into that band's zeroed output: for each term t in
    turn, ``out[:, c] += coefficients_t * weights[t, c]``, where
    coefficients_t holds term t's fit coefficient at each window position.
    ``einsum("tf,tc->fc")`` sums over t in that order, from +0.0.

    ``ends`` holds each band's track spectra, ``bands`` its (weights, out)
    pair. The weight spectra of as many fit terms as fill about one row
    block are made once for every band; besides them, one band's fits of
    those terms exist at a time.
    """
    for terms in _row_blocks(fit.shape[0], fit.shape[2] * s):
        taps = _taps_spectra(fit[terms].transpose(0, 2, 1), s)
        for spectra, (weights, out) in zip(ends, bands):
            fits = _valid_correlation(np.einsum("bf,tbf->tf", spectra, taps), fit.shape[1], s)
            for i, weight in enumerate(weights[terms]):
                for column, w in zip(out.T, weight):
                    column += fits[i] * w
            del fits
        del taps


def _interior_spectra(spectra: np.ndarray, center_spectra: np.ndarray) -> np.ndarray:
    """Spectra of the interior fits of every window over w_c consecutive
    tracks of ``spectra``, one per window position."""
    windows = sliding_window_view(spectra, center_spectra.shape[0], axis=0)
    return np.einsum("kfb,bf->kf", windows, center_spectra)
