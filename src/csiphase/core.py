"""Core containers and phase primitives for OFDM channel state information.

A CSI record is an S x K complex matrix: S OFDM symbols sampled over time,
K subcarriers across frequency. Rows are time, columns are frequency,
everywhere in this package. All numerical work is done in 64-bit floats
(complex128 for complex payloads); containers are immutable once built.

The free functions here are the plumbing every calibration method shares:

* ``decompose`` splits a complex matrix into amplitude and principal phase.
* ``recompose`` rebuilds a complex matrix from an amplitude/phase pair and
  keeps the exact pair attached so the amplitude survives a processing
  chain bit for bit (re-deriving ``abs()`` from the cartesian values flips
  the last ulp on a large fraction of elements).
* ``unwrap`` removes 2*pi jumps from a phase vector, with the half-open
  convention that a step of exactly -pi unwraps to +pi.

A ``CsiMatrix`` forms each of its views once, when it is first read:

* A matrix built from values (a file read) holds its values. Its polar
  pair, ``abs`` and the principal ``angle``, is formed on its first
  ``decompose`` and kept, so later decomposes return the same arrays;
  a decomposed matrix therefore holds twice its payload while it lives.
* A matrix from ``recompose`` holds the amplitude and the phase it was
  recomposed from, nothing more. Its principal phase is folded on its
  first ``decompose``; its cartesian values are formed on first read,
  in row blocks of ``_FILL_BLOCK`` cells, so a CSIF write of an unread
  result streams them to the file without ever holding the whole
  complex matrix. Once both views exist, the phase it was recomposed
  from is dropped. A consumer that only decomposes the result never
  pays for the sin/cos of every cell.
* ``shape``, ``symbols`` and ``subcarriers`` never form a view.

Working-set rule for every stage of the package: a stage allocates its
output plus at most one S x K temporary, and computes in the buffers it
has just allocated. Passes that are local to one row or one track (the
unwraps, the smoothing correlations, the gap statistics) run a block of
about ``_BLOCK`` cells at a time, so their scratch stays at a few blocks
whatever S is; a matrix of at most ``_BLOCK`` cells runs as one block,
with the same calls as an unblocked pass.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Stage",
    "CsiMatrix",
    "PhaseMatrix",
    "AmplitudeMatrix",
    "SubcarrierMap",
    "decompose",
    "recompose",
    "unwrap",
]

_TWO_PI = 2.0 * np.pi


class Stage(enum.IntEnum):
    """Position of a phase matrix along the processing chain.

    The ordering is meaningful: operations may keep a matrix at its stage
    or advance it, never move it back.
    """

    RAW = 0
    CALIBRATED = 1
    TIME_SMOOTHED = 2
    REBUILT = 3

    @property
    def label(self) -> str:
        return self.name.lower()


def _check_grid(values: np.ndarray, name: str) -> None:
    if values.ndim != 2:
        raise ValueError(f"{name} must be 2-D (symbols x subcarriers), got shape {values.shape}")
    s, k = values.shape
    if s < 1:
        raise ValueError(f"{name} needs at least one symbol row, got {s}")
    if k < 2:
        raise ValueError(f"{name} needs at least two subcarrier columns, got {k}")
    _check_finite(values, name)


def _check_finite(values: np.ndarray, name: str, first_row: int = 0) -> None:
    """Raise unless every cell is finite, naming the first bad one.

    ``first_row`` is the global row of ``values[0]``, for row blocks.
    One boolean mask is built; the bad cell is located only on failure.
    """
    if not np.isfinite(values).all():
        row, column = np.argwhere(~np.isfinite(values))[0]
        raise ValueError(
            f"{name} has a non-finite value at row {first_row + row}, "
            f"column {column} (0-based)"
        )


# Cells the cartesian fill forms per row block: its sin and cos scratch
# stays at two blocks whatever the matrix size.
_FILL_BLOCK = 1 << 14

# Cells a stage's row-block pass (an unwrap, a smoothing correlation, the
# gap statistics) works on at a time: its scratch stays at a few blocks
# whatever the matrix size. Every such pass is local to one row or one
# track, so the block size changes no bit.
_BLOCK = 1 << 16


def _row_blocks(
    rows: int, length: int, block: int | None = None, min_rows: int = 1
) -> list[slice]:
    """Consecutive slices of ``rows`` rows of ``length`` cells, about
    ``block`` (by default ``_BLOCK``) cells and at least ``min_rows`` rows
    each; the last may be short. A matrix of at most that many cells is
    one block."""
    step = max(min_rows, (_BLOCK if block is None else block) // length)
    return [slice(start, min(start + step, rows)) for start in range(0, rows, step)]


def _cartesian_blocks(a: np.ndarray, p: np.ndarray, name: str, out: np.ndarray | None = None):
    """Yield ``a*cos(p) + 1j*(a*sin(p))`` in checked row blocks, in order.

    Each block is a run of complex rows: rows of ``out`` when it is given,
    otherwise one scratch buffer reused for every block. A non-finite
    cell raises ``ValueError`` with its global row and column.

    Filled in place, bit for bit a*cos(p) + 1j*(a*sin(p)), signed zeros
    included. numpy forms 1j*x as (x*0.0 - 0.0) + (x + 0.0)j, and
    subtracting +0.0 changes no bit, so the real part is a*cos(p) + x*0.0
    and the imaginary part x + 0.0. sin and cos fill contiguous buffers,
    not the strided .real/.imag views. Every operation is elementwise, so
    the block size changes no bit.
    """
    blocks = _row_blocks(*a.shape, _FILL_BLOCK)
    shape = (blocks[0].stop, a.shape[1])
    buf, cos = np.empty(shape), np.empty(shape)
    scratch = np.empty(shape, dtype=np.complex128) if out is None else None
    for rows in blocks:
        count = rows.stop - rows.start
        block = scratch[:count] if out is None else out[rows]
        a_rows, p_rows = a[rows], p[rows]
        sin_rows, cos_rows = buf[:count], cos[:count]
        np.sin(p_rows, out=sin_rows)
        np.multiply(a_rows, sin_rows, out=block.imag)
        np.multiply(block.imag, 0.0, out=sin_rows)
        np.cos(p_rows, out=cos_rows)
        cos_rows *= a_rows
        np.add(cos_rows, sin_rows, out=block.real)
        block.imag += 0.0
        _check_finite(block, name, rows.start)
        yield block


def _freeze(values, dtype=None) -> np.ndarray:
    """Read-only C-contiguous array of ``values``, copied unless immutable.

    An input is kept only when nothing can write to it: read-only,
    C-contiguous, of the wanted dtype, and viewing (through read-only
    arrays) memory it owns or immutable ``bytes``, as ``np.frombuffer``
    over a file gives. A read-only view of a writable array is copied.
    Callers mark arrays they have just allocated read-only to hand them over.
    """
    arr = np.asarray(values, dtype=dtype)
    base = arr.base
    while isinstance(base, np.ndarray) and not base.flags.writeable:
        base = base.base
    if arr.flags.writeable or not arr.flags.c_contiguous or not (
        base is None or isinstance(base, bytes)
    ):
        arr = np.array(arr, order="C")
        arr.setflags(write=False)
    return arr


def _require_stage(phase: "PhaseMatrix", op: str, *allowed: Stage) -> None:
    """Raise unless ``phase`` is at one of the ``allowed`` stages."""
    if phase.stage not in allowed:
        labels = "/".join(stage.label for stage in allowed)
        raise ValueError(
            f"{op} needs a {labels}-stage phase matrix, got a {phase.stage.label}-stage one"
        )


@dataclass(frozen=True)
class _Grid:
    """Immutable S x K matrix: validated, frozen ``values`` plus their shape."""

    values: np.ndarray

    _dtype = np.float64
    _what = "matrix"

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=self._dtype)
        _check_grid(values, self._what)
        object.__setattr__(self, "values", _freeze(values))

    @property
    def symbols(self) -> int:
        return self.shape[0]

    @property
    def subcarriers(self) -> int:
        return self.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


@dataclass(frozen=True)
class CsiMatrix(_Grid):
    """Immutable S x K complex CSI matrix.

    Each view is formed once, on its first read, and kept read-only:

    * ``values`` are given to a matrix built from values. A matrix built
      by :func:`recompose` forms them from its amplitude (``_amplitude``)
      and the phase it was recomposed from (``_angles``), in checked row
      blocks.
    * ``_polar`` is what :func:`decompose` returns: the amplitude, the
      principal phase and the zero-magnitude cells. A matrix built from
      values forms it from ``abs`` and ``angle`` of its values and holds
      it beside them, twice its payload in all. A recomposed matrix
      keeps its exact amplitude and folds ``_angles`` into (-pi, pi].

    ``_angles`` is dropped once both views exist. ``shape``, ``symbols``,
    ``subcarriers`` and ``io.write_csif`` form neither view (the writer
    streams the blocks of unformed values to the file).
    """

    _amplitude = None
    _angles = None

    _dtype = np.complex128
    _what = "CSI matrix"

    @property
    def shape(self) -> tuple[int, int]:
        return (self.values if self._amplitude is None else self._amplitude).shape

    # A matrix built from values holds them in its instance dict, which
    # shadows this property; only a recomposed one reaches it.
    @functools.cached_property
    def values(self) -> np.ndarray:
        """Read-only complex values, formed once from the amplitude and ``_angles``."""
        angles = self._angles
        if angles is None:  # another thread formed both views since this read began
            return vars(self)["values"]
        values = np.empty(self.shape, dtype=np.complex128)
        for _ in _cartesian_blocks(self._amplitude, angles, self._what, values):
            pass
        values.setflags(write=False)
        return self._keep("values", values)

    @functools.cached_property
    def _polar(self) -> tuple[AmplitudeMatrix, PhaseMatrix, tuple[tuple[int, int], ...]]:
        """Amplitude, principal phase and zero cells, formed once."""
        if self._amplitude is None:
            amplitude, phase = np.abs(self.values), np.angle(self.values)
            # atan2 can return -pi when the imaginary part is a negative zero;
            # fold it onto +pi so the (-pi, pi] contract holds.
            np.copyto(phase, np.pi, where=phase == -np.pi)
        else:
            angles = self._angles
            if angles is None:  # another thread formed both views since this read began
                return vars(self)["_polar"]
            amplitude, phase = self._amplitude, _wrap_pi(angles)
        zero = amplitude == 0.0
        np.copyto(phase, 0.0, where=zero)
        amplitude.setflags(write=False)
        phase.setflags(write=False)
        # Most captures have no zero cell, so the coordinate scan runs only for one.
        zero_cells = tuple(map(tuple, np.argwhere(zero).tolist())) if zero.any() else ()
        return self._keep(
            "_polar", (AmplitudeMatrix(amplitude), PhaseMatrix(phase, Stage.RAW), zero_cells)
        )

    def _keep(self, name: str, view):
        """Cache ``view`` as ``name`` unless a racing read did first, and
        drop ``_angles`` once both views are cached; return the cached view.

        Each step is one dict operation, and each view stores itself
        before it looks for the other, so of two reads that race, at
        least one sees both views and drops ``_angles``.
        """
        cache = vars(self)
        view = cache.setdefault(name, view)
        if "values" in cache and "_polar" in cache:
            cache.pop("_angles", None)
        return view

    def _row_blocks(self):
        """The complex values as consecutive blocks of rows.

        A matrix whose values are formed yields them in one block; an
        unformed one yields checked blocks of one reused scratch buffer
        and stays unformed.
        """
        angles = self._angles  # read first: once it is dropped, the values exist
        if "values" in vars(self):
            yield self.values
        else:
            yield from _cartesian_blocks(self._amplitude, angles, self._what)


@dataclass(frozen=True)
class PhaseMatrix(_Grid):
    """Immutable S x K phase matrix in radians, tagged with its pipeline stage."""

    stage: Stage = Stage.RAW

    _what = "phase matrix"

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "stage", Stage(self.stage))


@dataclass(frozen=True)
class AmplitudeMatrix(_Grid):
    """Immutable S x K non-negative amplitude matrix.

    The amplitude of a CSI record is never altered by any processing method
    in this package; the same array travels from decomposition to
    recomposition.
    """

    _what = "amplitude matrix"

    def __post_init__(self) -> None:
        super().__post_init__()
        if (self.values < 0).any():
            where = np.argwhere(self.values < 0)[0]
            raise ValueError(
                f"amplitude matrix has a negative value at row {where[0]}, "
                f"column {where[1]} (0-based)"
            )


@dataclass(frozen=True)
class SubcarrierMap:
    """Physical subcarrier indices m_k of the K matrix columns.

    Args:
        m: strictly increasing integer indices, one per column. Indices may
            be negative (centered OFDM numbering is fine).
        n_fft: DFT size N of the underlying OFDM system; must cover the
            index span, N >= max(m) - min(m) + 1.
    """

    m: np.ndarray
    n_fft: int

    def __post_init__(self) -> None:
        m = np.asarray(self.m)
        if m.ndim != 1 or m.size < 2:
            raise ValueError(f"subcarrier map must be a 1-D sequence of at least 2 indices, got shape {m.shape}")
        if not np.issubdtype(m.dtype, np.integer):
            as_int = np.asarray(m, dtype=np.int64)
            if not np.array_equal(as_int, m):
                raise ValueError("subcarrier indices must be integers")
            m = as_int
        m = m.astype(np.int64)
        if (np.diff(m) <= 0).any():
            raise ValueError("subcarrier indices must be strictly increasing")
        n_fft = int(self.n_fft)
        span = int(m[-1] - m[0] + 1)
        if n_fft < span:
            raise ValueError(f"n_fft={n_fft} cannot cover the index span {span}")
        object.__setattr__(self, "m", _freeze(m))
        object.__setattr__(self, "n_fft", n_fft)

    def __len__(self) -> int:
        return int(self.m.size)

    @classmethod
    def contiguous(cls, k: int, n_fft: int | None = None, start: int = 1) -> "SubcarrierMap":
        """Map for K contiguous indices start..start+K-1 (default 1..K)."""
        if k < 2:
            raise ValueError(f"need at least 2 subcarriers, got {k}")
        return cls(np.arange(start, start + k, dtype=np.int64), n_fft if n_fft is not None else k)


def _wrap_pi(x: np.ndarray) -> np.ndarray:
    """Map angles into the half-open interval (-pi, pi], in one new buffer.

    +pi maps to itself; -pi maps to +pi. Bit for bit
    ``x - 2*pi * ceil((x - pi) / (2*pi))``: the same operations in the
    same order, as float multiplication commutes.
    """
    x = np.asarray(x, dtype=np.float64)
    t = np.subtract(x, np.pi)
    t /= _TWO_PI
    np.ceil(t, out=t)
    t *= _TWO_PI
    return np.subtract(x, t, out=t)


def decompose(csi: CsiMatrix) -> tuple[AmplitudeMatrix, PhaseMatrix, list[tuple[int, int]]]:
    """Split a CSI matrix into amplitude and principal phase.

    The phase lies in (-pi, pi]. A zero-magnitude element has no defined
    phase; it is reported as 0 and its (row, column) coordinates are
    collected in the returned warning list instead of producing NaN.

    The pair is formed on the first call and kept on ``csi``; later
    calls return the same matrices. If ``csi`` was built by
    :func:`recompose`, the exact amplitude it was built from is returned
    with its phase folded into (-pi, pi] (no cartesian round trip), and
    its cartesian values are not formed.

    Returns:
        (amplitude, phase, zero_cells) where ``phase`` is tagged
        :attr:`Stage.RAW` and ``zero_cells`` lists the 0-based coordinates
        of zero-magnitude elements.
    """
    if not isinstance(csi, CsiMatrix):
        raise TypeError(f"expected CsiMatrix, got {type(csi).__name__}")
    amplitude, phase, zero_cells = csi._polar
    return amplitude, phase, list(zero_cells)


def _amplitude_of(csi: CsiMatrix) -> np.ndarray:
    """The amplitude :func:`decompose` returns, without folding a phase
    when ``csi`` came from :func:`recompose`: the array it was built from."""
    if csi._amplitude is not None:
        return csi._amplitude
    return decompose(csi)[0].values


def recompose(amplitude: AmplitudeMatrix, phase: PhaseMatrix) -> CsiMatrix:
    """Rebuild a complex CSI matrix as amplitude * exp(j * phase).

    The exact ``amplitude`` and ``phase`` arrays are kept on the result
    and nothing is computed here. A later :func:`decompose` returns the
    amplitude bit for bit with the phase folded into (-pi, pi], zeroed
    where the amplitude is zero; the cartesian ``values`` are formed only
    when first read, bit for bit ``a*cos(p) + 1j*(a*sin(p))``.
    """
    if amplitude.shape != phase.shape:
        raise ValueError(
            f"amplitude shape {amplitude.shape} does not match phase shape {phase.shape}"
        )
    # Built without __init__: there are no values to validate until read.
    csi = object.__new__(CsiMatrix)
    vars(csi).update(_amplitude=amplitude.values, _angles=phase.values)
    return csi


def unwrap(v: np.ndarray) -> np.ndarray:
    """Remove 2*pi discontinuities from a 1-D phase vector.

    The first sample is kept; every later sample is shifted by the integer
    multiple of 2*pi that puts each consecutive difference into (-pi, pi].
    A difference of exactly +pi is kept, one of exactly -pi becomes +pi.
    The pass is idempotent: running it on its own output returns the input
    unchanged, bit for bit.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"unwrap expects a 1-D vector, got shape {v.shape}")
    if v.size == 0:
        raise ValueError("unwrap expects at least one sample")
    if not np.isfinite(v).all():
        raise ValueError(f"non-finite value at index {int(np.argwhere(~np.isfinite(v))[0][0])}")
    return _unwrap_axis(v)


def _unwrap_axis(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """:func:`unwrap` along the last axis, with no input checks.

    Every 1-D slice along the last axis is unwrapped with the same
    elementwise arithmetic as a vector, so it matches ``unwrap`` bit for
    bit: its first sample is kept and every later one is ``values[1:] -
    2*pi * cumsum(ceil((d - pi) / (2*pi)))`` over the adjacent gaps ``d``.
    The result goes to ``out`` (a new array by default), which may be
    ``values`` itself to unwrap in place.

    Fast path: when every gap satisfies |d| < 3, each wrap count
    ``ceil((d - pi) / (2*pi))`` lies in (-1, 0) before rounding, so it is
    -0.0, and so are its running sums and their 2*pi multiples. The full
    formula then reduces to ``values[1:] + 0.0``, which turns a stored
    -0.0 into +0.0 just as subtracting -0.0 does; that is computed
    directly. The condition is tested by two reductions over ``d``, so
    input that fails it pays little extra. Otherwise the same ufuncs run
    in the same order, in place in the one ``d`` buffer.
    """
    if out is None:
        out = np.empty_like(values)
    d = np.diff(values, axis=-1)
    out[..., 0] = values[..., 0]
    if d.size == 0 or (d.max() < 3.0 and d.min() > -3.0):
        np.add(values[..., 1:], 0.0, out=out[..., 1:])
        return out
    d -= np.pi
    d /= _TWO_PI
    np.ceil(d, out=d)
    np.cumsum(d, axis=-1, out=d)
    np.multiply(_TWO_PI, d, out=d)
    np.subtract(values[..., 1:], d, out=out[..., 1:])
    return out


def _unwrap_blocks(values: np.ndarray, out: np.ndarray, axis: int = -1) -> np.ndarray:
    """:func:`_unwrap_axis` of a 2-D array along ``axis`` (0 or -1) into
    ``out``, which may be ``values`` itself, a block of slices at a time:
    the gap buffer stays at one block. Each slice is unwrapped on its own,
    so the result has the bytes of one whole-array call."""
    v, o = (values.T, out.T) if axis == 0 else (values, out)
    for rows in _row_blocks(*v.shape):
        _unwrap_axis(v[rows], out=o[rows])
    return out
