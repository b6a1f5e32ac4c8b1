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
  the last ulp on a large fraction of elements). Its cartesian values are
  formed on first read, so a consumer that only decomposes the result
  never pays for the sin/cos of every cell, and are formed in row blocks
  of ``_FILL_BLOCK`` cells, so a CSIF write of an unread result streams
  them to the file without ever holding the whole complex matrix.
* ``unwrap`` removes 2*pi jumps from a phase vector, with the half-open
  convention that a step of exactly -pi unwraps to +pi.

Working-set rule for every stage of the package: a stage allocates its
output plus at most one S x K temporary, and computes in the buffers it
has just allocated. Smoothing by FFT (windows of 32 and more) also holds
the spectrum and inverse transform of its tracks while it runs.
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
    s, k = a.shape
    step = max(1, _FILL_BLOCK // k)
    shape = (min(step, s), k)
    buf, cos = np.empty(shape), np.empty(shape)
    scratch = np.empty(shape, dtype=np.complex128) if out is None else None
    for start in range(0, s, step):
        stop = min(start + step, s)
        rows = stop - start
        block = scratch[:rows] if out is None else out[start:stop]
        a_rows, p_rows = a[start:stop], p[start:stop]
        sin_rows, cos_rows = buf[:rows], cos[:rows]
        np.sin(p_rows, out=sin_rows)
        np.multiply(a_rows, sin_rows, out=block.imag)
        np.multiply(block.imag, 0.0, out=sin_rows)
        np.cos(p_rows, out=cos_rows)
        cos_rows *= a_rows
        np.add(cos_rows, sin_rows, out=block.real)
        block.imag += 0.0
        _check_finite(block, name, start)
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

    A matrix built by :func:`recompose` carries a polar cache: the exact
    amplitude (``_amplitude``) and principal phase (``_phase``), which
    :func:`decompose` returns as they are, and the phase it was
    recomposed from (``_angles``). Its ``values`` are formed from the
    amplitude and ``_angles`` on first read, in checked row blocks, and
    kept read-only, and ``_angles`` is dropped; ``shape``, ``symbols``,
    ``subcarriers``, :func:`decompose` and ``io.write_csif`` never form
    them (the writer streams the same blocks to the file).
    """

    _amplitude = None
    _phase = None
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
        """Read-only complex values, formed once from the polar cache."""
        values = np.empty(self.shape, dtype=np.complex128)
        for _ in _cartesian_blocks(self._amplitude, self._angles, self._what, values):
            pass
        values.setflags(write=False)
        object.__setattr__(self, "_angles", None)
        return values

    def _row_blocks(self):
        """The complex values as consecutive blocks of rows.

        A matrix whose values are formed yields them in one block; an
        unformed one yields checked blocks of one reused scratch buffer
        and stays unformed.
        """
        if "values" in vars(self):
            yield self.values
        else:
            yield from _cartesian_blocks(self._amplitude, self._angles, self._what)


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
    """Map angles into the half-open interval (-pi, pi].

    +pi maps to itself; -pi maps to +pi.
    """
    x = np.asarray(x, dtype=np.float64)
    return x - _TWO_PI * np.ceil((x - np.pi) / _TWO_PI)


def decompose(csi: CsiMatrix) -> tuple[AmplitudeMatrix, PhaseMatrix, list[tuple[int, int]]]:
    """Split a CSI matrix into amplitude and principal phase.

    The phase lies in (-pi, pi]. A zero-magnitude element has no defined
    phase; it is reported as 0 and its (row, column) coordinates are
    collected in the returned warning list instead of producing NaN.

    If ``csi`` was built by :func:`recompose`, the exact amplitude/phase
    pair it was built from is returned (no cartesian round trip), and its
    cartesian values are not formed.

    Returns:
        (amplitude, phase, zero_cells) where ``phase`` is tagged
        :attr:`Stage.RAW` and ``zero_cells`` lists the 0-based coordinates
        of zero-magnitude elements.
    """
    if not isinstance(csi, CsiMatrix):
        raise TypeError(f"expected CsiMatrix, got {type(csi).__name__}")
    if csi._amplitude is not None:
        amp_values = csi._amplitude
        phase_values = csi._phase
        zero = amp_values == 0.0
    else:
        amp_values = np.abs(csi.values)
        phase_values = np.angle(csi.values)
        # atan2 can return -pi when the imaginary part is a negative zero;
        # fold it onto +pi so the (-pi, pi] contract holds.
        np.copyto(phase_values, np.pi, where=phase_values == -np.pi)
        zero = amp_values == 0.0
        np.copyto(phase_values, 0.0, where=zero)
        amp_values.setflags(write=False)
        phase_values.setflags(write=False)
    # Most captures have no zero cell, so the coordinate scan runs only for one.
    zero_cells = [(int(s), int(k)) for s, k in np.argwhere(zero)] if zero.any() else []
    return (
        AmplitudeMatrix(amp_values),
        PhaseMatrix(phase_values, Stage.RAW),
        zero_cells,
    )


def recompose(amplitude: AmplitudeMatrix, phase: PhaseMatrix) -> CsiMatrix:
    """Rebuild a complex CSI matrix as amplitude * exp(j * phase).

    The exact ``amplitude`` array (and the phase folded into (-pi, pi],
    zeroed where the amplitude is zero) is cached on the result, so a
    subsequent :func:`decompose` returns it bit for bit. The cartesian
    ``values`` are formed only when first read, bit for bit
    ``a*cos(p) + 1j*(a*sin(p))``.
    """
    if amplitude.shape != phase.shape:
        raise ValueError(
            f"amplitude shape {amplitude.shape} does not match phase shape {phase.shape}"
        )
    a = amplitude.values
    p = phase.values
    principal = _wrap_pi(p)
    np.copyto(principal, 0.0, where=a == 0.0)
    principal.setflags(write=False)
    # Built without __init__: there are no values to validate until read.
    csi = object.__new__(CsiMatrix)
    vars(csi).update(_amplitude=a, _phase=principal, _angles=p)
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


def _unwrap_axis(values: np.ndarray, axis: int = -1, out: np.ndarray | None = None) -> np.ndarray:
    """:func:`unwrap` along ``axis`` (the last by default), with no input checks.

    Every 1-D slice along ``axis`` is unwrapped with the same elementwise
    arithmetic as a vector, so it matches ``unwrap`` bit for bit: its first
    sample is kept and every later one is ``values[1:] - 2*pi *
    cumsum(ceil((d - pi) / (2*pi)))`` over the adjacent gaps ``d``. The
    result goes to ``out`` (a new array by default), which may be
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
    values = values.swapaxes(axis, -1)
    target = out.swapaxes(axis, -1)
    d = np.diff(values, axis=-1)
    target[..., 0] = values[..., 0]
    if d.size == 0 or (d.max() < 3.0 and d.min() > -3.0):
        np.add(values[..., 1:], 0.0, out=target[..., 1:])
        return out
    d -= np.pi
    d /= _TWO_PI
    np.ceil(d, out=d)
    np.cumsum(d, axis=-1, out=d)
    np.multiply(_TWO_PI, d, out=d)
    np.subtract(values[..., 1:], d, out=target[..., 1:])
    return out
