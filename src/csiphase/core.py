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
  ``io.CsifReader`` applies the same rule (``_polar_block``) to each row
  block of a file as it reads it, keeping the amplitude whole or a block
  at a time, so a reader never holds the complex values.
* A matrix from ``recompose`` holds the amplitude and the phase it was
  recomposed from, nothing more. Its principal phase is folded on its
  first ``decompose``; its cartesian values are formed on first read,
  in row blocks of ``_FILL_BLOCK`` cells, so a CSIF write of an unread
  result streams them to the file without ever holding the whole
  complex matrix. Once both views exist, the phase it was recomposed
  from is dropped. A consumer that only decomposes the result never
  pays for the sin/cos of every cell.
* ``shape``, ``symbols`` and ``subcarriers`` never form a view.

Working-set rule for every stage of the package: a stage kernel computes
from a plain float64 array ``src`` into ``out``, which may be ``src``
(the array its caller has just read) or a fresh one, plus at most one
S x K temporary. Passes that are local to one row or one track (the
unwraps, the smoothing correlations, the gap statistics) run a block of
about ``_BLOCK`` cells at a time, so their scratch stays at a few blocks
whatever S is; a matrix of at most ``_BLOCK`` cells runs as one block,
with the same calls as an unblocked pass. A container's arrays stay
read-only for its whole life; a result goes into one uncopied (``_sealed``).

Worker rule: a row-block pass (``_run_blocks``) uses every CPU in the
process's affinity mask. Each of the n workers runs a contiguous share
of the rows in blocks of ``_BLOCK / n`` cells with scratch of its own,
so a pass holds the scratch of one serial pass whatever n is. Every
block is local to its rows, so no byte depends on the CPU count; one
CPU (``taskset -c 0``), or an input of one block, runs the serial pass
on the calling thread. Workers call private kernels only, never a
public function of the package, which a tracer may have wrapped with
state that is not thread-safe.

Flat-pass rule: an elementwise pass along rows runs as one ufunc call
over the C-contiguous buffer of its row block, not as one numpy loop
per row. Adjacent gaps are taken over the whole buffer (``_row_gaps``),
the gap across two rows landing in column 0, which is overwritten
before anything reads it. Only the per-row reductions (sums, means and
the ``cumsum`` of the unwrap's wrap counts) run a row at a time, since
their order sets the output bits; every byte is that of a pass per row.
"""

from __future__ import annotations

import contextvars
import enum
import functools
import os
import queue
import threading
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
    _check_shape(values.shape, name)
    # A row block at a time, so the mask of one block exists, not an S x K one.
    def check(blocks):
        for rows in blocks:
            _check_finite(values[rows], name, rows.start)

    _run_blocks(check, *values.shape)


def _as_row(values, name: str, min_size: int = 1) -> np.ndarray:
    """``values`` as a 1-D float64 row; raise unless it has at least
    ``min_size`` samples and every one is finite. The message names the
    function ``name`` and, for a non-finite sample, its index.

    The one input rule of every per-row function in the package.
    """
    row = np.asarray(values, dtype=np.float64)
    if row.ndim != 1 or row.size < min_size:
        samples = "sample" if min_size == 1 else "samples"
        raise ValueError(
            f"{name} needs a 1-D row of at least {min_size} {samples}, got shape {row.shape}"
        )
    if not np.isfinite(row).all():
        raise ValueError(f"{name} got a non-finite value at index {np.argmin(np.isfinite(row))}")
    return row


def _check_shape(shape: tuple[int, int], name: str) -> None:
    """Raise unless an S x K grid has a row and two columns."""
    s, k = shape
    if s < 1:
        raise ValueError(f"{name} needs at least one symbol row, got {s}")
    if k < 2:
        raise ValueError(f"{name} needs at least two subcarrier columns, got {k}")


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


def _cpus() -> int:
    """The CPUs this process may run on: its affinity mask, where the
    system has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# Threads a row-block pass runs on, the caller's included.
_WORKERS = _cpus()


# Stack of a helper thread, which runs numpy's loops under a few Python
# frames: far less than the usual 8 MiB default, which would be address
# space taken from the arrays of a process under an address-space limit.
# It is set only while a helper starts.
_STACK = 1 << 20


class _Pool:
    """Helper threads that run the tasks of one queue, started as passes
    first need them and kept for later passes."""

    def __init__(self) -> None:
        self.tasks = queue.SimpleQueue()
        self._started = 0
        self._lock = threading.Lock()

    def helpers(self, wanted: int) -> int:
        """Start helpers until ``wanted`` run; return how many of them a
        pass may use: ``wanted``, or fewer when a thread cannot start."""
        with self._lock:
            while self._started < wanted:
                thread = threading.Thread(target=self._serve, name="csiphase-rows", daemon=True)
                try:
                    size = threading.stack_size(_STACK)
                    try:
                        thread.start()
                    finally:
                        threading.stack_size(size)
                except RuntimeError:
                    break
                self._started += 1
            return min(self._started, wanted)

    def _serve(self) -> None:
        while True:
            self.tasks.get()()


_pool = _Pool()


def _new_pool() -> None:
    """A forked child has none of its parent's threads: it starts its own."""
    global _pool
    _pool = _Pool()


os.register_at_fork(after_in_child=_new_pool)


def _run_share(context, task, blocks: list[slice], errors: list, index: int, done) -> None:
    """Run ``task(blocks)`` in ``context``, keep its error in ``errors[index]``
    and report ``index`` as done."""
    try:
        context.run(task, blocks)
    except BaseException as error:
        errors[index] = error
    finally:
        done.put(index)


def _run_blocks(task, rows: int, length: int, block: int | None = None) -> None:
    """Run a row-block pass, ``task(blocks)``, on every worker thread.

    ``task`` runs its own loop over the row slices ``blocks`` and sizes
    its scratch by the first of them; every block it runs is local to its
    rows, so the blocks may run in any order and on any thread. A pass of
    one block (``_row_blocks(rows, length, block)``), or with one
    worker, is one call over those blocks: the serial pass.

    Otherwise the rows are cut into blocks of ``block / n`` cells for
    ``n`` workers, and each worker runs ``task`` on a contiguous share of
    them with its own scratch, so the pass holds the scratch of the serial
    one; rows too long for a worker's share of a block are run by fewer
    workers, or serially. The caller runs the first share and waits for
    the rest, which run in copies of its context, so numpy's ``errstate``
    reaches them. If shares fail, the error of the lowest one is raised:
    as each share runs its rows in order, that is the error the serial
    pass raises, at the first bad row. When no helper thread can start,
    the caller runs every block itself. ``task`` must not start a pass:
    its share would wait for helpers that may all be waiting too.
    """
    cells = _BLOCK if block is None else block
    blocks = _row_blocks(rows, length, cells)
    workers = min(_WORKERS, cells // length)
    if len(blocks) == 1 or workers < 2:
        task(blocks)
        return
    blocks = _row_blocks(rows, length, cells // workers)
    workers = 1 + _pool.helpers(min(workers, len(blocks)) - 1)
    parts = [blocks[i * len(blocks) // workers : (i + 1) * len(blocks) // workers]
             for i in range(workers)]
    errors: list = [None] * workers
    done = queue.SimpleQueue()
    for index in range(1, workers):
        _pool.tasks.put(functools.partial(
            _run_share, contextvars.copy_context(), task, parts[index], errors, index, done
        ))
    _run_share(contextvars.copy_context(), task, parts[0], errors, 0, done)
    for _ in range(workers):
        done.get()
    for error in errors:
        if error is not None:
            raise error


def _cartesian_blocks(
    a: np.ndarray,
    p: np.ndarray,
    name: str,
    out: np.ndarray | None = None,
    first_row: int = 0,
    blocks: list[slice] | None = None,
):
    """Yield ``a*cos(p) + 1j*(a*sin(p))`` in checked row blocks, in order:
    the row slices ``blocks``, by default every row in blocks of
    ``_FILL_BLOCK`` cells.

    Each block is a run of complex rows: rows of ``out`` when it is given,
    otherwise one scratch buffer, sized by the first block, reused for
    every block. A non-finite cell raises ``ValueError`` with its global
    row and column, the rows of ``a`` and ``p`` starting at row
    ``first_row``.

    Filled in place, bit for bit a*cos(p) + 1j*(a*sin(p)), signed zeros
    included. numpy forms 1j*x as (x*0.0 - 0.0) + (x + 0.0)j, and
    subtracting +0.0 changes no bit, so the real part is a*cos(p) + x*0.0
    and the imaginary part x + 0.0. sin and cos fill contiguous buffers,
    not the strided .real/.imag views. Every operation is elementwise, so
    the block size changes no bit.
    """
    if blocks is None:
        blocks = _row_blocks(*a.shape, _FILL_BLOCK)
    shape = (blocks[0].stop - blocks[0].start, a.shape[1])
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
        _check_finite(block, name, first_row + rows.start)
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


def _sealed(container, values: np.ndarray, *args):
    """``container(values, *args)`` around ``values``, an array the caller
    has just computed and alone holds, marked read-only so that the
    container keeps it uncopied."""
    values.setflags(write=False)
    return container(values, *args)


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
    * ``_polar`` is what :func:`decompose` returns: the amplitude and
      the principal phase. A matrix built from values forms it from
      ``abs`` and ``angle`` of its values and holds it beside them, twice
      its payload in all. A recomposed matrix keeps its exact amplitude
      and folds ``_angles`` into (-pi, pi].

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

        def fill(blocks):
            for _ in _cartesian_blocks(self._amplitude, angles, self._what, values, blocks=blocks):
                pass

        _run_blocks(fill, *self.shape, _FILL_BLOCK)
        values.setflags(write=False)
        return self._keep("values", values)

    @functools.cached_property
    def _polar(self) -> tuple[AmplitudeMatrix, PhaseMatrix]:
        """Amplitude and principal phase, formed once."""
        if self._amplitude is None:
            values = self.values
            amplitude, phase = np.empty(self.shape), np.empty(self.shape)

            def split(blocks):
                for rows in blocks:
                    _polar_block(values[rows], amplitude[rows], phase[rows])

            _run_blocks(split, *self.shape)
            return self._keep("_polar", _polar_views(amplitude, phase))
        angles = self._angles
        if angles is None:  # another thread formed both views since this read began
            return vars(self)["_polar"]
        amplitude, phase = self._amplitude, _wrap_pi(angles)
        np.copyto(phase, 0.0, where=amplitude == 0.0)
        return self._keep("_polar", _polar_views(amplitude, phase))

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

    def _write(self, write) -> None:
        """Write the complex values through ``write``, a CSIF payload
        writer (``io._csif_writer``).

        A matrix whose values are formed writes them in one block. An
        unformed one fills checked row blocks of scratch and stays
        unformed: into a pipe in order, and into a regular file on every
        worker (``_run_blocks``), each writing its blocks at their rows.
        """
        angles = self._angles  # read first: once it is dropped, the values exist
        if "values" in vars(self):
            write(self.values)
            return

        def fill(blocks):
            cells = _cartesian_blocks(self._amplitude, angles, self._what, blocks=blocks)
            for rows, block in zip(blocks, cells):
                write(block, rows.start)

        if write.seekable:
            _run_blocks(fill, *self.shape, _FILL_BLOCK)
        else:
            fill(_row_blocks(*self.shape, _FILL_BLOCK))


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

    def _check_length(self, count: int, what: str = "matrix columns") -> None:
        """Raise unless the map has one index per column: ``count`` of them."""
        if len(self) != count:
            raise ValueError(f"subcarrier map length {len(self)} does not match {what} {count}")

    @classmethod
    def contiguous(cls, k: int, n_fft: int | None = None) -> "SubcarrierMap":
        """Map for K contiguous indices 1..K."""
        return cls(np.arange(1, k + 1, dtype=np.int64), n_fft if n_fft is not None else k)


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


def _polar_views(amplitude: np.ndarray, phase: np.ndarray) -> tuple[AmplitudeMatrix, PhaseMatrix]:
    """The decomposed pair, keeping the two arrays uncopied."""
    return _sealed(AmplitudeMatrix, amplitude), _sealed(PhaseMatrix, phase, Stage.RAW)


def _polar_block(values: np.ndarray, a: np.ndarray, p: np.ndarray) -> None:
    """Split complex ``values`` into amplitude ``a`` and principal phase
    ``p``, arrays of their shape.

    This is the one decompose rule for complex values, shared by a
    ``CsiMatrix`` built from values, by ``io.CsifReader``, which applies it
    to the blocks of a file as they are read, and by the streamed
    ``synth.gen_dataset``: ``abs``, then ``angle`` (numpy's own
    ``arctan2(imag, real)``), a -pi angle folded onto +pi (atan2 returns
    -pi when the imaginary part is a negative zero, and the phase lies in
    (-pi, pi]), and the phase of a zero-amplitude cell set to 0. Every
    operation is elementwise, so the block size changes no bit.
    """
    np.abs(values, out=a)
    np.arctan2(values.imag, values.real, out=p)
    np.copyto(p, np.pi, where=p == -np.pi)
    np.copyto(p, 0.0, where=a == 0.0)


def decompose(csi: CsiMatrix) -> tuple[AmplitudeMatrix, PhaseMatrix]:
    """Split a CSI matrix into amplitude and principal phase.

    The phase lies in (-pi, pi]. A zero-magnitude cell has no defined
    phase; its phase is +0.0, never NaN. Zero cells are where the
    amplitude is zero: ``amplitude.values == 0`` is their mask.

    The pair is formed on the first call and kept on ``csi``; later
    calls return the same pair. If ``csi`` was built by
    :func:`recompose`, the exact amplitude it was built from is returned
    with its phase folded into (-pi, pi] (no cartesian round trip), and
    its cartesian values are not formed.

    Returns:
        (amplitude, phase) where ``phase`` is tagged :attr:`Stage.RAW`.
    """
    if not isinstance(csi, CsiMatrix):
        raise TypeError(f"expected CsiMatrix, got {type(csi).__name__}")
    return csi._polar


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
    return _unwrap_axis(_as_row(v, "unwrap"))


def _row_gaps(values: np.ndarray, gaps: np.ndarray | None = None) -> np.ndarray:
    """The adjacent gaps along the last axis of a C-contiguous array, in its
    shape: column j holds ``values[..., j] - values[..., j - 1]`` and
    column 0 holds +0.0.

    The gaps are taken by one subtraction over the array's buffer into the
    flat buffer ``gaps`` (a new one by default), so numpy runs one loop
    over every cell instead of one per row; column 0 then holds the gaps
    across rows, which are overwritten. Those may overflow where no gap of
    a row does, so overflow is not warned of: a caller that needs finite
    gaps checks what it computes from them.
    """
    flat = values.reshape(-1)
    if gaps is None:
        gaps = np.empty(flat.size)
    with np.errstate(over="ignore"):
        np.subtract(flat[1:], flat[:-1], out=gaps[1:])
    gaps = gaps.reshape(values.shape)
    gaps[..., 0] = 0.0
    return gaps


def _unwrap_axis(
    values: np.ndarray,
    out: np.ndarray | None = None,
    first_row: int = 0,
    gaps: np.ndarray | None = None,
) -> np.ndarray:
    """:func:`unwrap` along the last axis, with no input checks.

    Every 1-D slice along the last axis is unwrapped with the same
    elementwise arithmetic as a vector, so it matches ``unwrap`` bit for
    bit: its first sample is kept and every later one is ``values[1:] -
    2*pi * cumsum(ceil((d - pi) / (2*pi)))`` over the adjacent gaps ``d``.
    The result goes to ``out`` (a new C-contiguous array by default), which
    may be ``values`` itself to unwrap in place.

    Finite samples can still be further apart than the float range, or
    their wrap counts add up beyond it. A gap whose unwrapped sample
    overflows raises ``ValueError`` naming its row (``first_row`` is the
    global row of ``values[0]``, for row blocks) and its two columns.

    Every elementwise step runs once over the C-contiguous buffer (numpy
    merges the rows of contiguous operands into one loop), not once per
    row: the gaps go to the flat buffer ``gaps`` (see
    :func:`_row_gaps`; a caller that unwraps many blocks passes one of
    ``values.size`` cells), whose column 0 is +0.0. Its wrap count,
    ``ceil(-1/2)``, is -0.0, which adds nothing to any sum, so ``cumsum``
    along each row gives the running sums of the row's own wrap counts;
    the first column is restored from a copy made before any write. Any
    layout gives the same bytes: the gap subtraction reads a strided
    ``values`` through a C-order copy, and every later step is elementwise,
    so ``out`` may be strided too; the library passes contiguous blocks.

    Fast path: when every gap satisfies |d| < 3, each wrap count
    ``ceil((d - pi) / (2*pi))`` lies in (-1, 0) before rounding, so it is
    -0.0, and so are its running sums and their 2*pi multiples. The full
    formula then reduces to ``values[1:] + 0.0``, which turns a stored
    -0.0 into +0.0 just as subtracting -0.0 does; that is computed
    directly. The condition is tested by two reductions over the gaps, so
    input that fails it pays little extra. Otherwise the same ufuncs run
    in the same order, in place in the one gap buffer.
    """
    if out is None:
        out = np.empty(values.shape)
    first = values[..., 0].copy()
    d = _row_gaps(values, gaps)
    if d.size == 0 or (d.max() < 3.0 and d.min() > -3.0):
        np.add(values, 0.0, out=out)
        out[..., 0] = first
        return out
    d -= np.pi
    d /= _TWO_PI
    np.ceil(d, out=d)
    np.cumsum(d, axis=-1, out=d)
    np.multiply(_TWO_PI, d, out=d)
    np.subtract(values, d, out=out)
    out[..., 0] = first
    if not np.isfinite(out).all():
        _check_gaps(out[..., 1:], "unwrapping", first_row)
    return out


def _unwrap_rows(values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """:func:`_unwrap_axis` of every row of an S x K matrix into ``out``,
    which may be ``values`` itself, a row block at a time on every worker
    (:func:`_run_blocks`)."""

    def unwrap_blocks(blocks):
        for rows in blocks:
            _unwrap_axis(values[rows], out=out[rows], first_row=rows.start)

    _run_blocks(unwrap_blocks, *values.shape)
    return out


def _check_gaps(after: np.ndarray, what: str, first_row: int = 0) -> None:
    """Raise unless every cell of ``after`` is finite.

    Column j of ``after`` comes from the gap between columns j and j + 1
    of its row, so the ``ValueError`` names the first gap that ``what``
    (an "-ing" verb) overflows the float range: its row (``first_row`` is
    the global row of ``after[0]``, for row blocks) and its two columns.
    """
    if not np.isfinite(after).all():
        where = np.argwhere(~np.isfinite(after))[0]
        row, column = (where[-2] if where.size > 1 else 0), where[-1]
        raise ValueError(
            f"{what} the gap between columns {column} and {column + 1} of row "
            f"{first_row + row} (0-based) overflows the float range"
        )

