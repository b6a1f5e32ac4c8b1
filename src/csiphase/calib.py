"""Per-symbol linear phase calibration.

Measured CSI phase carries sampling-clock and carrier-frequency residuals
that are affine across subcarriers: a slope proportional to the timing
offset plus a constant. Two removal strategies are provided, both applied
row by row (one OFDM symbol at a time) after unwrapping the row:

* Linear transformation (``lt_calibrate``): estimate the slope from the
  row endpoints over the physical subcarrier indices,
  eps = (theta_K - theta_1) / (m_K - m_1), and the offset as the row mean
  tau; subtract eps * m_k + tau.

* Linear recursive regression (``lrr_calibrate``): least-squares line
  a * k + b over the ordinal index k = 1..K, then rotate the row by
  alpha = arctan(a) and drop the fit value at the first point:
  out_k = -k * sin(alpha) + theta_k * cos(alpha) - (a + b).
  The rotated row has a least-squares slope of exactly
  -sin(alpha) + a * cos(alpha) = 0, so the linear trend is gone.

Both work a block of rows at a time, on every worker thread
(``core._run_blocks``), and every sum in them is a ufunc reduction along
one row, so no bit depends on the block size, on the worker count or on
the BLAS thread count. The kernels (``_lt_rows``, ``_lrr_rows``) unwrap
and calibrate each block in place in its rows of ``out``, so ``out`` may
be the input itself: the CLI calibrates a capture it reads in the
array read. The public functions calibrate into a fresh array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (PhaseMatrix, Stage, SubcarrierMap, _as_row, _require_stage, _run_blocks,
                   _sealed, _unwrap_axis)

__all__ = [
    "LtFit",
    "RegressionFit",
    "lt_fit",
    "lt_calibrate",
    "regress_symbol",
    "lrr_calibrate",
]


@dataclass(frozen=True)
class LtFit:
    """Endpoint slope and mean offset of one unwrapped symbol row.

    Attributes:
        epsilon: phase slope per physical subcarrier index.
        tau: mean phase of the row.
    """

    epsilon: float
    tau: float


@dataclass(frozen=True)
class RegressionFit:
    """Least-squares line through one unwrapped symbol row over k = 1..K.

    Attributes:
        a: slope.
        b: intercept, mean(theta) - mean(k) * a.
        alpha: rotation angle arctan(a), in (-pi/2, pi/2).
        r1: fit value at the first point, a + b.
    """

    a: float
    b: float
    alpha: float
    r1: float


def _endpoint_line(u: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint slope over the indices ``m`` and mean of ``u`` along its last axis."""
    return (u[..., -1] - u[..., 0]) / (m[-1] - m[0]), u.mean(axis=-1)


def _line_fit(u: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares line a * x + b through ``u`` along its last axis.

    A flat row gets slope exactly 0 and its constant value as intercept.
    A row is flat when no two neighbours differ, which one comparison over
    the buffer of ``u`` tells for every row.
    """
    xc = x - x.mean()
    mean = u.mean(axis=-1, keepdims=True)
    dev = u - mean
    a = np.multiply(dev, xc, out=dev).sum(axis=-1) / (xc @ xc)
    b = mean[..., 0] - x.mean() * a
    cells = u.reshape(-1)
    steps = np.empty(cells.size, dtype=bool)
    np.not_equal(cells[1:], cells[:-1], out=steps[1:])
    flat = ~steps.reshape(u.shape)[..., 1:].any(axis=-1)
    return np.where(flat, 0.0, a), np.where(flat, u[..., 0], b)


def lt_fit(row: np.ndarray, smap: SubcarrierMap) -> LtFit:
    """Fit the endpoint slope and mean offset of one unwrapped row."""
    row = _as_row(row, "lt_fit")
    smap._check_length(row.size, "row length")
    epsilon, tau = _endpoint_line(row, smap.m.astype(np.float64))
    return LtFit(epsilon=float(epsilon), tau=float(tau))


def _lt_rows(src: np.ndarray, out: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Unwrap every row of ``src`` into ``out``, which may be ``src``, and
    subtract its endpoint line over the indices ``m`` and its mean, a
    block of rows at a time on every worker."""

    def calibrate(blocks):
        for block in blocks:
            rows = _unwrap_axis(src[block], out=out[block], first_row=block.start)
            eps, tau = _endpoint_line(rows, m)
            rows -= eps[:, None] * m[None, :]
            rows -= tau[:, None]

    _run_blocks(calibrate, *src.shape)
    return out


def lt_calibrate(phase: PhaseMatrix, smap: SubcarrierMap) -> PhaseMatrix:
    """Remove the endpoint-slope linear trend from every symbol row.

    Each row is unwrapped, then eps_s * m_k + tau_s is subtracted, with
    eps_s the endpoint slope over the physical indices and tau_s the row
    mean. Adding c * m_k + d to a row shifts its output by the constant
    -c * mean(m) only.

    Args:
        phase: raw-stage phase matrix.
        smap: physical indices of the K columns.

    Returns:
        Calibrated-stage phase matrix of the same shape.
    """
    _require_stage(phase, "lt_calibrate", Stage.RAW)
    smap._check_length(phase.subcarriers)
    out = _lt_rows(phase.values, np.empty(phase.shape), smap.m.astype(np.float64))
    return _sealed(PhaseMatrix, out, Stage.CALIBRATED)


def regress_symbol(row: np.ndarray) -> RegressionFit:
    """Least-squares line through one unwrapped row over k = 1..K.

    A constant row comes back with slope exactly 0 and intercept equal to
    the constant.
    """
    row = _as_row(row, "regress_symbol", 2)
    a, b = _line_fit(row, np.arange(1, row.size + 1, dtype=np.float64))
    a, b = float(a), float(b)
    return RegressionFit(a=a, b=b, alpha=float(np.arctan(a)), r1=a + b)


def _abscissa(abscissa, k: int) -> np.ndarray:
    """The regression abscissa over K columns: ``abscissa`` checked, or
    the ordinal index 1..K when it is None."""
    if abscissa is None:
        return np.arange(1, k + 1, dtype=np.float64)
    x = np.asarray(abscissa, dtype=np.float64)
    if x.ndim != 1 or x.size != k:
        raise ValueError(f"abscissa of shape {x.shape} does not match matrix columns {k}")
    if not np.isfinite(x).all() or (np.diff(x) <= 0).any():
        raise ValueError("abscissa must be finite and strictly increasing")
    return x


def _lrr_rows(src: np.ndarray, out: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Unwrap every row of ``src`` into ``out``, which may be ``src``, fit
    its line over the abscissa ``x`` and rotate it out, a block of rows at
    a time on every worker."""

    # -x * sin(alpha) + u * cos(alpha) - r_first, rotated in each block's rows
    # of the unwrapped u (a sum of two floats does not depend on order).
    def calibrate(blocks):
        for block in blocks:
            rows = _unwrap_axis(src[block], out=out[block], first_row=block.start)
            a, b = _line_fit(rows, x)
            alpha = np.arctan(a)
            r_first = a * x[0] + b
            rows *= np.cos(alpha)[:, None]
            rows += -x[None, :] * np.sin(alpha)[:, None]
            rows -= r_first[:, None]

    _run_blocks(calibrate, *src.shape)
    return out


def lrr_calibrate(phase: PhaseMatrix, abscissa: np.ndarray | None = None) -> PhaseMatrix:
    """Rotate every symbol row so its least-squares slope vanishes.

    Each row is unwrapped, fitted with a line a * x + b over the abscissa
    (ordinal k = 1..K unless an explicit abscissa is given), and rotated:

        out = -x * sin(alpha) + theta * cos(alpha) - (a * x_1 + b)

    with alpha = arctan(a). The subtracted constant is the fit value at
    the first point, so a pure line maps to a constant row and the output
    least-squares slope over the same abscissa is zero.

    Args:
        phase: raw-stage phase matrix.
        abscissa: optional length-K regression abscissa (for example the
            physical subcarrier indices of a non-contiguous map). Default
            is the ordinal index 1..K.

    Returns:
        Calibrated-stage phase matrix of the same shape.
    """
    _require_stage(phase, "lrr_calibrate", Stage.RAW)
    x = _abscissa(abscissa, phase.subcarriers)
    return _sealed(PhaseMatrix, _lrr_rows(phase.values, np.empty(phase.shape), x), Stage.CALIBRATED)
