"""Diagnostic tables over calibrated phase: gap histograms and profiles.

Three views of how adjacent subcarriers move relative to each other:

* :func:`diff_histogram` bins every signed adjacent-subcarrier
  difference of a calibrated matrix and fits a Gaussian by sample
  moments, the numeric counterpart of a difference-distribution plot.
* :func:`ds_series` computes the per-symbol gap threshold d_s (the
  same statistic the rebuild uses) and groups it by optional labels.
* :func:`exceedance_profile` counts, per subcarrier, how many symbols
  a rebuild flagged there.

Everything here is a pure function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import PhaseMatrix, Stage, _freeze, _require_stage
from .tsfr import TsfrReport, _unwrapped_gap_stats

__all__ = ["Histogram", "DsSeries", "diff_histogram", "ds_series", "exceedance_profile"]


@dataclass(frozen=True)
class Histogram:
    """Binned counts plus moment-fitted Gaussian overlay parameters."""

    bin_edges: np.ndarray
    counts: np.ndarray
    fitted_mean: float
    fitted_std: float

    def __post_init__(self) -> None:
        edges = _freeze(self.bin_edges, np.float64)
        counts = _freeze(self.counts, np.int64)
        if edges.ndim != 1 or counts.ndim != 1 or edges.size != counts.size + 1:
            raise ValueError(
                f"need bins+1 edges for bins counts, got {edges.size} edges "
                f"and {counts.size} counts"
            )
        if not (np.diff(edges) > 0).all():
            raise ValueError("bin edges must be strictly increasing")
        if (counts < 0).any():
            raise ValueError("counts must be non-negative")
        object.__setattr__(self, "bin_edges", edges)
        object.__setattr__(self, "counts", counts)
        if not (np.isfinite(self.fitted_mean) and np.isfinite(self.fitted_std)):
            raise ValueError("fitted moments must be finite")


@dataclass(frozen=True)
class DsSeries:
    """Per-symbol gap thresholds d_s plus optional per-label means."""

    d: np.ndarray
    group_means: dict | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "d", _freeze(self.d, np.float64))


_CALIBRATED = (Stage.CALIBRATED, Stage.TIME_SMOOTHED, Stage.REBUILT)


def diff_histogram(phase: PhaseMatrix, bins: int = 101) -> Histogram:
    """Histogram of all signed adjacent-subcarrier differences.

    The ``bins`` bins span the fitted mean +/- 4 fitted standard
    deviations (a unit span when the spread is zero); differences
    beyond the span land in the outermost bins, so the counts always
    sum to S*(K-1). The overlay Gaussian is fitted by sample moments.
    """
    _require_stage(phase, "diff_histogram", *_CALIBRATED)
    if bins < 1:
        raise ValueError(f"need at least 1 bin, got {bins}")
    diffs = np.diff(phase.values, axis=1).ravel()
    mean = float(diffs.mean())
    std = float(diffs.std())
    half_span = 4 * std if std > 0 else 0.5
    edges = np.linspace(mean - half_span, mean + half_span, bins + 1)
    # Binned in the one index buffer: no second S*(K-1) index array exists.
    idx = np.searchsorted(edges, diffs, side="right")
    idx -= 1
    np.clip(idx, 0, bins - 1, out=idx)
    counts = np.bincount(idx, minlength=bins)
    return Histogram(bin_edges=edges, counts=counts, fitted_mean=mean, fitted_std=std)


def ds_series(phase: PhaseMatrix, labels=None) -> DsSeries:
    """Per-symbol gap threshold d_s, optionally averaged per label.

    Each row is unwrapped and reduced exactly like the rebuild's
    threshold pass, so on the same calibrated matrix this reproduces
    those thresholds bit for bit. Labels (one per symbol, any hashable
    values) add a mean d_s per label, in first-seen order.
    """
    _require_stage(phase, "ds_series", *_CALIBRATED)
    _, _, d = _unwrapped_gap_stats(phase.values)

    groups = None
    if labels is not None:
        labels = list(labels)
        if len(labels) != phase.symbols:
            raise ValueError(
                f"got {len(labels)} labels for {phase.symbols} symbols"
            )
        index: dict = {}
        inverse = np.fromiter(
            (index.setdefault(lb, len(index)) for lb in labels),
            dtype=np.intp,
            count=len(labels),
        )
        groups = {label: float(d[inverse == j].mean()) for label, j in index.items()}
    return DsSeries(d=d, group_means=groups)


def exceedance_profile(report: TsfrReport) -> np.ndarray:
    """Per-subcarrier count of symbols the rebuild flagged there.

    Summing the profile over k gives the total number of flags, the
    same total as summing per-symbol flag counts.
    """
    profile = report.exceedance.sum(axis=0, dtype=np.int64)
    profile.setflags(write=False)
    return profile
