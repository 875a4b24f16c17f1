"""Small statistical helpers used by experiments and tests."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class ConfidenceInterval:
    """A mean estimate with a symmetric confidence interval."""

    mean: float
    half_width: float
    confidence: float
    num_samples: int

    @property
    def lower(self) -> float:
        return self.mean - self.half_width

    @property
    def upper(self) -> float:
        return self.mean + self.half_width

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper

    def __str__(self) -> str:
        return f"{self.mean:.4g} ± {self.half_width:.2g} ({self.confidence:.0%})"


def mean_confidence_interval(
    samples: Sequence[float], confidence: float = 0.95
) -> ConfidenceInterval:
    """Student-t confidence interval for the mean of i.i.d. samples."""
    from scipy import stats

    data = np.asarray(samples, dtype=float)
    if data.size == 0:
        raise ValueError("need at least one sample")
    mean = float(data.mean())
    if data.size == 1:
        return ConfidenceInterval(mean, math.inf, confidence, 1)
    sem = float(stats.sem(data))
    if sem == 0.0:
        return ConfidenceInterval(mean, 0.0, confidence, data.size)
    half_width = float(sem * stats.t.ppf((1.0 + confidence) / 2.0, data.size - 1))
    return ConfidenceInterval(mean, half_width, confidence, data.size)


def linear_slope(times: Sequence[float], values: Sequence[float]) -> float:
    """Least-squares slope of ``values`` against ``times``; the one trend fit.

    The closed-form simple-regression slope ``cov(t, y) / var(t)``: the line
    a degree-1 least-squares polynomial fit solves for, without the
    rank-checked SVD setup, which dominated the fleet aggregator's per-swarm
    classification.  Zero for fewer than two points or a constant ``times``.
    """
    t = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=float)
    if t.size < 2 or np.ptp(t) == 0:
        return 0.0
    t_centered = t - t.mean()
    return float(np.dot(t_centered, y) / np.dot(t_centered, t_centered))


def trailing_window(values: Sequence[float], fraction: float) -> np.ndarray:
    """The last ``fraction`` of a sequence as an array; the one tail window.

    Every verdict and tail statistic of a run reads the samples it picks.
    """
    if not 0 < fraction <= 1:
        raise ValueError("fraction must lie in (0, 1]")
    data = np.asarray(values, dtype=float)
    start = int(round((1.0 - fraction) * data.size))
    return data[start:]


def empirical_exceedance_probability(
    trajectories: Sequence[Tuple[Sequence[float], Sequence[float]]],
    offset: float,
    slope: float,
) -> float:
    """Fraction of trajectories that ever exceed the line ``offset + slope·t``.

    Each trajectory is a ``(times, values)`` pair; used to compare against the
    Kingman and M/GI/∞ maximal bounds.
    """
    if not trajectories:
        raise ValueError("need at least one trajectory")
    exceed = 0
    for times, values in trajectories:
        t = np.asarray(times, dtype=float)
        v = np.asarray(values, dtype=float)
        if np.any(v >= offset + slope * t):
            exceed += 1
    return exceed / len(trajectories)


def relative_error(measured: float, reference: float) -> float:
    """``|measured − reference| / max(|reference|, eps)``."""
    denominator = max(abs(reference), 1e-12)
    return abs(measured - reference) / denominator


__all__ = [
    "ConfidenceInterval",
    "empirical_exceedance_probability",
    "linear_slope",
    "mean_confidence_interval",
    "relative_error",
    "trailing_window",
]
