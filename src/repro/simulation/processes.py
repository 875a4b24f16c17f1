"""Point-process utilities: compound Poisson and Kingman's bound.

These back the appendix results used in the transience proof:

* :class:`CompoundPoissonProcess` — batches arriving at Poisson times, the
  object of Kingman's moment bound (Proposition 20); the ABS download-counting
  process ``D̂̂`` is of this form.
* :func:`kingman_exceedance_bound` — that bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .rng import SeedLike, make_rng, poisson_arrival_times


@dataclass
class CompoundPoissonSample:
    """One sampled path of a compound Poisson process on ``[0, horizon]``."""

    arrival_times: np.ndarray
    batch_sizes: np.ndarray

    def cumulative_at(self, times: Sequence[float]) -> np.ndarray:
        """Cumulative count at each query time."""
        queries = np.asarray(times, dtype=float)
        if self.arrival_times.size == 0:
            return np.zeros_like(queries)
        cumulative = np.cumsum(self.batch_sizes)
        indices = np.searchsorted(self.arrival_times, queries, side="right")
        result = np.zeros_like(queries)
        positive = indices > 0
        result[positive] = cumulative[indices[positive] - 1]
        return result

    @property
    def total(self) -> float:
        return float(self.batch_sizes.sum())


class CompoundPoissonProcess:
    """Compound Poisson process with a caller-supplied batch-size sampler.

    ``batch_sampler(rng, count)`` must return ``count`` i.i.d. batch sizes.
    ``batch_mean`` and ``batch_second_moment`` are needed only for the
    analytic Kingman bound; they can be estimated if not supplied.
    """

    def __init__(
        self,
        rate: float,
        batch_sampler: Callable[[np.random.Generator, int], np.ndarray],
        batch_mean: Optional[float] = None,
        batch_second_moment: Optional[float] = None,
    ):
        if rate < 0:
            raise ValueError(f"rate must be nonnegative, got {rate}")
        self.rate = rate
        self._sampler = batch_sampler
        self.batch_mean = batch_mean
        self.batch_second_moment = batch_second_moment

    @classmethod
    def with_constant_batches(cls, rate: float, batch: float) -> "CompoundPoissonProcess":
        return cls(
            rate=rate,
            batch_sampler=lambda _rng, count: np.full(count, batch, dtype=float),
            batch_mean=batch,
            batch_second_moment=batch * batch,
        )

    def sample(self, horizon: float, seed: SeedLike = None) -> CompoundPoissonSample:
        rng = make_rng(seed)
        times = poisson_arrival_times(rng, self.rate, horizon)
        batches = (
            self._sampler(rng, times.size)
            if times.size
            else np.empty(0, dtype=float)
        )
        return CompoundPoissonSample(arrival_times=times, batch_sizes=np.asarray(batches, dtype=float))

    def mean_rate(self) -> float:
        """Mean growth rate ``α m₁`` of the cumulative process."""
        if self.batch_mean is None:
            raise ValueError("batch_mean is not known")
        return self.rate * self.batch_mean


def kingman_exceedance_bound(
    rate: float,
    batch_mean: float,
    batch_second_moment: float,
    offset: float,
    slope: float,
) -> float:
    """Kingman's moment bound for compound Poisson processes (Proposition 20).

    Bounds ``P{C_t ≥ offset + slope · t for some t}`` by
    ``α m₂ / (2 offset (slope − α m₁))`` whenever ``slope > α m₁``; returns 1.0
    when the bound is vacuous.
    """
    if offset <= 0:
        return 1.0
    drift_gap = slope - rate * batch_mean
    if drift_gap <= 0:
        return 1.0
    bound = rate * batch_second_moment / (2.0 * offset * drift_gap)
    return min(1.0, bound)


__all__ = [
    "CompoundPoissonProcess",
    "CompoundPoissonSample",
    "kingman_exceedance_bound",
]
