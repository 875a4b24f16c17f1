"""Classify simulated trajectories as stable or unstable.

Theorem 1 is a statement about transience vs. positive recurrence, which a
finite simulation can only indicate.  The classifier here combines two
signals computed on the trailing portion of a run:

* the *normalised growth slope* of the population, ``slope / λ_total`` — in
  the transient regime the population grows linearly at a rate of order the
  arrival-rate surplus, in the stable regime the slope hovers around zero;
* the *return behaviour* — a stable run keeps returning to small populations,
  so the minimum population over the trailing window stays close to its
  typical level instead of ratcheting upwards.

The thresholds are deliberately conservative; experiments place their
parameter points well inside each region so the verdicts are unambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from ..analysis.statistics import linear_slope, trailing_window

#: Normalised tail slope above which a run is declared unstable.
GROWTH_THRESHOLD = 0.15
#: Normalised tail slope below which a run may be declared stable (provided
#: the trailing minimum shows the process keeps returning to low levels).
STABLE_THRESHOLD = 0.05
#: A swarm is *captured* when its final one-club holds at least this fraction
#: of the final population ...
CAPTURE_FRACTION = 0.5
#: ... and at least this many peers.
CAPTURE_MIN_CLUB = 10


class TrajectoryVerdict(Enum):
    """Empirical verdict for one simulated trajectory."""

    STABLE = "stable"
    UNSTABLE = "unstable"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class TrajectoryClassification:
    """Verdict plus the statistics it was based on."""

    verdict: TrajectoryVerdict
    normalized_slope: float
    trailing_mean: float
    trailing_minimum: float
    peak: float


def classify_trajectory(
    times: Sequence[float],
    population: Sequence[float],
    arrival_rate: float,
    last_fraction: float = 0.5,
) -> TrajectoryClassification:
    """Classify a population trajectory.

    Parameters
    ----------
    times, population:
        Sampled trajectory of the population size.
    arrival_rate:
        Total arrival rate ``λ_total``, used to normalise the growth slope.
    last_fraction:
        Portion of the run (from the end) used for the statistics.
    """
    t = np.asarray(times, dtype=float)
    n = np.asarray(population, dtype=float)
    if t.size != n.size:
        raise ValueError("times and population must have equal length")
    if t.size < 4:
        return TrajectoryClassification(
            verdict=TrajectoryVerdict.INCONCLUSIVE,
            normalized_slope=0.0,
            trailing_mean=float(n.mean()) if n.size else 0.0,
            trailing_minimum=float(n.min()) if n.size else 0.0,
            peak=float(n.max()) if n.size else 0.0,
        )
    if arrival_rate <= 0:
        raise ValueError("arrival_rate must be positive")
    n_tail = trailing_window(n, last_fraction)
    normalized = linear_slope(trailing_window(t, last_fraction), n_tail) / arrival_rate
    trailing_mean = float(n_tail.mean())
    trailing_min = float(n_tail.min())
    peak = float(n.max())

    # Fraction of all peers that ever arrived (≈ λ · duration) that are still
    # present over the tail of the run.  Transient growth retains a sizable
    # fraction; a positive-recurrent system retains a vanishing one even when
    # it is still equilibrating and the local slope is noisy.
    duration = float(t[-1] - t[0])
    cumulative_arrivals = max(arrival_rate * duration, 1e-12)
    occupancy_ratio = trailing_mean / cumulative_arrivals

    if normalized > GROWTH_THRESHOLD and occupancy_ratio > 0.12:
        verdict = TrajectoryVerdict.UNSTABLE
    elif occupancy_ratio < 0.08:
        verdict = TrajectoryVerdict.STABLE
    elif normalized < STABLE_THRESHOLD and trailing_min <= max(2.0 * arrival_rate, 0.5 * trailing_mean + 5.0):
        verdict = TrajectoryVerdict.STABLE
    elif normalized < STABLE_THRESHOLD:
        # Slope is flat but the floor has ratcheted up: call it stable only if
        # the population is not still far above its earlier levels.
        verdict = (
            TrajectoryVerdict.STABLE
            if trailing_mean <= 0.75 * peak
            else TrajectoryVerdict.INCONCLUSIVE
        )
    else:
        verdict = TrajectoryVerdict.INCONCLUSIVE
    return TrajectoryClassification(
        verdict=verdict,
        normalized_slope=normalized,
        trailing_mean=trailing_mean,
        trailing_minimum=trailing_min,
        peak=peak,
    )


def is_captured(final_one_club: int, final_population: int) -> bool:
    """Whether the one-club still holds the swarm at the end of a run: the
    missing-piece-syndrome flag every fleet record and capture census reads.

    True when the final one-club has at least :data:`CAPTURE_MIN_CLUB` peers
    and at least :data:`CAPTURE_FRACTION` of the final population.
    """
    return (
        final_one_club >= CAPTURE_MIN_CLUB
        and final_one_club >= CAPTURE_FRACTION * max(final_population, 1)
    )


def majority_verdict(
    classifications: Sequence[TrajectoryClassification],
) -> TrajectoryVerdict:
    """Majority vote across replications (ties resolve to INCONCLUSIVE)."""
    if not classifications:
        return TrajectoryVerdict.INCONCLUSIVE
    stable = sum(1 for c in classifications if c.verdict is TrajectoryVerdict.STABLE)
    unstable = sum(
        1 for c in classifications if c.verdict is TrajectoryVerdict.UNSTABLE
    )
    if stable > unstable and stable >= len(classifications) / 2:
        return TrajectoryVerdict.STABLE
    if unstable > stable and unstable >= len(classifications) / 2:
        return TrajectoryVerdict.UNSTABLE
    return TrajectoryVerdict.INCONCLUSIVE


__all__ = [
    "TrajectoryVerdict",
    "TrajectoryClassification",
    "classify_trajectory",
    "is_captured",
    "majority_verdict",
]
