"""Metrics collected by the swarm simulators.

:class:`SwarmMetrics` accumulates a sampled time series of the population
size, the number of peer seeds, the one-club size, the minimum piece count
(how rare the rarest piece is) and the Figure-2 group sizes, plus event
counters (arrivals, departures, downloads, wasted contacts) and the sojourn
times of departed peers.  Summary helpers compute the growth slope of the
population, which the experiments use to classify runs as stable or unstable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

import numpy as np

from ..analysis.statistics import linear_slope, trailing_window
from .groups import GroupSnapshot


@dataclass
class SwarmMetrics:
    """Time series and counters from one swarm simulation run."""

    sample_times: List[float] = field(default_factory=list)
    population: List[int] = field(default_factory=list)
    num_seeds: List[int] = field(default_factory=list)
    one_club_size: List[int] = field(default_factory=list)
    min_piece_count: List[int] = field(default_factory=list)
    group_snapshots: List[GroupSnapshot] = field(default_factory=list)
    #: Census-estimate quality series, recorded at sample times only when a
    #: gossip census is active (empty lists under the exact oracle):
    #: ``census_error[i]`` is the mean (over live peers) L1 distance between
    #: the peer's estimated piece-frequency vector and the oracle counts at
    #: ``sample_times[i]``; ``census_staleness[i]`` is the mean time since a
    #: peer's estimate last changed.
    census_error: List[float] = field(default_factory=list)
    census_staleness: List[float] = field(default_factory=list)

    total_arrivals: int = 0
    total_departures: int = 0
    total_downloads: int = 0
    total_seed_uploads: int = 0
    wasted_contacts: int = 0
    #: Candidate scheduled events rejected by Poisson thinning (only nonzero
    #: when a scenario runs a non-constant arrival or seed rate schedule).
    thinned_events: int = 0
    #: Contact-locality counters (only nonzero under a topology overlay):
    #: peer ticks whose overlay neighbor accepted a piece vs. ticks wasted on
    #: a useless (or absent) neighbor.  Fixed-seed ticks are not counted.
    neighbor_useful_ticks: int = 0
    neighbor_useless_ticks: int = 0
    #: Peers removed by a flash-exit cull (scenario ``cull_time``).
    culled_peers: int = 0
    sojourn_times: List[float] = field(default_factory=list)
    download_times: List[float] = field(default_factory=list)

    # -- recording -------------------------------------------------------------

    def record_samples(
        self,
        times: List[float],
        population: int,
        num_seeds: int,
        one_club_size: int,
        min_piece_count: int,
        group_snapshot: Optional[GroupSnapshot] = None,
        census_error: Optional[float] = None,
        census_staleness: Optional[List[float]] = None,
    ) -> None:
        """Append one row per grid time in ``times``, all of one frozen state.

        The state cannot change between events, so the simulators record a
        whole gap of the sample grid at once: the scalar columns are
        extended with the same value, ``group_snapshot`` is re-timed to each
        grid time, and ``census_staleness`` (which grows with the clock)
        carries one value per time.
        """
        count = len(times)
        self.sample_times.extend(times)
        self.population.extend([population] * count)
        self.num_seeds.extend([num_seeds] * count)
        self.one_club_size.extend([one_club_size] * count)
        self.min_piece_count.extend([min_piece_count] * count)
        if group_snapshot is not None:
            self.group_snapshots.extend(
                replace(group_snapshot, time=time) for time in times
            )
        if census_error is not None:
            self.census_error.extend([census_error] * count)
        if census_staleness is not None:
            self.census_staleness.extend(census_staleness)

    def record_departure(self, sojourn: float, download_time: Optional[float]) -> None:
        self.total_departures += 1
        self.sojourn_times.append(sojourn)
        if download_time is not None:
            self.download_times.append(download_time)

    # -- arrays ------------------------------------------------------------------

    def times_array(self) -> np.ndarray:
        return np.asarray(self.sample_times, dtype=float)

    def population_array(self) -> np.ndarray:
        return np.asarray(self.population, dtype=float)

    # -- summaries --------------------------------------------------------------

    @property
    def final_population(self) -> int:
        return self.population[-1] if self.population else 0

    @property
    def peak_population(self) -> int:
        return max(self.population) if self.population else 0

    def mean_population(self, last_fraction: float = 0.5) -> float:
        """Mean population over the trailing ``last_fraction`` of samples."""
        if not self.population:
            return 0.0
        return float(trailing_window(self.population, last_fraction).mean())

    def population_slope(self, last_fraction: float = 0.5) -> float:
        """Least-squares slope of ``n(t)`` over the trailing portion of the run.

        A clearly positive slope (relative to the arrival rate) indicates the
        linear growth characteristic of transience; a slope near zero with a
        bounded population indicates stability.
        """
        return self._tail_slope(self.population, last_fraction)

    def one_club_slope(self, last_fraction: float = 0.5) -> float:
        """Least-squares slope of the one-club size over the trailing portion."""
        return self._tail_slope(self.one_club_size, last_fraction)

    def _tail_slope(self, values: List[int], last_fraction: float) -> float:
        """Trend of ``values`` over the trailing window; 0 below three samples."""
        times = trailing_window(self.sample_times, last_fraction)
        if times.size < 3:
            return 0.0
        return linear_slope(times, trailing_window(values, last_fraction))

    def mean_sojourn_time(self) -> float:
        if not self.sojourn_times:
            return float("nan")
        return float(np.mean(self.sojourn_times))

    def mean_download_time(self) -> float:
        if not self.download_times:
            return float("nan")
        return float(np.mean(self.download_times))

    def mean_census_error(self) -> float:
        """Mean over samples of the mean-L1 census-estimate error (NaN when
        the run used the exact oracle census)."""
        if not self.census_error:
            return float("nan")
        return float(np.mean(self.census_error))

    def mean_census_staleness(self) -> float:
        """Mean over samples of the mean estimate staleness (NaN under the
        exact oracle census, whose staleness is identically zero)."""
        if not self.census_staleness:
            return float("nan")
        return float(np.mean(self.census_staleness))

    def fraction_time_empty(self) -> float:
        """Fraction of samples at which the system was empty."""
        values = self.population_array()
        if values.size == 0:
            return 0.0
        return float(np.mean(values == 0))

    def summary(self) -> Dict[str, float]:
        """Flat dictionary of headline statistics (for tables and CSV output)."""
        return {
            "final_population": float(self.final_population),
            "peak_population": float(self.peak_population),
            "mean_population": self.mean_population(),
            "population_slope": self.population_slope(),
            "one_club_slope": self.one_club_slope(),
            "total_arrivals": float(self.total_arrivals),
            "total_departures": float(self.total_departures),
            "total_downloads": float(self.total_downloads),
            "wasted_contacts": float(self.wasted_contacts),
            "neighbor_useful_ticks": float(self.neighbor_useful_ticks),
            "neighbor_useless_ticks": float(self.neighbor_useless_ticks),
            "culled_peers": float(self.culled_peers),
            "mean_sojourn_time": self.mean_sojourn_time(),
            "mean_download_time": self.mean_download_time(),
            "mean_census_error": self.mean_census_error(),
            "mean_census_staleness": self.mean_census_staleness(),
        }


def check_sample_grid(horizon: float, sample_interval: Optional[float]) -> None:
    """Raise ``ValueError`` unless ``horizon`` and ``sample_interval`` (when
    given) are finite and positive: the sample grid steps from 0 to the
    horizon by the interval, which any other value never ends or empties."""
    for name, value in (("horizon", horizon), ("sample_interval", sample_interval)):
        if value is not None and not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value}")


__all__ = ["SwarmMetrics", "check_sample_grid"]
