"""Experiment E14 — one-club capture prevalence vs. census-estimate staleness.

Every capture result in this repo up to now assumes policies read an
*exact* piece census.  This experiment measures what the missing-piece
syndrome looks like when rarest-first reads the flow-updating gossip
census instead (:mod:`repro.swarm.gossip`): swarms pre-seeded with a
modest one-club at Theorem-1-stable base rates are run under
rarest-first, and the capture census is swept over
``scenario × exchange-rate`` cells, with an exact-oracle baseline cell
per scenario for reference.

Mechanically each cell is a loop of :func:`~repro.swarm.swarm.run_swarm`
calls (not a fleet): the staleness and estimate-error numbers live in
per-swarm :class:`~repro.swarm.metrics.SwarmMetrics`, which fleet records
deliberately do not carry, and the explicit rarest-first policy is a
simulator argument the fleet spec does not model.  A swarm counts as
*captured* by the criterion the fleet layer uses,
:func:`~repro.markov.classify.is_captured`.

Interpretation: rarest-first is the policy that *uses* the census — with
a lazy gossip census (low exchange rate) its picks are driven by stale
estimates, so it degenerates toward random-useful behaviour and the
one-club's grip shifts relative to the oracle baseline.  The sweep puts
an honest number on that shift per scenario.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.tables import format_table
from ..core.scenario import make_scenario
from ..core.state import SystemState
from ..markov.classify import is_captured
from ..swarm.gossip import CensusSpec
from ..swarm.policies import make_policy
from ..swarm.swarm import run_swarm

#: Baseline label for the exact-census cell of each scenario.
ORACLE_LABEL = "oracle"

#: Default scenarios swept (each crossed with every census setting).
DEFAULT_SCENARIOS: Tuple[str, ...] = ("flash-crowd", "sparse-overlay")

#: Default gossip exchange rates swept (lazy → chatty).
DEFAULT_EXCHANGE_RATES: Tuple[float, ...] = (0.05, 0.35, 0.9)


@dataclass(frozen=True)
class GossipCell:
    """Capture census of one ``(scenario, census)`` cell."""

    scenario: str
    exchange_rate: Optional[float]  # None for the oracle baseline
    swarms: int
    captured: int
    #: Mean (over swarms and sample times) estimate staleness and L1
    #: estimate error; NaN under the oracle, whose census is never stale.
    mean_staleness: float
    mean_error: float

    @property
    def is_oracle(self) -> bool:
        return self.exchange_rate is None

    @property
    def captured_fraction(self) -> float:
        return self.captured / self.swarms if self.swarms else 0.0


@dataclass
class GossipCensusResult:
    """Capture prevalence over the ``scenario × census`` grid."""

    scenarios: Tuple[str, ...]
    exchange_rates: Tuple[float, ...]
    cells: Dict[Tuple[str, Optional[float]], GossipCell]

    def cell(self, scenario: str, exchange_rate: Optional[float]) -> GossipCell:
        return self.cells[(scenario, exchange_rate)]

    def baseline(self, scenario: str) -> GossipCell:
        """The exact-oracle cell of ``scenario``."""
        return self.cells[(scenario, None)]

    def capture_shift(self, scenario: str, exchange_rate: float) -> float:
        """Capture-prevalence shift of a gossip cell vs. its oracle cell."""
        return (
            self.cell(scenario, exchange_rate).captured_fraction
            - self.baseline(scenario).captured_fraction
        )

    def report(self) -> str:
        """Capture vs. staleness table (rows: census setting)."""
        headers = ["census \\ scenario"] + list(self.scenarios)
        rows: List[List[str]] = []
        labels: List[Optional[float]] = [None] + list(self.exchange_rates)
        for rate in labels:
            label = ORACLE_LABEL if rate is None else f"gossip r={rate:g}"
            row = [label]
            for scenario in self.scenarios:
                cell = self.cells[(scenario, rate)]
                if cell.is_oracle:
                    row.append(f"{cell.captured_fraction:.0%} (exact)")
                else:
                    row.append(
                        f"{cell.captured_fraction:.0%} "
                        f"(stale {cell.mean_staleness:.2f})"
                    )
            rows.append(row)
        some = next(iter(self.cells.values()))
        return format_table(
            headers=headers,
            rows=rows,
            title=(
                "One-club capture prevalence vs. gossip-census staleness "
                f"under rarest-first ({some.swarms} swarms/cell; "
                "oracle baseline on top)"
            ),
        )


def run_gossip_census_experiment(
    scenarios: Sequence[str] = DEFAULT_SCENARIOS,
    exchange_rates: Sequence[float] = DEFAULT_EXCHANGE_RATES,
    damping: float = 1.0,
    swarms_per_cell: int = 8,
    num_pieces: int = 5,
    arrival_rate: float = 1.2,
    seed_rate: float = 1.0,
    horizon: float = 60.0,
    initial_club_size: int = 30,
    max_events: Optional[int] = 20_000,
    max_population: Optional[int] = 5_000,
    backend: str = "array",
    seed: int = 0,
) -> GossipCensusResult:
    """Sweep capture prevalence over ``scenario × census`` cells.

    Each cell runs ``swarms_per_cell`` rarest-first swarms pre-seeded with
    a one-club of ``initial_club_size`` peers; gossip cells use
    ``CensusSpec.gossip(exchange_rate, damping)``, the baseline cell the
    exact oracle.  Swarm seeds derive from the master ``seed`` and the
    cell coordinates, so the sweep is reproducible run to run and every
    census setting sees statistically identical workloads.
    """
    grid: List[Optional[float]] = [None] + [float(r) for r in exchange_rates]
    cells: Dict[Tuple[str, Optional[float]], GossipCell] = {}
    policy = make_policy("rarest-first")
    for scenario_index, name in enumerate(scenarios):
        for rate_index, rate in enumerate(grid):
            census = (
                "oracle"
                if rate is None
                else CensusSpec.gossip(exchange_rate=rate, damping=damping)
            )
            scenario = make_scenario(
                name,
                census=census,
                num_pieces=num_pieces,
                arrival_rate=arrival_rate,
                seed_rate=seed_rate,
            )
            captured = 0
            staleness: List[float] = []
            errors: List[float] = []
            for index in range(swarms_per_cell):
                result = run_swarm(
                    scenario.params,
                    horizon=horizon,
                    seed=np.random.default_rng(
                        (int(seed), scenario_index, rate_index, index)
                    ),
                    policy=policy,
                    scenario=scenario,
                    backend=backend,
                    initial_state=SystemState.one_club(
                        num_pieces, initial_club_size
                    ),
                    max_events=max_events,
                    max_population=max_population,
                )
                metrics = result.metrics
                final_club = (
                    metrics.one_club_size[-1] if metrics.one_club_size else 0
                )
                if is_captured(final_club, result.final_population):
                    captured += 1
                if rate is not None:
                    staleness.append(metrics.mean_census_staleness())
                    errors.append(metrics.mean_census_error())
            cells[(name, rate)] = GossipCell(
                scenario=name,
                exchange_rate=rate,
                swarms=swarms_per_cell,
                captured=captured,
                mean_staleness=(
                    float(np.mean(staleness)) if staleness else math.nan
                ),
                mean_error=float(np.mean(errors)) if errors else math.nan,
            )
    return GossipCensusResult(
        scenarios=tuple(scenarios),
        exchange_rates=tuple(float(r) for r in exchange_rates),
        cells=cells,
    )


__all__ = [
    "DEFAULT_EXCHANGE_RATES",
    "DEFAULT_SCENARIOS",
    "ORACLE_LABEL",
    "GossipCell",
    "GossipCensusResult",
    "run_gossip_census_experiment",
]
