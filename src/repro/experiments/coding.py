"""Experiment E6 — Theorem 15: network coding and the gifted fraction.

Two parts:

1. the theoretical thresholds on the fraction ``f`` of arrivals carrying one
   random coded piece, for the paper's quoted instance (``q = 64``,
   ``K = 200``) and for the small instance used in simulation;
2. a simulation of the coded swarm (small ``K`` and prime ``q``) at fractions
   below and above the thresholds, next to the *uncoded* swarm at a large
   fraction of single-data-piece arrivals, which Theorem 1 says is transient
   for any ``f < 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.tables import format_table
from ..core.coding_theory import (
    gifted_fraction_thresholds,
    gifted_fraction_thresholds_exact,
    paper_example_table,
)
from ..core.parameters import SystemParameters
from ..core.types import PieceSet
from ..markov.classify import TrajectoryVerdict, classify_trajectory
from ..simulation.rng import SeedLike, spawn_generators
from ..swarm.network_coding import CodedSwarmSimulator, gifted_fraction_arrivals
from ..swarm.swarm import SwarmSimulator


@dataclass
class CodedTrialRow:
    """One simulated configuration of the coding experiment."""

    label: str
    coded: bool
    gifted_fraction: float
    theory: str
    verdict: str
    normalized_slope: float
    final_population: float


@dataclass
class CodingResult:
    """Theory table plus simulation rows."""

    paper_numbers: dict
    sim_thresholds: Tuple[float, float]
    sim_thresholds_exact: Tuple[float, float]
    rows: List[CodedTrialRow]

    def report(self) -> str:
        theory_rows = [
            ("q", self.paper_numbers["q"]),
            ("K", self.paper_numbers["K"]),
            ("transient below f", self.paper_numbers["transient_below"]),
            ("recurrent above f", self.paper_numbers["recurrent_above"]),
            ("transient threshold x K", self.paper_numbers["transient_below_times_K"]),
            ("recurrent threshold x K", self.paper_numbers["recurrent_above_times_K"]),
        ]
        sections = [
            format_table(
                headers=["quantity", "value"],
                rows=theory_rows,
                title="Theorem 15 worked example (paper: 1.014/K and 1.032/K)",
                float_format="{:.6g}",
            ),
            format_table(
                headers=[
                    "configuration",
                    "coded",
                    "f",
                    "theory",
                    "simulated",
                    "norm. slope",
                    "final n",
                ],
                rows=[
                    (
                        row.label,
                        row.coded,
                        row.gifted_fraction,
                        row.theory,
                        row.verdict,
                        row.normalized_slope,
                        row.final_population,
                    )
                    for row in self.rows
                ],
                title=(
                    "Simulation (small instance): coded thresholds "
                    f"paper-form ({self.sim_thresholds[0]:.3g}, {self.sim_thresholds[1]:.3g}), "
                    f"exact ({self.sim_thresholds_exact[0]:.3g}, {self.sim_thresholds_exact[1]:.3g})"
                ),
            ),
        ]
        return "\n\n".join(sections)


def _simulate_coded(
    num_pieces: int,
    field_size: int,
    total_rate: float,
    gifted_fraction: float,
    horizon: float,
    seed: SeedLike,
    max_population: int,
) -> Tuple[float, float, str]:
    simulator = CodedSwarmSimulator(
        num_pieces=num_pieces,
        field_size=field_size,
        arrivals=gifted_fraction_arrivals(total_rate, gifted_fraction),
        seed_rate=0.0,
        peer_rate=1.0,
        seed_departure_rate=math.inf,
        seed=seed,
    )
    result = simulator.run(horizon, max_population=max_population)
    metrics = result.metrics
    classification = classify_trajectory(
        metrics.sample_times,
        metrics.population,
        arrival_rate=total_rate,
    )
    return (
        classification.normalized_slope,
        float(metrics.population[-1]),
        classification.verdict.value,
    )


def _simulate_uncoded_gifted(
    num_pieces: int,
    total_rate: float,
    gifted_fraction: float,
    horizon: float,
    seed: SeedLike,
    max_population: int,
    initial_one_club: int = 0,
) -> Tuple[float, float, str]:
    """Uncoded counterpart: gifted peers carry one uniformly random *data* piece.

    ``initial_one_club`` seeds the run with a one-club heavy-load state: the
    uncoded system is transient (Theorem 1) but, started empty, it can linger
    in a quasi-stable symmetric state for a long time (Section IX); starting
    from the heavy-load state shows the non-recovery directly, which is what
    transience means.
    """
    from ..core.state import SystemState

    empty = PieceSet.empty(num_pieces)
    arrival_rates = {empty: total_rate * (1.0 - gifted_fraction)}
    per_piece = total_rate * gifted_fraction / num_pieces
    for piece in range(1, num_pieces + 1):
        arrival_rates[PieceSet.single(piece, num_pieces)] = per_piece
    params = SystemParameters(
        num_pieces=num_pieces,
        seed_rate=0.0,
        peer_rate=1.0,
        seed_departure_rate=math.inf,
        arrival_rates=arrival_rates,
    )
    simulator = SwarmSimulator(params, seed=seed)
    initial_state = (
        SystemState.one_club(num_pieces, initial_one_club) if initial_one_club else None
    )
    result = simulator.run(
        horizon, initial_state=initial_state, max_population=max_population
    )
    metrics = result.metrics
    classification = classify_trajectory(
        metrics.sample_times,
        metrics.population,
        arrival_rate=total_rate,
    )
    return (
        classification.normalized_slope,
        float(metrics.population[-1]),
        classification.verdict.value,
    )


def run_coding_experiment(
    num_pieces: int = 8,
    field_size: int = 7,
    total_rate: float = 2.0,
    low_fraction: float = 0.05,
    high_fraction: float = 0.6,
    uncoded_fraction: float = 0.6,
    horizon: float = 200.0,
    seed: SeedLike = 66,
    max_population: int = 3000,
    uncoded_initial_one_club: int = 60,
) -> CodingResult:
    """Run the network-coding experiment (theory table + small simulations)."""
    lower, upper = gifted_fraction_thresholds(num_pieces, field_size)
    lower_exact, upper_exact = gifted_fraction_thresholds_exact(num_pieces, field_size)
    seeds = spawn_generators(seed, 3)
    rows: List[CodedTrialRow] = []

    slope, final, verdict = _simulate_coded(
        num_pieces, field_size, total_rate, low_fraction, horizon, seeds[0], max_population
    )
    rows.append(
        CodedTrialRow(
            label="coded, f below threshold",
            coded=True,
            gifted_fraction=low_fraction,
            theory="transient" if low_fraction < lower else "(borderline)",
            verdict=verdict,
            normalized_slope=slope,
            final_population=final,
        )
    )

    slope, final, verdict = _simulate_coded(
        num_pieces, field_size, total_rate, high_fraction, horizon, seeds[1], max_population
    )
    rows.append(
        CodedTrialRow(
            label="coded, f above threshold",
            coded=True,
            gifted_fraction=high_fraction,
            theory="positive recurrent" if high_fraction > upper_exact else "(borderline)",
            verdict=verdict,
            normalized_slope=slope,
            final_population=final,
        )
    )

    slope, final, verdict = _simulate_uncoded_gifted(
        num_pieces,
        total_rate,
        uncoded_fraction,
        horizon,
        seeds[2],
        max_population,
        initial_one_club=uncoded_initial_one_club,
    )
    rows.append(
        CodedTrialRow(
            label="uncoded, same gifted fraction (one-club start)",
            coded=False,
            gifted_fraction=uncoded_fraction,
            theory="transient (any f < 1)",
            verdict=verdict,
            normalized_slope=slope,
            final_population=final,
        )
    )

    return CodingResult(
        paper_numbers=paper_example_table(),
        sim_thresholds=(lower, upper),
        sim_thresholds_exact=(lower_exact, upper_exact),
        rows=rows,
    )


__all__ = ["CodedTrialRow", "CodingResult", "run_coding_experiment"]
