"""The µ = ∞ watched process of Section VIII-D (Figure 3).

For the symmetric flat network (``λ_C = λ`` for ``|C| = 1``, no fixed seed,
``γ = ∞``) the paper studies the limit ``µ → ∞`` of the chain watched on its
*slow* states — states where all peers hold the same piece set.  The reduced
state space is ``{(0,0)} ∪ {(n, k) : n ≥ 1, 1 ≤ k ≤ K−1}``: ``n`` peers, all
holding the same ``k`` pieces.

Transitions (rate ``λ`` per single-piece type):

* from ``(n, k)`` with ``k < K−1``: an arrival with a piece already held
  (rate ``kλ``) joins the group, ``(n+1, k)``; an arrival with a new piece
  (rate ``(K−k)λ``) is instantly assimilated and everyone ends with ``k+1``
  pieces, ``(n+1, k+1)``;
* from the top layer ``(n, K−1)``: an arrival with a held piece (rate
  ``(K−1)λ``) gives ``(n+1, K−1)``; an arrival with the missing piece (rate
  ``λ``) triggers the fair-coin race of the paper — the newcomer uploads
  (each upload removes one member) and downloads (it needs ``K−1`` pieces) at
  equal rates, leading to ``(n − Z, K−1)`` when ``Z ≤ n−1`` members depart, or
  to ``(1, j)`` when all members depart first.

Because ``E[Z] = K−1``, the top layer evolves as a zero-drift random walk and
the watched process is null recurrent — the borderline behaviour that
motivates Conjecture 17.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..simulation.ctmc import GenericCtmcSimulator
from ..simulation.rng import SeedLike, make_rng

MuInfinityState = Tuple[int, int]  # (population, common number of pieces)


def negative_binomial_pmf(num_tails: int, num_heads: int) -> float:
    """P{exactly ``num_heads`` heads occur before the ``num_tails``-th tail}."""
    from scipy.stats import nbinom

    if num_tails < 1 or num_heads < 0:
        raise ValueError("num_tails must be >= 1 and num_heads >= 0")
    return float(nbinom.pmf(num_heads, num_tails, 0.5))


def heads_before_all_depart_pmf(population: int, max_tails: int, num_tails: int) -> float:
    """P{the ``population``-th head occurs with exactly ``num_tails`` tails before it}.

    Used for the boundary jump to ``(1, 1 + num_tails)``: the newcomer has
    uploaded to every member (``population`` heads) having downloaded
    ``num_tails < max_tails`` pieces so far.
    """
    if num_tails < 0 or num_tails >= max_tails:
        raise ValueError("num_tails must lie in [0, max_tails)")
    return _head_path_probability(population, num_tails)


def _head_path_probability(population: int, num_tails: int) -> float:
    """Probability of a coin-flip path with ``population`` heads, the last flip a head,
    and exactly ``num_tails`` tails among the earlier flips."""
    total_flips = population + num_tails
    return math.comb(total_flips - 1, num_tails) * 0.5 ** total_flips


@dataclass(frozen=True)
class MuInfinityChain:
    """The reduced chain of Figure 3 for the symmetric flat network."""

    num_pieces: int
    arrival_rate_per_piece: float

    def __post_init__(self) -> None:
        if self.num_pieces < 2:
            raise ValueError("the watched process needs K >= 2")
        if self.arrival_rate_per_piece <= 0:
            raise ValueError("arrival rate must be positive")

    @property
    def total_arrival_rate(self) -> float:
        return self.num_pieces * self.arrival_rate_per_piece

    def transitions(self, state: MuInfinityState) -> List[Tuple[float, MuInfinityState]]:
        """Outgoing ``(rate, next_state)`` pairs of the watched process."""
        population, pieces = state
        lam = self.arrival_rate_per_piece
        k_max = self.num_pieces - 1
        if population == 0:
            # Any arrival creates a single peer holding one piece.
            return [(self.total_arrival_rate, (1, 1))]
        if not 1 <= pieces <= k_max:
            raise ValueError(f"invalid state {state!r}")
        results: List[Tuple[float, MuInfinityState]] = []
        if pieces < k_max:
            results.append((pieces * lam, (population + 1, pieces)))
            results.append(((self.num_pieces - pieces) * lam, (population + 1, pieces + 1)))
            return results
        # Top layer: pieces == K - 1.
        results.append((pieces * lam, (population + 1, pieces)))
        # Arrival with the missing piece, total rate lam, split over outcomes.
        for departures in range(population):
            probability = negative_binomial_pmf(self.num_pieces - 1, departures)
            if probability <= 0:
                continue
            target_population = population - departures
            results.append((lam * probability, (target_population, pieces)))
        for tails in range(self.num_pieces - 1):
            probability = _head_path_probability(population, tails)
            if probability <= 0:
                continue
            results.append((lam * probability, (1, 1 + tails)))
        return results

    # -- analysis ---------------------------------------------------------------

    def top_layer_drift(self) -> float:
        """Mean drift of the population in the top layer (zero ⇒ null recurrence).

        Upward jumps of +1 occur at rate ``(K−1)λ``; the missing-piece arrival
        at rate ``λ`` removes ``E[Z] = K−1`` members on average (ignoring the
        boundary), so the drift is ``(K−1)λ − λ(K−1) = 0``.
        """
        k = self.num_pieces
        lam = self.arrival_rate_per_piece
        return (k - 1) * lam - lam * (k - 1)

    def simulate(
        self,
        horizon: float,
        initial_state: MuInfinityState = (0, 0),
        seed: SeedLike = None,
        sample_interval: Optional[float] = None,
        max_jumps: Optional[int] = None,
    ):
        """Simulate the watched process and record the population trajectory."""
        simulator = GenericCtmcSimulator(
            transition_function=self.transitions,
            observe=lambda state: float(state[0]),
        )
        return simulator.run(
            initial_state=initial_state,
            horizon=horizon,
            seed=seed,
            sample_interval=sample_interval,
            max_jumps=max_jumps,
        )

    def _jump(self, state: MuInfinityState, rng: np.random.Generator) -> MuInfinityState:
        """Sample the next state of the embedded jump chain directly (O(K) work).

        Equivalent to sampling from :meth:`transitions` but without enumerating
        the full outcome distribution, which matters because top-layer states
        with large populations have O(population) possible outcomes.
        """
        population, pieces = state
        k_max = self.num_pieces - 1
        if population == 0:
            return (1, 1)
        if pieces < k_max:
            if rng.uniform() < pieces / self.num_pieces:
                return (population + 1, pieces)
            return (population + 1, pieces + 1)
        # Top layer.
        if rng.uniform() < (self.num_pieces - 1) / self.num_pieces:
            return (population + 1, pieces)
        # Arrival with the missing piece: fair-coin race between uploads
        # (heads, one member departs each) and downloads (tails, the newcomer
        # needs K-1 of them).
        heads = 0
        tails = 0
        while heads < population and tails < self.num_pieces - 1:
            if rng.uniform() < 0.5:
                heads += 1
            else:
                tails += 1
        if tails >= self.num_pieces - 1:
            # The newcomer completed and departs; `heads` members departed too.
            return (population - heads, pieces)
        # Every original member departed before the newcomer finished.
        return (1, 1 + tails)

    def excursion_peaks(
        self,
        num_excursions: int,
        seed: SeedLike = None,
        max_jumps_per_excursion: int = 50_000,
    ) -> List[int]:
        """Peak population of successive excursions from the near-empty set.

        An excursion starts at ``(1, 1)`` and ends when the population returns
        to one (or the jump cap is hit).  For a null-recurrent process the
        peaks have no finite mean — their empirical mean keeps growing with
        the number of excursions — whereas a positive-recurrent process would
        show a stable mean.  Excursions that hit the cap record the running
        peak (a lower bound).
        """
        rng = make_rng(seed)
        peaks: List[int] = []
        for _ in range(num_excursions):
            state: MuInfinityState = (1, 1)
            peak = 1
            for _jump in range(max_jumps_per_excursion):
                state = self._jump(state, rng)
                peak = max(peak, state[0])
                if state[0] <= 1:
                    break
            peaks.append(peak)
        return peaks


def finite_mu_symmetric_chain_simulation(
    num_pieces: int,
    arrival_rate_per_piece: float,
    mu: float,
    horizon: float,
    seed: SeedLike = None,
    max_population: Optional[int] = 5000,
):
    """Simulate the *finite-µ* symmetric flat network (Conjecture 17 territory).

    Uses the peer-level swarm simulator with the symmetric single-piece
    arrival mix, no fixed seed, and ``γ = ∞``; returns the
    :class:`repro.swarm.swarm.SwarmResult`.
    """
    from ..core.parameters import SystemParameters, uniform_single_piece_rates
    from ..swarm.swarm import SwarmSimulator

    params = SystemParameters(
        num_pieces=num_pieces,
        seed_rate=0.0,
        peer_rate=mu,
        seed_departure_rate=math.inf,
        arrival_rates=uniform_single_piece_rates(num_pieces, arrival_rate_per_piece),
    )
    simulator = SwarmSimulator(params, seed=seed)
    return simulator.run(horizon, max_population=max_population)


__all__ = [
    "MuInfinityChain",
    "MuInfinityState",
    "finite_mu_symmetric_chain_simulation",
    "heads_before_all_depart_pmf",
    "negative_binomial_pmf",
]
