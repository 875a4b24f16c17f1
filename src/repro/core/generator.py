"""Explicit generator matrices on truncated state spaces.

The P2P chain has a countably infinite state space; for small ``K`` and a cap
``n ≤ n_max`` on the population we can enumerate every reachable state, build
the (sparse) generator matrix ``Q`` and compute exact quantities:

* the stationary distribution of the truncated chain (arrivals that would
  exceed the cap are blocked, a standard finite-buffer approximation),
* expected population and per-type occupancy in the truncation,
* expected hitting times of the empty state (a proxy for recovery time from
  heavy load).

The model-specific part is the state enumeration; the generator assembly and
the solvers are the generic ones of :mod:`repro.markov.chain`, fed by
:func:`~repro.core.transitions.transition_function`.  scipy is loaded by those
on first use, not when this module is imported.

These exact computations back up the asymptotic Theorem-1 classification on
small instances and are used by unit tests and by the Lyapunov benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from ..markov import chain
from .parameters import SystemParameters
from .state import SystemState
from .transitions import outgoing_transitions, transition_function

if TYPE_CHECKING:
    import scipy.sparse as sp


@dataclass
class TruncatedChain:
    """A finite truncation of the P2P Markov chain.

    Attributes
    ----------
    params:
        The system parameters the chain was built from.
    max_peers:
        Population cap ``n_max``; arrivals are blocked at the cap.
    states:
        Every state with at most ``max_peers`` peers reachable from the empty
        state, in a deterministic order (index 0 is the empty state).
    index:
        Mapping from state to its index in ``states``.
    generator:
        Sparse CSR generator matrix ``Q`` (rows sum to zero).
    """

    params: SystemParameters
    max_peers: int
    states: List[SystemState]
    index: Dict[SystemState, int]
    generator: sp.csr_matrix

    @property
    def num_states(self) -> int:
        return len(self.states)

    # -- solvers --------------------------------------------------------------

    def stationary_distribution(self) -> np.ndarray:
        """Stationary distribution ``π`` of the truncated chain (``π Q = 0``).

        The dense least-squares solve of :mod:`repro.markov.chain`, adequate
        for the state space sizes used in tests and benchmarks (up to a few
        tens of thousands of states).
        """
        return chain.stationary_distribution(self.generator)

    def expected_population(self, distribution: Optional[np.ndarray] = None) -> float:
        """``E[N]`` under the stationary distribution of the truncation."""
        pi = distribution if distribution is not None else self.stationary_distribution()
        populations = np.array([s.total_peers for s in self.states], dtype=float)
        return float(pi @ populations)

    def occupancy_by_type(
        self, distribution: Optional[np.ndarray] = None
    ) -> Dict[str, float]:
        """Expected number of peers of each type under the stationary law."""
        from .types import format_type

        pi = distribution if distribution is not None else self.stationary_distribution()
        totals: Dict[str, float] = {}
        for weight, state in zip(pi, self.states):
            for type_c, count in state.items():
                key = format_type(type_c)
                totals[key] = totals.get(key, 0.0) + weight * count
        return totals

    def mean_hitting_time_to_empty(self, start: SystemState) -> float:
        """Expected time to reach the empty state from ``start``.

        Solves ``Q_B h = -1`` on the set ``B`` of non-empty states, where
        ``Q_B`` is the generator restricted to ``B``.  Within the truncation
        this is finite for any parameter values; for unstable parameters it
        grows quickly with the truncation size, which is itself a useful
        diagnostic.
        """
        if start not in self.index:
            raise ValueError(f"state {start!r} is not in the truncation")
        empty_idx = self.index[SystemState.empty(self.params.num_pieces)]
        times = chain.expected_hitting_times(self.generator, [empty_idx])
        return float(times[self.index[start]])


def enumerate_states(
    params: SystemParameters,
    max_peers: int,
    initial: Optional[SystemState] = None,
) -> List[SystemState]:
    """Breadth-first enumeration of all states with ``n ≤ max_peers``.

    Starts from the empty state (or ``initial``) and follows transitions,
    ignoring arrivals that would exceed the population cap.  The result
    contains the empty state first and is otherwise ordered by discovery.
    """
    start = initial if initial is not None else SystemState.empty(params.num_pieces)
    if start.total_peers > max_peers:
        raise ValueError("initial state already exceeds max_peers")
    seen = {start}
    order = [start]
    frontier = [start]
    while frontier:
        next_frontier: List[SystemState] = []
        for state in frontier:
            for transition in outgoing_transitions(state, params):
                target = transition.target
                if target.total_peers > max_peers or target in seen:
                    continue
                seen.add(target)
                order.append(target)
                next_frontier.append(target)
        frontier = next_frontier
    # Put the empty state first (it may not be `start`).
    empty = SystemState.empty(params.num_pieces)
    if empty in seen:
        order.remove(empty)
    order.insert(0, empty)
    return order


def build_truncated_chain(
    params: SystemParameters,
    max_peers: int,
    initial: Optional[SystemState] = None,
) -> TruncatedChain:
    """Enumerate states and assemble the sparse generator of the truncation.

    Arrivals at the cap leave the state list and are blocked: they count
    neither as an entry nor in the exit rate.
    """
    states = enumerate_states(params, max_peers, initial=initial)
    return TruncatedChain(
        params=params,
        max_peers=max_peers,
        states=states,
        index={state: i for i, state in enumerate(states)},
        generator=chain.build_generator(states, transition_function(params)),
    )


__all__ = ["TruncatedChain", "enumerate_states", "build_truncated_chain"]
