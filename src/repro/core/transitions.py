r"""Transition rates of the P2P Markov chain (Eq. (1) of the paper).

The chain moves in three ways:

* **arrival** of a type-``C`` peer at rate ``λ_C``;
* **upgrade** of a type-``C`` peer to type ``C ∪ {i}`` at aggregate rate

  .. math::

     Γ_{C, C∪\{i\}} = \frac{x_C}{n}\Bigl(\frac{U_s}{K-|C|}
        + µ \sum_{S : i ∈ S} \frac{x_S}{|S-C|}\Bigr),

  which, when ``C ∪ {i} = F`` and ``γ = ∞``, is instead a departure;
* **departure** of a peer seed at rate ``γ x_F`` (only when ``γ < ∞``).

This module computes individual rates, enumerates all outgoing transitions of
a state (:func:`transition_function` hands them, as ``(rate, target)`` pairs,
to the generator assembly, the drift and the jump-chain simulator), and
provides the aggregate download/upload rates used by the Lyapunov analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, List, Optional, Tuple

from .parameters import SystemParameters
from .state import SystemState
from .types import PieceSet


class TransitionKind(Enum):
    """Classification of a single Markov transition."""

    ARRIVAL = "arrival"
    UPGRADE = "upgrade"
    COMPLETION_DEPARTURE = "completion_departure"
    SEED_DEPARTURE = "seed_departure"


@dataclass(frozen=True)
class Transition:
    """One outgoing transition of the chain.

    Attributes
    ----------
    kind:
        Which of the four transition kinds this is.
    rate:
        The (positive) transition rate.
    target:
        The state reached by the transition.
    peer_type:
        The type of the peer involved (the arriving type, the upgrading
        peer's *old* type, or ``F`` for a seed departure).
    piece:
        The piece downloaded, for upgrades and completion departures.
    """

    kind: TransitionKind
    rate: float
    target: SystemState
    peer_type: PieceSet
    piece: Optional[int] = None


def upgrade_rate(
    state: SystemState,
    params: SystemParameters,
    from_type: PieceSet,
    piece: int,
) -> float:
    """Aggregate rate ``Γ_{C, C∪{piece}}`` at which type-``C`` peers gain ``piece``.

    Returns zero when there are no type-``C`` peers, the system is empty, or
    the piece is already held (``piece ∈ C``).
    """
    if piece in from_type:
        return 0.0
    x_c = state.count(from_type)
    n = state.total_peers
    if x_c == 0 or n == 0:
        return 0.0
    num_pieces = params.num_pieces
    seed_term = params.seed_rate / (num_pieces - len(from_type))
    peer_term = 0.0
    for holder_type, count in state.items():
        if piece in holder_type:
            useful = len(holder_type.difference(from_type))
            # ``piece ∈ holder_type`` and ``piece ∉ from_type`` ⇒ useful ≥ 1.
            peer_term += count / useful
    return (x_c / n) * (seed_term + params.peer_rate * peer_term)


def seed_departure_rate(state: SystemState, params: SystemParameters) -> float:
    """Rate ``γ x_F`` at which peer seeds depart (zero when ``γ = ∞``)."""
    if params.immediate_departure:
        return 0.0
    return params.seed_departure_rate * state.num_seeds


def outgoing_transitions(
    state: SystemState, params: SystemParameters
) -> List[Transition]:
    """Enumerate every outgoing transition of ``state`` with its rate.

    The union of these transitions defines the row of the generator matrix at
    ``state`` (excluding the diagonal).  Rates of zero are omitted.
    """
    transitions: List[Transition] = []
    full = PieceSet.full(params.num_pieces)

    for type_c, rate in params.arrival_rates.items():
        if rate > 0:
            transitions.append(
                Transition(
                    kind=TransitionKind.ARRIVAL,
                    rate=rate,
                    target=state.add_peer(type_c),
                    peer_type=type_c,
                )
            )

    if not params.immediate_departure:
        rate = seed_departure_rate(state, params)
        if rate > 0:
            transitions.append(
                Transition(
                    kind=TransitionKind.SEED_DEPARTURE,
                    rate=rate,
                    target=state.remove_peer(full),
                    peer_type=full,
                )
            )

    for from_type, _count in state.items():
        if from_type.is_complete:
            continue
        for piece in from_type.missing():
            rate = upgrade_rate(state, params, from_type, piece)
            if rate <= 0:
                continue
            new_type = from_type.add(piece)
            if new_type.is_complete and params.immediate_departure:
                transitions.append(
                    Transition(
                        kind=TransitionKind.COMPLETION_DEPARTURE,
                        rate=rate,
                        target=state.remove_peer(from_type),
                        peer_type=from_type,
                        piece=piece,
                    )
                )
            else:
                transitions.append(
                    Transition(
                        kind=TransitionKind.UPGRADE,
                        rate=rate,
                        target=state.move_peer(from_type, new_type),
                        peer_type=from_type,
                        piece=piece,
                    )
                )
    return transitions


def transition_function(
    params: SystemParameters,
) -> Callable[[SystemState], List[Tuple[float, SystemState]]]:
    """``state ↦ [(rate, target), ...]``, the form :mod:`repro.markov` takes."""

    def expand(state: SystemState) -> List[Tuple[float, SystemState]]:
        return [(t.rate, t.target) for t in outgoing_transitions(state, params)]

    return expand


def total_exit_rate(state: SystemState, params: SystemParameters) -> float:
    """Total rate out of ``state`` (the negated diagonal generator entry)."""
    return sum(t.rate for t in outgoing_transitions(state, params))


def departure_rate_from_type(
    state: SystemState, params: SystemParameters, from_type: PieceSet
) -> float:
    """``D_C``: aggregate rate at which peers leave the type-``C`` group.

    For ``C ≠ F`` this is ``Σ_i Γ_{C, C∪{i}}``; for ``C = F`` it is ``γ x_F``
    (zero if ``γ = ∞``), matching the definition in Section VII.
    """
    if from_type.is_complete:
        return seed_departure_rate(state, params)
    return sum(
        upgrade_rate(state, params, from_type, piece)
        for piece in from_type.missing()
    )


def total_download_rate(state: SystemState, params: SystemParameters) -> float:
    """``D_total``: aggregate rate of piece downloads across the whole system."""
    total = 0.0
    for from_type, _count in state.items():
        if not from_type.is_complete:
            total += departure_rate_from_type(state, params, from_type)
    return total


def flow_between(
    state: SystemState,
    params: SystemParameters,
    source_types: Tuple[PieceSet, ...],
    target_types: Tuple[PieceSet, ...],
) -> float:
    """``Γ_{X, X'}``: aggregate upgrade rate from types in ``X`` into types in ``X'``."""
    target_set = set(target_types)
    total = 0.0
    for from_type in source_types:
        if from_type.is_complete or state.count(from_type) == 0:
            continue
        for piece in from_type.missing():
            if from_type.add(piece) in target_set:
                total += upgrade_rate(state, params, from_type, piece)
    return total


def transition_rate_matrix_row(
    state: SystemState, params: SystemParameters
) -> Dict[SystemState, float]:
    """Off-diagonal generator entries ``q(x, x')`` for the row at ``state``.

    Transitions that land on the same target state (possible when different
    pieces lead to the same type change, which cannot happen here, but also
    when an arrival and an upgrade coincide, which cannot either) are summed
    defensively.
    """
    row: Dict[SystemState, float] = {}
    for transition in outgoing_transitions(state, params):
        row[transition.target] = row.get(transition.target, 0.0) + transition.rate
    return row


__all__ = [
    "Transition",
    "TransitionKind",
    "upgrade_rate",
    "seed_departure_rate",
    "outgoing_transitions",
    "transition_function",
    "total_exit_rate",
    "departure_rate_from_type",
    "total_download_rate",
    "flow_between",
    "transition_rate_matrix_row",
]
