"""Foster--Lyapunov machinery (Propositions 18, Lemma 19 of the appendix).

These are generic tools for continuous-time Markov chains given by a
transition-enumeration function:

* :func:`drift` — the generator applied to a function,
  ``QV(x) = Σ_{x'} q(x,x')(V(x') − V(x))``;
* :func:`check_foster_lyapunov` — verify the combined criterion
  ``QV ≤ −f + g`` on a supplied set of states and report the implied moment
  bound ``Σ f π ≤ Σ g π`` structure (Proposition 18);
* :func:`lipschitz_drift_bound` — the bound of Lemma 19 on the drift of a
  smooth function of a function of the state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Sequence, Tuple, TypeVar

StateT = TypeVar("StateT", bound=Hashable)
TransitionFn = Callable[[StateT], Sequence[Tuple[float, StateT]]]


def drift(
    transition_function: TransitionFn,
    function: Callable[[StateT], float],
    state: StateT,
) -> float:
    """Generator drift ``QV(x)`` of ``function`` at ``state``."""
    here = function(state)
    total = 0.0  # a plain loop: ``sum`` of floats rounds differently on 3.12+
    for rate, target in transition_function(state):
        if rate > 0:
            total += rate * (function(target) - here)
    return total


@dataclass(frozen=True)
class FosterCheckResult:
    """Outcome of checking ``QV(x) ≤ −f(x) + g(x)`` over a set of states."""

    num_states: int
    num_satisfied: int
    worst_violation: float
    worst_margin: float

    @property
    def all_satisfied(self) -> bool:
        return self.num_satisfied == self.num_states


def check_foster_lyapunov(
    transition_function: TransitionFn,
    lyapunov: Callable[[StateT], float],
    f: Callable[[StateT], float],
    g: Callable[[StateT], float],
    states: Iterable[StateT],
    tolerance: float = 1e-9,
) -> FosterCheckResult:
    """Check the combined Foster--Lyapunov criterion on the given states.

    For each state the inequality ``QV(x) ≤ −f(x) + g(x) + tolerance`` is
    tested.  Proposition 18 then gives positive recurrence (and the moment
    bound ``Σ_x f(x) π(x) ≤ Σ_x g(x) π(x)``) provided the exceptional set
    ``{f < g + δ}`` is finite — a structural property callers must argue
    separately; this function only reports the pointwise inequality.
    """
    num_states = 0
    num_satisfied = 0
    worst_violation = 0.0
    worst_margin = float("inf")
    for state in states:
        value = drift(transition_function, lyapunov, state)
        bound = -f(state) + g(state)
        margin = bound - value
        num_states += 1
        if value <= bound + tolerance:
            num_satisfied += 1
        else:
            worst_violation = max(worst_violation, value - bound)
        worst_margin = min(worst_margin, margin)
    return FosterCheckResult(
        num_states=num_states,
        num_satisfied=num_satisfied,
        worst_violation=worst_violation,
        worst_margin=worst_margin if num_states else 0.0,
    )


def lipschitz_drift_bound(
    transition_function: TransitionFn,
    inner: Callable[[StateT], float],
    outer_derivative: Callable[[float], float],
    lipschitz_constant: float,
    state: StateT,
) -> float:
    """Upper bound on ``QV(f)(x)`` from Lemma 19.

    For ``V`` differentiable with an ``M``-Lipschitz derivative,

    ``QV(f)(x) ≤ V'(f(x)) Qf(x) + (M/2) Σ q(x,x') (f(x') − f(x))²``.
    """
    here = inner(state)
    drift_inner = 0.0
    quadratic = 0.0
    for rate, target in transition_function(state):
        if rate <= 0:
            continue
        difference = inner(target) - here
        drift_inner += rate * difference
        quadratic += rate * difference * difference
    return outer_derivative(here) * drift_inner + 0.5 * lipschitz_constant * quadratic


__all__ = [
    "FosterCheckResult",
    "check_foster_lyapunov",
    "drift",
    "lipschitz_drift_bound",
]
