r"""Lyapunov functions of the positive-recurrence proof (Section VII).

Two Lyapunov functions are used in the paper:

* ``W`` (Eq. (11)/(12)) for the regime ``0 < µ < γ ≤ ∞``:

  .. math::

     W = \sum_C r^{|C|} T_C,\qquad
     T_C = \tfrac12 E_C^2 + α E_C φ(H_C) \ (C ≠ F),\qquad
     T_F = \tfrac12 n^2,

  where ``E_C`` counts peers that can still become type ``C``, ``H_C`` is the
  stored helping potential of peers outside ``E_C`` and ``φ`` is a clipped
  quadratic ramp;

* ``W'`` (Eq. (43)) for the regime ``0 < γ ≤ µ`` which replaces ``α`` and
  ``H_C`` by a constant ``p`` and the simpler potential
  ``H'_C = Σ_{C' ⊄ C}(K+1−|C'|) x_{C'}``.

This module evaluates both functions and their exact drifts
``QW(x) = Σ_{x'} q(x, x') (W(x') − W(x))`` (:func:`repro.markov.foster.drift`
over the transition enumeration of :mod:`repro.core.transitions`), so the
Foster–Lyapunov negativity can be verified numerically on heavy-load states
(benchmark E9).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..markov import foster
from .parameters import SystemParameters
from .stability import _demand_and_supply
from .state import SystemState
from .transitions import transition_function
from .types import PieceSet, all_types


def phi(value: float, d: float, beta: float) -> float:
    """The clipped ramp ``φ`` of Section VII.

    ``φ`` decreases with slope −1 on ``[0, 2d]``, flattens quadratically on
    ``[2d, 2d + 1/β]`` and is zero beyond; its derivative is Lipschitz with
    constant ``β``.
    """
    if value < 0:
        raise ValueError(f"phi is defined for nonnegative arguments, got {value}")
    knee = 2.0 * d
    upper = knee + 1.0 / beta
    if value <= knee:
        return knee + 1.0 / (2.0 * beta) - value
    if value <= upper:
        return beta / 2.0 * (value - upper) ** 2
    return 0.0


def phi_prime(value: float, d: float, beta: float) -> float:
    """Derivative of :func:`phi` (between −1 and 0)."""
    knee = 2.0 * d
    upper = knee + 1.0 / beta
    if value <= knee:
        return -1.0
    if value <= upper:
        return beta * (value - upper)
    return 0.0


@dataclass(frozen=True)
class LyapunovConfig:
    """Constants ``(r, d, β, α, p)`` of the Lyapunov functions.

    The proof requires ``r ∈ (0, ½)`` small, ``d > 1`` large, ``β ∈ (0, ½)``
    small, ``α ∈ (½, 1)`` close to one with
    ``β ((K + µ/γ)/(1 − µ/γ))² ≤ 1/α − 1``, and ``p`` large enough that
    ``λ_{E_C} − p (U_s + λ^*_{H_C}) < 0`` for every ``C ≠ F``.  Exact values
    only change how large the population must be before the drift turns
    negative; :meth:`default_for` picks values satisfying the constraints.
    """

    r: float = 0.1
    d: float = 10.0
    beta: float = 0.01
    alpha: float = 0.9
    p: float = 1.0

    def __post_init__(self) -> None:
        if not 0 < self.r < 0.5:
            raise ValueError(f"r must lie in (0, 0.5), got {self.r}")
        if not self.d > 1:
            raise ValueError(f"d must exceed 1, got {self.d}")
        if not 0 < self.beta < 0.5:
            raise ValueError(f"beta must lie in (0, 0.5), got {self.beta}")
        if not 0.5 < self.alpha < 1:
            raise ValueError(f"alpha must lie in (0.5, 1), got {self.alpha}")
        if not self.p > 0:
            raise ValueError(f"p must be positive, got {self.p}")

    @classmethod
    def default_for(cls, params: SystemParameters) -> "LyapunovConfig":
        """Constants satisfying the proof's constraints for these parameters.

        ``α`` is chosen adaptively: large enough that, for every subset ``S``
        with positive helping supply, ``λ_{E_S} − α·(amplified supply) < 0``
        (possible whenever ``Δ_S < 0``), but as small as the constraint allows
        so that ``β`` — and with it the flat part of ``φ`` — stays moderate and
        the drift turns negative at moderate population sizes.
        """
        ratio = params.mu_over_gamma
        num_pieces = params.num_pieces
        if ratio < 1.0:
            jump = (num_pieces + ratio) / (1.0 - ratio)
            d = max(5.0, 2.0 * (1.0 + ratio) / (1.0 - ratio), jump + 1.0)
        else:
            jump = float(num_pieces + 1)
            d = max(5.0, jump + 1.0)
        # Smallest alpha that keeps the drift coefficient negative on every
        # heavy-load subset, with head-room; clamped to the proof's (1/2, 1).
        demand_supply_ratio = 0.0
        if ratio < 1.0:
            for type_c in all_types(num_pieces, include_full=False):
                demand, supply = _demand_and_supply(params, type_c, ratio)
                supply /= 1.0 - ratio
                if supply > 0:
                    demand_supply_ratio = max(demand_supply_ratio, demand / supply)
        alpha = min(0.999, max(0.75, (1.0 + min(demand_supply_ratio, 1.0)) / 2.0))
        beta = min(0.1, 0.9 * (1.0 / alpha - 1.0) / (jump * jump))
        beta = max(beta, 1e-9)
        # p chosen so that lambda_{E_C} - p (Us + lambda*_{H_C}) < 0 whenever
        # the supply term is positive; double it for slack.
        p = 1.0
        for type_c in all_types(num_pieces, include_full=False):
            demand, supply = _demand_and_supply(params, type_c, min(ratio, 1.0))
            if supply > 0 and demand > 0:
                p = max(p, 2.0 * demand / supply)
        return cls(r=0.1, d=d, beta=beta, alpha=alpha, p=p)


class LyapunovFunction:
    """Evaluate ``W`` (regime ``µ < γ``) or ``W'`` (regime ``γ ≤ µ``).

    The appropriate variant is selected automatically from the parameters; the
    regime can be forced with ``variant="W"`` or ``variant="Wprime"``.
    """

    def __init__(
        self,
        params: SystemParameters,
        config: Optional[LyapunovConfig] = None,
        variant: Optional[str] = None,
    ):
        self.params = params
        self.config = config if config is not None else LyapunovConfig.default_for(params)
        if variant is None:
            variant = "W" if params.mu_over_gamma < 1.0 else "Wprime"
        if variant not in ("W", "Wprime"):
            raise ValueError(f"variant must be 'W' or 'Wprime', got {variant}")
        if variant == "W" and params.mu_over_gamma >= 1.0:
            raise ValueError("variant 'W' requires mu < gamma")
        self.variant = variant
        include_full = not params.immediate_departure
        self._types: Tuple[PieceSet, ...] = tuple(
            all_types(params.num_pieces, include_full=True)
        )
        self._include_full_term = include_full

    # -- components ----------------------------------------------------------

    def term(self, state: SystemState, type_c: PieceSet) -> float:
        """``T_C`` (or ``T'_C``) evaluated at ``state``."""
        cfg = self.config
        if type_c.is_complete:
            n = state.total_peers
            return 0.5 * n * n
        e_c = state.downward_count(type_c)
        if self.variant == "W":
            h_c = state.helper_potential(type_c, self.params.mu_over_gamma)
            return 0.5 * e_c * e_c + cfg.alpha * e_c * phi(h_c, cfg.d, cfg.beta)
        h_c = state.helper_potential_prime(type_c)
        return 0.5 * e_c * e_c + cfg.p * e_c * phi(h_c, cfg.d, cfg.beta)

    def __call__(self, state: SystemState) -> float:
        """Value of the Lyapunov function at ``state``."""
        cfg = self.config
        total = 0.0
        for type_c in self._types:
            if type_c.is_complete and not self._include_full_term:
                continue
            total += (cfg.r ** len(type_c)) * self.term(state, type_c)
        return total

    # -- drift ---------------------------------------------------------------

    def drift(self, state: SystemState) -> float:
        """Exact generator drift ``QW(x) = Σ_{x'≠x} q(x,x')(W(x') − W(x))``."""
        return foster.drift(transition_function(self.params), self, state)

    def drift_per_peer(self, state: SystemState) -> float:
        """Drift normalised by the population size (the ``−ξ n`` criterion)."""
        n = state.total_peers
        if n == 0:
            return self.drift(state)
        return self.drift(state) / n


def sample_heavy_load_states(
    params: SystemParameters,
    population: int,
    num_states: int,
    rng: Optional[np.random.Generator] = None,
    concentration: float = 0.8,
) -> List[SystemState]:
    """Random heavy-load states with ``population`` peers.

    Each sampled state places a fraction ``concentration`` of the peers in a
    single randomly chosen incomplete type (a class-I style load) and spreads
    the remainder over other random types, mimicking the load distributions
    the proof must control.  One-club states are always included first.
    """
    rng = rng if rng is not None else np.random.default_rng()
    incomplete = all_types(params.num_pieces, include_full=False)
    states: List[SystemState] = []
    for piece in range(1, params.num_pieces + 1):
        states.append(SystemState.one_club(params.num_pieces, population, piece))
        if len(states) >= num_states:
            return states[:num_states]
    allowed_types = list(incomplete)
    if not params.immediate_departure:
        allowed_types = allowed_types + [PieceSet.full(params.num_pieces)]
    while len(states) < num_states:
        main_type = incomplete[rng.integers(len(incomplete))]
        main_count = int(round(concentration * population))
        remaining = population - main_count
        counts = {main_type: main_count}
        while remaining > 0:
            other = allowed_types[rng.integers(len(allowed_types))]
            chunk = int(rng.integers(1, remaining + 1))
            counts[other] = counts.get(other, 0) + chunk
            remaining -= chunk
        states.append(SystemState(counts, params.num_pieces))
    return states


@dataclass
class DriftCheckResult:
    """Outcome of a numerical Foster–Lyapunov drift check."""

    num_states: int
    num_negative: int
    max_drift_per_peer: float
    min_drift_per_peer: float

    @property
    def all_negative(self) -> bool:
        return self.num_negative == self.num_states


def check_negative_drift(
    lyapunov: LyapunovFunction,
    states: Sequence[SystemState],
) -> DriftCheckResult:
    """Evaluate the drift on every state and summarise the signs."""
    drifts = [lyapunov.drift_per_peer(state) for state in states]
    negative = sum(1 for value in drifts if value < 0)
    return DriftCheckResult(
        num_states=len(drifts),
        num_negative=negative,
        max_drift_per_peer=max(drifts) if drifts else 0.0,
        min_drift_per_peer=min(drifts) if drifts else 0.0,
    )


__all__ = [
    "phi",
    "phi_prime",
    "LyapunovConfig",
    "LyapunovFunction",
    "sample_heavy_load_states",
    "DriftCheckResult",
    "check_negative_drift",
]
