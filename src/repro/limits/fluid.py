r"""Deterministic fluid limit of the population dynamics.

Scaling arrival rates and the initial state by a factor that grows to infinity
turns the population chain into a vector ODE (the approach of Massoulié &
Vojnovic [11]).  With the same functional form of the transfer rates as
Eq. (1) the fluid equations are

.. math::

   \dot x_C = λ_C + \sum_{i ∈ C} Γ_{C−\{i\}, C}(x)
             - \sum_{i ∉ C} Γ_{C, C∪\{i\}}(x) - γ x_F 1_{C=F},

with the convention that the inflow into ``F`` is a departure when ``γ = ∞``.
The fluid model is useful for intuition and for locating the quasi-stable
behaviour of provably-transient systems (Section IX), and serves as an extra
consistency check on the stochastic simulators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.parameters import SystemParameters
from ..core.types import PieceSet, all_types, canonical_type_order


@dataclass
class FluidTrajectory:
    """Solution of the fluid ODE on a time grid."""

    times: np.ndarray
    concentrations: np.ndarray  # shape (num_types, num_times)
    type_order: Tuple[PieceSet, ...]

    def total_mass(self) -> np.ndarray:
        """Total fluid population over time."""
        return self.concentrations.sum(axis=0)

    def mass_of(self, type_c: PieceSet) -> np.ndarray:
        index = self.type_order.index(type_c)
        return self.concentrations[index]

    def final_state(self) -> Dict[PieceSet, float]:
        return {
            type_c: float(self.concentrations[i, -1])
            for i, type_c in enumerate(self.type_order)
        }


class FluidModel:
    """Right-hand side and integrator of the fluid limit."""

    def __init__(self, params: SystemParameters):
        self.params = params
        self.type_order = canonical_type_order(params.num_pieces, include_full=True)
        self._index = {t: i for i, t in enumerate(self.type_order)}
        self._full = PieceSet.full(params.num_pieces)

    def _transfer_rate(
        self, concentrations: np.ndarray, from_type: PieceSet, piece: int
    ) -> float:
        """Fluid analogue of Eq. (1) for the flow ``C → C ∪ {piece}``."""
        x_c = concentrations[self._index[from_type]]
        if x_c <= 0:
            return 0.0
        seed_term = self.params.seed_rate / (self.params.num_pieces - len(from_type))
        peer_term = 0.0
        for holder, j in self._index.items():
            if piece in holder:
                mass = concentrations[j]
                if mass > 0:
                    peer_term += mass / len(holder.difference(from_type))
        # The share x_c / total jumps from 1 to 0 when a type holding all
        # the mass empties, and the solver then chatters on x_c = 0 without
        # end (K=2, λ=1, U_s=2 from the empty state).  Flooring the
        # denominator at the default ``atol`` makes the share continuous.
        total = concentrations.sum() + 1e-8
        return (x_c / total) * (seed_term + self.params.peer_rate * peer_term)

    def rhs(self, _time: float, concentrations: np.ndarray) -> np.ndarray:
        """Time derivative of the fluid state."""
        x = np.clip(concentrations, 0.0, None)
        derivative = np.zeros_like(x)
        for type_c, index in self._index.items():
            derivative[index] += self.params.arrival_rate(type_c)
        for from_type, index in self._index.items():
            if from_type.is_complete:
                continue
            for piece in from_type.missing():
                rate = self._transfer_rate(x, from_type, piece)
                if rate <= 0:
                    continue
                target = from_type.add(piece)
                derivative[index] -= rate
                if target.is_complete and self.params.immediate_departure:
                    continue  # mass leaves the system on completion
                derivative[self._index[target]] += rate
        if not self.params.immediate_departure:
            full_index = self._index[self._full]
            derivative[full_index] -= self.params.seed_departure_rate * x[full_index]
        return derivative

    def integrate(
        self,
        horizon: float,
        initial: Optional[Dict[PieceSet, float]] = None,
        num_samples: int = 200,
        rtol: float = 1e-6,
        atol: float = 1e-8,
    ) -> FluidTrajectory:
        """Integrate the fluid ODE on ``[0, horizon]``."""
        from scipy.integrate import solve_ivp

        if horizon <= 0:
            raise ValueError("horizon must be positive")
        x0 = np.zeros(len(self.type_order))
        if initial:
            for type_c, mass in initial.items():
                x0[self._index[type_c]] = mass
        times = np.linspace(0.0, horizon, num_samples)
        solution = solve_ivp(
            self.rhs,
            t_span=(0.0, horizon),
            y0=x0,
            t_eval=times,
            rtol=rtol,
            atol=atol,
            method="LSODA",
        )
        if not solution.success:
            raise RuntimeError(f"fluid integration failed: {solution.message}")
        return FluidTrajectory(
            times=solution.t,
            concentrations=np.clip(solution.y, 0.0, None),
            type_order=self.type_order,
        )


__all__ = ["FluidModel", "FluidTrajectory"]
