"""Limiting regimes of the model.

* :mod:`repro.limits.mu_infinity` — the µ = ∞ watched process of Figure 3
  and Section VIII-D (borderline / null-recurrent behaviour);
* :mod:`repro.limits.fluid` — the deterministic fluid ODE limit.
"""

from .. import _lazy

__getattr__, __dir__ = _lazy.lazy_exports(
    __name__,
    {
        ".fluid": ("FluidModel", "FluidTrajectory"),
        ".mu_infinity": (
            "MuInfinityChain",
            "MuInfinityState",
            "finite_mu_symmetric_chain_simulation",
            "negative_binomial_pmf",
        ),
    },
)

__all__ = [
    "FluidModel",
    "FluidTrajectory",
    "MuInfinityChain",
    "MuInfinityState",
    "finite_mu_symmetric_chain_simulation",
    "negative_binomial_pmf",
]
