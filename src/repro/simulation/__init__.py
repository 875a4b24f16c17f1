"""Markov-chain and Poisson-process simulation substrates.

* :mod:`repro.simulation.ctmc` — generic and model-specific jump-chain
  simulators;
* :mod:`repro.simulation.processes` — Poisson / compound-Poisson utilities;
* :mod:`repro.simulation.rng` — reproducible random streams.
"""

from .. import _lazy

__getattr__, __dir__ = _lazy.lazy_exports(
    __name__,
    {
        ".ctmc": ("CtmcTrajectory", "GenericCtmcSimulator", "MarkovChainSimulator"),
        ".processes": ("CompoundPoissonProcess", "kingman_exceedance_bound"),
        ".rng": ("make_rng", "spawn_generators"),
    },
)

__all__ = [
    "CompoundPoissonProcess",
    "CtmcTrajectory",
    "GenericCtmcSimulator",
    "MarkovChainSimulator",
    "kingman_exceedance_bound",
    "make_rng",
    "spawn_generators",
]
