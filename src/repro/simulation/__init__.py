"""Markov-chain and Poisson-process simulation substrates.

* :mod:`repro.simulation.ctmc` — generic and model-specific jump-chain
  simulators;
* :mod:`repro.simulation.processes` — Poisson / compound-Poisson utilities;
* :mod:`repro.simulation.rng` — reproducible random streams.
"""

from .ctmc import CtmcTrajectory, GenericCtmcSimulator, MarkovChainSimulator
from .processes import (
    CompoundPoissonProcess,
    MarkedPoissonProcess,
    kingman_exceedance_bound,
    thin_poisson_times,
)
from .rng import make_rng, spawn_generators

__all__ = [
    "CompoundPoissonProcess",
    "CtmcTrajectory",
    "GenericCtmcSimulator",
    "MarkedPoissonProcess",
    "MarkovChainSimulator",
    "kingman_exceedance_bound",
    "make_rng",
    "spawn_generators",
    "thin_poisson_times",
]
