"""Queueing substrates used by the proofs (appendix of the paper).

* :mod:`repro.queueing.mgi_inf` — M/GI/∞ queue simulation, stationary mean,
  and the maximal bound of Lemma 21;
* Kingman's compound-Poisson moment bound lives in
  :mod:`repro.simulation.processes` and is re-exported here for convenience.
"""

from .. import _lazy

__getattr__, __dir__ = _lazy.lazy_exports(
    __name__,
    {
        "..simulation.processes": (
            "CompoundPoissonProcess",
            "kingman_exceedance_bound",
        ),
        ".mgi_inf": (
            "MGInfinityQueue",
            "MGInfinityTrajectory",
            "erlang_plus_exponential_mean",
            "erlang_plus_exponential_sampler",
            "maximal_exceedance_bound",
            "stationary_mean",
        ),
    },
)

__all__ = [
    "CompoundPoissonProcess",
    "MGInfinityQueue",
    "MGInfinityTrajectory",
    "erlang_plus_exponential_mean",
    "erlang_plus_exponential_sampler",
    "kingman_exceedance_bound",
    "maximal_exceedance_bound",
    "stationary_mean",
]
