"""Generic Markov-chain tooling.

* :mod:`repro.markov.chain` — generators, stationary laws, hitting times,
  uniformization on finite state sets;
* :mod:`repro.markov.foster` — Foster--Lyapunov criterion and drift bounds
  (appendix Propositions 18 and Lemma 19);
* :mod:`repro.markov.classify` — empirical stable/unstable classification of
  simulated trajectories.
"""

from .. import _lazy

__getattr__, __dir__ = _lazy.lazy_exports(
    __name__,
    {
        ".chain": (
            "build_generator",
            "expected_hitting_times",
            "stationary_distribution",
            "transient_distribution",
            "uniformized_transition_matrix",
        ),
        ".classify": (
            "TrajectoryClassification",
            "TrajectoryVerdict",
            "classify_trajectory",
            "majority_verdict",
        ),
        ".foster": (
            "FosterCheckResult",
            "check_foster_lyapunov",
            "drift",
            "lipschitz_drift_bound",
        ),
    },
)

__all__ = [
    "FosterCheckResult",
    "TrajectoryClassification",
    "TrajectoryVerdict",
    "build_generator",
    "check_foster_lyapunov",
    "classify_trajectory",
    "drift",
    "expected_hitting_times",
    "lipschitz_drift_bound",
    "majority_verdict",
    "stationary_distribution",
    "transient_distribution",
    "uniformized_transition_matrix",
]
