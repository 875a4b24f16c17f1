"""Experiment definitions reproducing the paper's figures and worked examples.

One module per experiment of the DESIGN.md index:

* E1 :mod:`repro.experiments.example1`  — Figure 1(a), single piece;
* E2 :mod:`repro.experiments.example2`  — Figure 1(b), two arrival classes;
* E3 :mod:`repro.experiments.example3`  — Figure 1(c), one-piece arrivals;
* E4 :mod:`repro.experiments.one_club`  — Figure 2, missing piece syndrome;
* E5 :mod:`repro.experiments.mu_infinity_exp` — Figure 3, µ = ∞ watched chain;
* E6 :mod:`repro.experiments.coding`    — Theorem 15 worked example;
* E7 :mod:`repro.experiments.policy`    — Theorem 14, policy insensitivity;
* E8 :mod:`repro.experiments.dwell_time` — the one-extra-piece corollary;
* E9 :mod:`repro.experiments.lyapunov_exp` — Section VII drift verification;
* E10 :mod:`repro.experiments.queueing_exp` — appendix bounds;
* E11 :mod:`repro.experiments.scenarios` — one-club dynamics under scenario
  workloads (flash crowd, seed outage, heterogeneous classes, ...);
* E12 :mod:`repro.experiments.fleet` — fleet phase diagram: one-club capture
  prevalence over the ``(λ, U_s)`` plane, per-scenario breakdown;
* E13 :mod:`repro.experiments.topology` — capture prevalence vs. overlay
  degree across contact topologies (vs. the complete-graph baseline);
* E14 :mod:`repro.experiments.gossip` — capture prevalence vs. gossip-census
  staleness under rarest-first (vs. the exact-oracle baseline).

The :mod:`repro.experiments.runner` module provides the shared stability-trial
harness plus the batched :func:`~repro.experiments.runner.run_scenario`
entry point; fleets run through :mod:`repro.fleet`.
"""

from .. import _lazy

__getattr__, __dir__ = _lazy.lazy_exports(
    __name__,
    {
        ".coding": ("CodingResult", "run_coding_experiment"),
        ".dwell_time": ("DwellTimeResult", "run_dwell_time_experiment"),
        ".example1": ("Example1Result", "run_example1"),
        ".example2": ("Example2Result", "run_example2"),
        ".example3": ("Example3Result", "run_example3"),
        ".fleet": ("FleetPhaseDiagramResult", "PhaseCell", "run_fleet_phase_diagram"),
        ".gossip": ("GossipCell", "GossipCensusResult", "run_gossip_census_experiment"),
        ".lyapunov_exp": ("LyapunovResult", "run_lyapunov_experiment"),
        ".mu_infinity_exp": ("MuInfinityResult", "run_mu_infinity_experiment"),
        ".one_club": ("OneClubResult", "run_one_club_experiment"),
        ".policy": ("PolicyResult", "run_policy_experiment"),
        ".queueing_exp": ("QueueingBoundsResult", "run_queueing_bounds_experiment"),
        ".runner": (
            "StabilityTrialResult",
            "SweepResult",
            "run_scenario",
            "run_stability_trial",
            "run_sweep",
        ),
        ".scenarios": (
            "ScenarioDynamicsResult",
            "ScenarioDynamicsRun",
            "run_scenario_dynamics",
        ),
        ".topology": ("TopologyCell", "TopologySweepResult", "run_topology_sweep"),
    },
)

__all__ = [
    "CodingResult",
    "DwellTimeResult",
    "Example1Result",
    "Example2Result",
    "Example3Result",
    "FleetPhaseDiagramResult",
    "GossipCell",
    "GossipCensusResult",
    "LyapunovResult",
    "PhaseCell",
    "MuInfinityResult",
    "OneClubResult",
    "PolicyResult",
    "QueueingBoundsResult",
    "ScenarioDynamicsResult",
    "ScenarioDynamicsRun",
    "StabilityTrialResult",
    "SweepResult",
    "TopologyCell",
    "TopologySweepResult",
    "run_coding_experiment",
    "run_dwell_time_experiment",
    "run_example1",
    "run_example2",
    "run_example3",
    "run_fleet_phase_diagram",
    "run_gossip_census_experiment",
    "run_lyapunov_experiment",
    "run_mu_infinity_experiment",
    "run_one_club_experiment",
    "run_policy_experiment",
    "run_queueing_bounds_experiment",
    "run_scenario",
    "run_scenario_dynamics",
    "run_stability_trial",
    "run_sweep",
    "run_topology_sweep",
]
