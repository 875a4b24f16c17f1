"""repro — reproduction of "Stability of a Peer-to-Peer Communication System".

The package implements the Zhu--Hajek model of an unstructured P2P swarm, the
stability theory of Theorem 1 and its extensions (piece-selection policies,
network coding, the µ = ∞ borderline), a peer-level discrete-event simulator,
the proof substrates (branching processes, Lyapunov functions, queueing
bounds), and an experiment harness reproducing every figure and worked example
of the paper.

Quick start::

    from repro import SystemParameters, analyze, run_swarm

    params = SystemParameters.flash_crowd(
        num_pieces=4, arrival_rate=1.5, seed_rate=2.0,
    )
    print(analyze(params).describe())        # Theorem 1 verdict
    result = run_swarm(params, horizon=200.0, seed=0)
    print(result.metrics.summary())          # simulated behaviour

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured comparisons.
"""

from . import _lazy

__getattr__, __dir__ = _lazy.lazy_exports(
    __name__,
    {
        ".core": (
            "PieceSet",
            "Stability",
            "StabilityReport",
            "SystemParameters",
            "SystemState",
            "analyze",
            "critical_departure_rate",
            "critical_seed_rate",
            "delta_s",
            "is_stable",
            "is_unstable",
            "minimum_mean_dwell_time",
            "piece_threshold",
            "stability_margin",
            "uniform_single_piece_rates",
        ),
        ".fleet": (
            "AdaptiveFleetDriver",
            "AdaptiveFleetSpec",
            "FleetResult",
            "FleetScheduler",
            "FleetSpec",
            "resume_adaptive_fleet",
            "resume_fleet",
            "run_adaptive_fleet",
            "run_fleet",
        ),
        ".swarm": (
            "RandomUsefulSelection",
            "RarestFirstSelection",
            "SequentialSelection",
            "SwarmResult",
            "SwarmSimulator",
            "make_policy",
            "run_swarm",
        ),
    },
)

__version__ = "1.0.0"

__all__ = [
    "AdaptiveFleetDriver",
    "AdaptiveFleetSpec",
    "FleetResult",
    "FleetScheduler",
    "FleetSpec",
    "PieceSet",
    "RandomUsefulSelection",
    "RarestFirstSelection",
    "SequentialSelection",
    "Stability",
    "StabilityReport",
    "SwarmResult",
    "SwarmSimulator",
    "SystemParameters",
    "SystemState",
    "__version__",
    "analyze",
    "critical_departure_rate",
    "critical_seed_rate",
    "delta_s",
    "is_stable",
    "is_unstable",
    "make_policy",
    "minimum_mean_dwell_time",
    "piece_threshold",
    "resume_adaptive_fleet",
    "resume_fleet",
    "run_adaptive_fleet",
    "run_fleet",
    "run_swarm",
    "stability_margin",
    "uniform_single_piece_rates",
]
