"""Core model and theory of the Zhu--Hajek P2P stability paper.

Sub-modules:

* :mod:`repro.core.types` — piece sets and the peer-type lattice;
* :mod:`repro.core.parameters` — :class:`SystemParameters` and example
  constructors;
* :mod:`repro.core.state` — population state :class:`SystemState`;
* :mod:`repro.core.transitions` — the transition rates of Eq. (1);
* :mod:`repro.core.stability` — Theorem 1 (stability region, ``Δ_S``,
  critical parameters);
* :mod:`repro.core.branching` — the autonomous branching system of the
  transience proof;
* :mod:`repro.core.lyapunov` — the Lyapunov functions of the recurrence proof;
* :mod:`repro.core.coding_theory` — Theorem 15 (network coding);
* :mod:`repro.core.generator` — exact truncated-chain computations;
* :mod:`repro.core.scenario` — declarative workloads: heterogeneous peer
  classes, time-varying rate schedules, and the named-scenario registry;
* :mod:`repro.core.schedule_stability` — scenario-aware Theorem-1 reporting
  (piecewise verdicts per schedule segment, conservative whole-run verdict).
"""

from .. import _lazy

__getattr__, __dir__ = _lazy.lazy_exports(
    __name__,
    {
        ".parameters": ("SystemParameters", "uniform_single_piece_rates"),
        ".scenario": (
            "PeerClass",
            "RateSchedule",
            "ScenarioSpec",
            "base_params",
            "flash_exit_scenario",
            "make_scenario",
            "partitioned_scenario",
            "register_scenario",
            "registered_scenarios",
            "sparse_overlay_scenario",
        ),
        ".schedule_stability": (
            "OUT_OF_THEORY",
            "ScheduleStabilityReport",
            "SegmentVerdict",
            "piecewise_stability",
        ),
        ".stability": (
            "Stability",
            "StabilityReport",
            "analyze",
            "critical_departure_rate",
            "critical_seed_rate",
            "delta_s",
            "is_stable",
            "is_unstable",
            "minimum_mean_dwell_time",
            "piece_threshold",
            "stability_margin",
        ),
        ".state": ("SystemState",),
        ".types": ("PieceSet", "all_types", "format_type", "one_club_type"),
    },
)

__all__ = [
    "OUT_OF_THEORY",
    "PeerClass",
    "PieceSet",
    "RateSchedule",
    "ScenarioSpec",
    "ScheduleStabilityReport",
    "SegmentVerdict",
    "SystemParameters",
    "SystemState",
    "Stability",
    "StabilityReport",
    "all_types",
    "analyze",
    "base_params",
    "critical_departure_rate",
    "critical_seed_rate",
    "delta_s",
    "flash_exit_scenario",
    "format_type",
    "is_stable",
    "is_unstable",
    "make_scenario",
    "minimum_mean_dwell_time",
    "one_club_type",
    "partitioned_scenario",
    "piece_threshold",
    "piecewise_stability",
    "register_scenario",
    "registered_scenarios",
    "sparse_overlay_scenario",
    "stability_margin",
    "uniform_single_piece_rates",
]
