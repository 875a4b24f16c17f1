"""The four benchmark workloads: inputs from the seed, the user call, checks.

Each workload is one thing a user of the library waits for:

* ``trial-stable`` — a Theorem-1 stability trial on the stable side of the
  boundary (``λ = 50 < U_s / (1 - µ/γ) = 60``), started empty.  About 600
  peers and mostly useful contacts, so the array kernel's scalar dispatch and
  its failing batch probes dominate.
* ``trial-captured`` — the same rates with ``U_s = 10`` (threshold 20),
  started from a 10k-peer one-club.  Almost every contact is wasted, so the
  vectorised batch stage dominates (seeding the club is a bulk fill).
* ``fleet-census`` — ``run_fleet`` over the phase-diagram plane at
  ``workers = nproc`` with checkpointing: one pool, long chunks, both regimes.
* ``adaptive-map`` — ``run_adaptive_fleet`` on the same plane with many short
  swarms: one pool start per round, small chunks, per-swarm build/record cost
  and the acquisition step.

Everything that touches the library is imported inside the functions, so a
fresh interpreter pays the imports where ``setup_s`` measures them.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import Any, Dict, List

WORKLOADS = ("trial-stable", "trial-captured", "fleet-census", "adaptive-map")

#: ``full`` is what the benchmark measures; ``tiny`` is what the harness
#: self-test runs (same code paths, seconds instead of minutes).
SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "full": {
        "trial-stable": {"horizon": 200.0, "replications": 1},
        "trial-captured": {"horizon": 40.0, "replications": 2, "club": 10_000},
        "fleet-census": {"swarms_per_cell": 12, "horizon": 60.0, "club": 30},
        "adaptive-map": {
            "budget": 480, "round_size": 48, "horizon": 10.0, "club": 10,
        },
    },
    "tiny": {
        "trial-stable": {"horizon": 8.0, "replications": 2},
        "trial-captured": {"horizon": 2.0, "replications": 2, "club": 300},
        "fleet-census": {"swarms_per_cell": 1, "horizon": 5.0, "club": 10},
        "adaptive-map": {
            "budget": 24, "round_size": 8, "horizon": 3.0, "club": 5,
        },
    },
}

#: The phase-diagram plane of ``run_fleet_phase_diagram`` (E12).
ARRIVAL_RATES = (0.8, 1.6, 2.4, 3.2)
SEED_RATES = (0.5, 1.5)

#: Population cap of ``run_stability_trial`` (its default, passed explicitly
#: so the traced replay uses the identical value).
TRIAL_MAX_POPULATION = 20_000


def kind_of(name: str) -> str:
    """``"trial"``, ``"fleet"`` or ``"adaptive"``."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    return "trial" if name.startswith("trial-") else name.split("-")[0]


def nproc() -> int:
    """CPUs this process may run on, capped at 8 so a large host does not
    fork dozens of pool workers for a 96-swarm census."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return min(cpus, 8)


def units(name: str, size: str = "full") -> int:
    """Replications (trials) or swarms (fleets) one user call attempts."""
    sizes = SIZES[size][name]
    kind = kind_of(name)
    if kind == "trial":
        return sizes["replications"]
    if kind == "fleet":
        return len(ARRIVAL_RATES) * len(SEED_RATES) * sizes["swarms_per_cell"]
    return sizes["budget"]


def user_workers(name: str) -> int:
    """Worker count of the user call: trials are serial, fleets use nproc."""
    return 1 if kind_of(name) == "trial" else nproc()


def digest(value: Any) -> str:
    """Stable hex digest of a value built from tuples, strings and numbers."""
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()[:32]


# -- inputs -------------------------------------------------------------------


def build_inputs(name: str, size: str = "full") -> Dict[str, Any]:
    """The workload's inputs: parameters, initial state or fleet spec."""
    sizes = SIZES[size][name]
    kind = kind_of(name)
    if kind == "trial":
        from repro.core.parameters import SystemParameters
        from repro.core.state import SystemState

        seed_rate = 30.0 if name == "trial-stable" else 10.0
        params = SystemParameters.flash_crowd(
            10, arrival_rate=50.0, seed_rate=seed_rate, peer_rate=1.0,
            seed_departure_rate=2.0,
        )
        initial = (
            SystemState.one_club(10, sizes["club"]) if "club" in sizes else None
        )
        return {
            "params": params,
            "initial_state": initial,
            "horizon": sizes["horizon"],
            "replications": sizes["replications"],
        }
    from repro.experiments.fleet import DEFAULT_MIX

    if kind == "fleet":
        from repro.fleet.spec import FleetSpec, GridSampler

        sampler = GridSampler.of(
            {"arrival_rate": ARRIVAL_RATES, "seed_rate": SEED_RATES},
            num_pieces=5,
        )
        spec = FleetSpec(
            name="phase-diagram",
            num_swarms=sampler.grid_size * sizes["swarms_per_cell"],
            sampler=sampler,
            scenario_mix=DEFAULT_MIX,
            horizon=sizes["horizon"],
            max_events=20_000,
            max_population=5_000,
            backend="array",
            initial_club_size=sizes["club"],
        )
        return {"spec": spec}
    from repro.fleet.adaptive import AdaptiveFleetSpec

    spec = AdaptiveFleetSpec(
        name="adaptive-phase-diagram",
        arrival_rates=ARRIVAL_RATES,
        seed_rates=SEED_RATES,
        scenario_mix=DEFAULT_MIX,
        num_pieces=5,
        swarm_budget=sizes["budget"],
        round_size=sizes["round_size"],
        # A tolerance no 480-swarm posterior can reach: the map always runs
        # to its swarm budget, so every seed does the same amount of work.
        variance_tol=1e-6,
        horizon=sizes["horizon"],
        max_events=20_000,
        max_population=5_000,
        backend="array",
        initial_club_size=sizes["club"],
    )
    return {"spec": spec}


def user_chunk_size(name: str, inputs: Dict[str, Any]) -> int:
    """The chunk size the fleet entry point picks at ``workers = nproc``."""
    spec = inputs["spec"]
    if kind_of(name) == "fleet":
        from repro.fleet.scheduler import FleetScheduler

        return FleetScheduler(spec, workers=nproc()).chunk_size
    from repro.fleet.adaptive import AdaptiveFleetDriver

    return AdaptiveFleetDriver(spec, workers=nproc()).chunk_size


# -- the user call -------------------------------------------------------------


def entry_point(name: str):
    """The library function a user calls for this workload (imported here,
    during set-up, so its import is not charged to the timed call)."""
    kind = kind_of(name)
    if kind == "trial":
        from repro.experiments.runner import run_stability_trial

        return run_stability_trial
    if kind == "fleet":
        from repro.fleet.scheduler import run_fleet

        return run_fleet
    from repro.fleet.adaptive import run_adaptive_fleet

    return run_adaptive_fleet


def user_call(
    name: str,
    call,
    inputs: Dict[str, Any],
    seed: int,
    workers: int,
    workdir: Path,
    chunk_size: "int | None" = None,
    stacked: bool = False,
):
    """What a user runs: one trial, one fleet census or one adaptive map.

    ``call`` is :func:`entry_point` of the workload.
    """
    if kind_of(name) == "trial":
        return call(
            inputs["params"],
            horizon=inputs["horizon"],
            replications=inputs["replications"],
            seed=seed,
            initial_state=inputs["initial_state"],
            max_population=TRIAL_MAX_POPULATION,
            keep_results=True,
            backend="array",
            workers=workers,
        )
    return call(
        inputs["spec"],
        seed=seed,
        workers=workers,
        chunk_size=chunk_size,
        checkpoint_path=workdir / "fleet.ckpt",
        stacked=stacked,
    )


# -- outputs -------------------------------------------------------------------


def summarize(name: str, output) -> Dict[str, Any]:
    """Digest, event count, unit counts and the values the checks read.

    ``digest`` covers every output a user reads: trial verdicts and the
    per-replication statistics they rest on; the fleet fingerprint; the
    adaptive fingerprint plus the round trail.  Two runs of the same code on
    the same seed must produce the same digest.
    """
    kind = kind_of(name)
    if kind == "trial":
        replications = tuple(
            (
                c.verdict.value, c.normalized_slope, c.trailing_mean,
                c.trailing_minimum, c.peak, r.events_executed,
                r.final_population, r.final_time, r.horizon_reached,
                r.metrics.total_arrivals, r.metrics.total_departures,
                r.metrics.total_downloads, r.metrics.wasted_contacts,
                tuple(r.metrics.population),
            )
            for c, r in zip(output.classifications, output.results)
        )
        return {
            "digest": digest((
                output.theory.verdict.value, output.empirical_verdict.value,
                output.mean_normalized_slope, output.mean_population,
                replications,
            )),
            "events": sum(r.events_executed for r in output.results),
            "attempted": len(output.classifications),
            "failed": 0,
            "theory": output.theory.verdict.value,
            "empirical": output.empirical_verdict.value,
            "replication_verdicts": [c.verdict.value for c in output.classifications],
        }
    fleet = output if kind == "fleet" else output.fleet
    summary = {
        "attempted": len(fleet.records),
        "failed": fleet.failed_count,
        "events": fleet.total_events,
        "complete": fleet.complete,
        "prevalence": fleet.prevalence(),
    }
    if kind == "fleet":
        summary["digest"] = digest(fleet.fingerprint())
        summary["expected_swarms"] = fleet.num_swarms
        return summary
    summary["digest"] = digest((output.fingerprint(), output.rounds))
    summary["expected_swarms"] = output.spec.swarm_budget
    summary["stopped"] = output.stopped
    summary["rounds"] = len(output.rounds)
    return summary


def check_summary(name: str, summary: Dict[str, Any]) -> List[str]:
    """Output checks of one run; returns the list of failures (empty = ok)."""
    errors: List[str] = []
    if summary["failed"]:
        errors.append(f"{summary['failed']} of {summary['attempted']} units failed")
    if kind_of(name) == "trial":
        theory = summary["theory"]
        if theory not in ("stable", "unstable"):
            errors.append(f"Theorem-1 verdict {theory!r} is not decisive")
        if summary["empirical"] != theory:
            errors.append(
                f"empirical verdict {summary['empirical']!r} (replications "
                f"{summary['replication_verdicts']}) does not match the "
                f"Theorem-1 verdict {theory!r}"
            )
        return errors
    if not summary["complete"] or summary["attempted"] != summary["expected_swarms"]:
        errors.append(
            f"{summary['attempted']} of {summary['expected_swarms']} swarms "
            f"recorded (complete={summary['complete']})"
        )
    if kind_of(name) == "adaptive" and summary["stopped"] != "swarm-budget":
        errors.append(
            f"adaptive map stopped on {summary['stopped']!r}, not on its "
            f"swarm budget"
        )
    return errors
