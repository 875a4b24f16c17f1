"""Shared helpers for the benchmark harness.

Each benchmark regenerates one of the paper's figures / worked examples (see
the per-experiment index in DESIGN.md), prints the paper-vs-measured table to
stdout, and records the wall-clock time of the experiment under
pytest-benchmark.  Experiments are run exactly once per benchmark
(``benchmark.pedantic(..., rounds=1, iterations=1)``) because a single run
already aggregates several stochastic replications.

The harness also maintains the swarm-kernel throughput baseline: after any
benchmark session (and from ``python benchmarks/conftest.py`` directly), the
events-per-second of both simulation backends is measured on two workloads —
the reference homogeneous 10k-peer, ``K = 10`` one-club workload, a
*stable* workload (the stable-side Theorem-1 point, ~650 peers, mostly real
transfers — the only kernel section outside the captured regime), a
scenario workload (heterogeneous fast/slow classes plus a flash-crowd
arrival pulse) exercising the scenario code path — plus an *overlay*
workload (the same one-club shape on a degree-8 tracker overlay, so the
adjacency-gather contact path of both backends sits under the gate) — plus
a *gossip* workload (the one-club shape with policies reading the
flow-updating gossip census, which disables the array kernel's cross-event
batching, so the scalar fallback path sits under the gate) — plus
the *fleet* workload: 200 swarms of 500 one-club peers each (100k peers total, mixed
plain/flash-crowd/free-rider scenario distribution) scheduled through
``repro.fleet`` on the array backend, recording the aggregate events/sec of
the whole fleet — once through the per-swarm path and once through the
stacked mega-kernel (``stacked=True``), whose records are bit-identical, so
both fleet execution paths sit under the CI bench gate — and once with
worker supervision switched on (``fleet.supervised``: ``max_retries=1``, no
injected faults, bit-identical records), so the supervision wrapper's
overhead is gated too — plus a small
*adaptive* boundary-mapping workload driven through the stacked path
(``fleet.stacked_adaptive``).  Each workload is timed a fixed number of
times (``BENCH_REPETITIONS``, 3; fleet workloads use
``FLEET_BENCH_REPETITIONS``, 5, because their repetition spread has been
the widest) and the *median* elapsed time is recorded, so one noisy
repetition cannot skew the committed baseline or trip the CI bench gate.  Everything is written to
``BENCH_swarm.json`` at the repository root, so future PRs can track the
performance trajectory of the object simulator, the array kernel and the
fleet layer side by side.
"""

from __future__ import annotations

import json
import platform
import statistics
import time
from pathlib import Path

import pytest

#: Repetitions per throughput workload; the recorded ``events_per_second``
#: is the median, so a single timer hiccup cannot shift the committed
#: baseline (or trip the CI bench gate).
BENCH_REPETITIONS = 3

#: The fleet workloads get extra repetitions: their recorded repetitions
#: have spanned a 40% spread under machine noise (0.221-0.309 s for the
#: stacked path), enough for a median of 3 to drift close to the 30% gate
#: tolerance.  A median of 5 needs three bad timings out of five to move.
FLEET_BENCH_REPETITIONS = 5

#: The reference workload used for the BENCH_swarm.json baseline.
BENCH_WORKLOAD = {
    "num_pieces": 10,
    "initial_one_club": 10_000,
    "arrival_rate": 5.0,
    "seed_rate": 1.0,
    "peer_rate": 1.0,
    "seed_departure_rate": 2.0,
    "horizon": 5.0,
    "sample_interval": 0.025,
    "max_events": 20_000,
    "seed": 7,
}

#: The scenario workload of the baseline: two peer classes (a fast minority,
#: a slow majority) plus a flash-crowd arrival pulse, so both new kernel code
#: paths (per-class sampling and Poisson thinning) are on the hot path.
SCENARIO_BENCH_WORKLOAD = {
    "num_pieces": 10,
    "initial_one_club": 10_000,
    "arrival_rate": 5.0,
    "seed_rate": 1.0,
    "peer_rate": 1.0,
    "seed_departure_rate": 2.0,
    "fast_contact_rate": 2.0,
    "slow_contact_rate": 0.8,
    "fast_fraction": 0.3,
    "surge_start": 1.0,
    "surge_end": 3.0,
    "surge_factor": 4.0,
    "horizon": 5.0,
    "sample_interval": 0.025,
    "max_events": 20_000,
    "seed": 7,
}

#: The stable-regime workload of the baseline (``stable``): the
#: ``trial-stable`` point of the repository benchmark — a flash crowd on the
#: stable side of the Theorem-1 boundary (λ = 50 < U_s / (1 − µ/γ) = 60),
#: started empty.  The first ``warmup_events`` (the ramp-up to ~650 peers)
#: run untimed; the timed window is the next ``max_events - warmup_events``
#: events, mostly real transfers, so the array kernel's scalar dispatch and
#: its batch-probe gate are the hot path (every other kernel section is a
#: captured one-club).
STABLE_BENCH_WORKLOAD = {
    "num_pieces": 10,
    "arrival_rate": 50.0,
    "seed_rate": 30.0,
    "peer_rate": 1.0,
    "seed_departure_rate": 2.0,
    "horizon": 200.0,
    "sample_interval": 0.5,
    "warmup_events": 10_000,
    "max_events": 50_000,
    "seed": 7,
}

#: The overlay workload of the baseline (``swarm.overlay``): the reference
#: one-club shape with contacts restricted to a degree-8 tracker overlay, so
#: the per-contact neighbor draw (object backend) and the adjacency gather in
#: the batch stage (array backend) are the hot path.
OVERLAY_BENCH_WORKLOAD = {
    "num_pieces": 10,
    "initial_one_club": 10_000,
    "arrival_rate": 5.0,
    "seed_rate": 1.0,
    "peer_rate": 1.0,
    "seed_departure_rate": 2.0,
    "topology": "tracker",
    "degree": 8,
    "horizon": 5.0,
    "sample_interval": 0.025,
    "max_events": 20_000,
    "seed": 7,
}

#: The gossip workload of the baseline (``swarm.gossip``): the reference
#: one-club shape with a flow-updating gossip census in front of the
#: policies.  Gossip consumes one extra uniform per peer tick and keeps the
#: array kernel on its scalar (non-batched) path, so this workload tracks
#: the estimator's bookkeeping plus the cost of losing the batch stage.
GOSSIP_BENCH_WORKLOAD = {
    "num_pieces": 10,
    "initial_one_club": 10_000,
    "arrival_rate": 5.0,
    "seed_rate": 1.0,
    "peer_rate": 1.0,
    "seed_departure_rate": 2.0,
    "exchange_rate": 0.35,
    "damping": 1.0,
    "horizon": 5.0,
    "sample_interval": 0.025,
    "max_events": 20_000,
    "seed": 7,
}

#: The fleet workload of the baseline: >= 200 swarms / >= 100k total peers
#: on the array backend, drawn through a mixed scenario distribution, run
#: serially through the fleet scheduler (serial keeps the measurement free
#: of pool-spawn noise; the aggregate events/sec is the fleet figure of
#: merit).
FLEET_BENCH_WORKLOAD = {
    "num_swarms": 200,
    "num_pieces": 10,
    "initial_one_club": 500,  # 200 x 500 = 100k peers in flight
    "arrival_rate": 5.0,
    "seed_rate": 1.0,
    "peer_rate": 1.0,
    "seed_departure_rate": 2.0,
    "horizon": 5.0,
    "sample_interval": 0.25,
    "max_events_per_swarm": 600,  # 120k events across the fleet
    "seed": 7,
}

#: The adaptive boundary-mapping workload (``fleet.stacked_adaptive``): a
#: small λ x U_s grid sampled by the budget-driven driver with every
#: round-chunk executed through the stacked mega-kernel — the many-short-
#: swarms shape the stacked path exists for.
ADAPTIVE_BENCH_WORKLOAD = {
    "arrival_rates": (0.5, 2.0, 4.0, 6.0),
    "seed_rates": (0.5, 1.0, 2.0),
    "num_pieces": 8,
    "swarm_budget": 96,
    "round_size": 24,
    "horizon": 4.0,
    "max_events_per_swarm": 600,
    "initial_one_club": 100,
    "seed": 7,
}

BENCH_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_swarm.json"

# Throughput results measured earlier in this session (e.g. by the kernel
# smoke benchmarks), reused by emit_bench_baseline so the recorded baseline
# matches the asserted numbers and the workloads are not simulated twice.
_session_measurements: dict = {}
_stable_measurements: dict = {}
_scenario_measurements: dict = {}
_overlay_measurements: dict = {}
_gossip_measurements: dict = {}
_fleet_measurements: dict = {}
_adaptive_measurements: dict = {}


def print_report(capsys, title: str, report: str) -> None:
    """Print an experiment report outside of pytest's capture."""
    with capsys.disabled():
        print()
        print("=" * 78)
        print(title)
        print("=" * 78)
        print(report)
        print()


def run_once(benchmark, func, **kwargs):
    """Run an experiment exactly once under the benchmark timer."""
    return benchmark.pedantic(func, kwargs=kwargs, rounds=1, iterations=1)


def _measure_throughput(spec: dict, backend: str, scenario=None) -> dict:
    """Time repeated runs of ``spec``; record the median-rep measurement.

    The workload is simulated ``BENCH_REPETITIONS`` times (a fresh,
    identically seeded simulator each time, so every repetition produces the
    same trajectory) and the *median* elapsed time becomes the recorded
    figure — robust against one-off timer / scheduler noise.  ``spec`` must
    be stopped by its event cap (events/sec assumes the run was cut off at
    ``max_events``; a horizon-bound run would silently overstate the
    throughput).  A spec without ``initial_one_club`` starts empty; one
    with ``warmup_events`` runs that many events untimed first (suspended
    and resumed, which leaves the trajectory unchanged) and times the rest.
    """
    from repro.core.parameters import SystemParameters
    from repro.core.state import SystemState
    from repro.swarm.swarm import make_simulator

    params = (
        scenario.params
        if scenario is not None
        else SystemParameters.flash_crowd(
            num_pieces=spec["num_pieces"],
            arrival_rate=spec["arrival_rate"],
            seed_rate=spec["seed_rate"],
            peer_rate=spec["peer_rate"],
            seed_departure_rate=spec["seed_departure_rate"],
        )
    )
    club = spec.get("initial_one_club")
    initial = SystemState.one_club(spec["num_pieces"], club) if club else None
    warmup = spec.get("warmup_events", 0)
    timed_events = spec["max_events"] - warmup
    timings = []
    result = simulator = None
    for _ in range(BENCH_REPETITIONS):
        simulator = make_simulator(
            params, seed=spec["seed"], backend=backend, scenario=scenario
        )
        run_kwargs = dict(
            initial_state=initial, sample_interval=spec["sample_interval"]
        )
        if warmup:
            simulator.run(
                spec["horizon"], suspend_after_events=warmup, **run_kwargs
            )
            run_kwargs = dict(resume=True)
        start = time.perf_counter()
        result = simulator.run(
            spec["horizon"], max_events=spec["max_events"], **run_kwargs
        )
        timings.append(time.perf_counter() - start)
        if result.horizon_reached:
            raise RuntimeError(
                "benchmark workload mis-sized: the run reached horizon "
                f"{spec['horizon']} before max_events={spec['max_events']}"
            )
    elapsed = statistics.median(timings)
    measurement = {
        "backend": backend,
        "events": timed_events,
        "elapsed_seconds": round(elapsed, 4),
        "events_per_second": round(timed_events / elapsed, 1),
        "repetitions": [round(t, 4) for t in timings],
        "final_population": result.final_population,
        "thinned_events": result.metrics.thinned_events,
        # Event-rate cache rebuilds of the whole run (deterministic).
        "rate_refreshes": simulator.rate_refreshes,
    }
    if backend == "array":
        # Deterministic batch-stage counters of the whole run (warm-up
        # included): a changed figure for the same seed is a behaviour
        # change, not noise.
        measurement["batch_stage"] = {
            "probes_run": simulator.probes_run,
            "probes_skipped": simulator.probes_skipped,
            "events_batched": simulator.events_batched,
        }
    return measurement


def measure_backend_throughput(backend: str) -> dict:
    """Events/second of one backend on the reference 10k-peer workload."""
    measurement = _measure_throughput(BENCH_WORKLOAD, backend)
    _session_measurements[backend] = measurement
    return measurement


def measure_stable_throughput(backend: str) -> dict:
    """Events/second of one backend on the stable-regime workload."""
    measurement = _measure_throughput(STABLE_BENCH_WORKLOAD, backend)
    _stable_measurements[backend] = measurement
    return measurement


def _scenario_bench_spec():
    """The ScenarioSpec of the scenario smoke workload."""
    from repro.core.parameters import SystemParameters
    from repro.core.scenario import PeerClass, RateSchedule, ScenarioSpec

    spec = SCENARIO_BENCH_WORKLOAD
    params = SystemParameters.flash_crowd(
        num_pieces=spec["num_pieces"],
        arrival_rate=spec["arrival_rate"],
        seed_rate=spec["seed_rate"],
        peer_rate=spec["peer_rate"],
        seed_departure_rate=spec["seed_departure_rate"],
    )
    gamma = spec["seed_departure_rate"]
    return ScenarioSpec(
        name="bench-hetero-flash-crowd",
        params=params,
        classes=(
            PeerClass(
                name="fast",
                contact_rate=spec["fast_contact_rate"],
                seed_departure_rate=gamma,
                arrival_fraction=spec["fast_fraction"],
            ),
            PeerClass(
                name="slow",
                contact_rate=spec["slow_contact_rate"],
                seed_departure_rate=gamma,
                arrival_fraction=1.0 - spec["fast_fraction"],
            ),
        ),
        arrival_schedule=RateSchedule.pulse(
            spec["surge_start"], spec["surge_end"], spec["surge_factor"]
        ),
    )


def measure_scenario_throughput(backend: str) -> dict:
    """Events/second of one backend on the scenario smoke workload."""
    measurement = _measure_throughput(
        SCENARIO_BENCH_WORKLOAD, backend, scenario=_scenario_bench_spec()
    )
    _scenario_measurements[backend] = measurement
    return measurement


def _overlay_bench_spec():
    """The ScenarioSpec of the overlay smoke workload."""
    from repro.core.scenario import make_scenario

    spec = OVERLAY_BENCH_WORKLOAD
    return make_scenario(
        "sparse-overlay",
        topology=spec["topology"],
        degree=spec["degree"],
        num_pieces=spec["num_pieces"],
        arrival_rate=spec["arrival_rate"],
        seed_rate=spec["seed_rate"],
        peer_rate=spec["peer_rate"],
        seed_departure_rate=spec["seed_departure_rate"],
    )


def measure_overlay_throughput(backend: str) -> dict:
    """Events/second of one backend on the tracker-overlay workload."""
    measurement = _measure_throughput(
        OVERLAY_BENCH_WORKLOAD, backend, scenario=_overlay_bench_spec()
    )
    _overlay_measurements[backend] = measurement
    return measurement


def _gossip_bench_spec():
    """The ScenarioSpec of the gossip-census smoke workload."""
    from repro.core.parameters import SystemParameters
    from repro.core.scenario import ScenarioSpec
    from repro.swarm.gossip import CensusSpec

    spec = GOSSIP_BENCH_WORKLOAD
    params = SystemParameters.flash_crowd(
        num_pieces=spec["num_pieces"],
        arrival_rate=spec["arrival_rate"],
        seed_rate=spec["seed_rate"],
        peer_rate=spec["peer_rate"],
        seed_departure_rate=spec["seed_departure_rate"],
    )
    return ScenarioSpec(
        name="bench-gossip",
        params=params,
        census=CensusSpec.gossip(
            exchange_rate=spec["exchange_rate"], damping=spec["damping"]
        ),
    )


def measure_gossip_throughput(backend: str) -> dict:
    """Events/second of one backend on the gossip-census workload."""
    measurement = _measure_throughput(
        GOSSIP_BENCH_WORKLOAD, backend, scenario=_gossip_bench_spec()
    )
    _gossip_measurements[backend] = measurement
    return measurement


def _fleet_bench_spec():
    """The FleetSpec of the fleet throughput workload."""
    from repro.fleet import FixedSampler, FleetSpec, ScenarioWeight

    spec = FLEET_BENCH_WORKLOAD
    return FleetSpec(
        name="bench-fleet",
        num_swarms=spec["num_swarms"],
        sampler=FixedSampler.of(
            num_pieces=spec["num_pieces"],
            arrival_rate=spec["arrival_rate"],
            seed_rate=spec["seed_rate"],
            peer_rate=spec["peer_rate"],
            seed_departure_rate=spec["seed_departure_rate"],
        ),
        scenario_mix=(
            ScenarioWeight.of(None, weight=2.0),
            ScenarioWeight.of(
                "flash-crowd", weight=1.0, surge_start=1.0, surge_end=3.0
            ),
            ScenarioWeight.of("free-rider", weight=1.0, leech_fraction=0.5),
        ),
        horizon=spec["horizon"],
        sample_interval=spec["sample_interval"],
        max_events=spec["max_events_per_swarm"],
        backend="array",
        initial_club_size=spec["initial_one_club"],
    )


def measure_fleet_throughput(workers=None, stacked=False, supervised=False) -> dict:
    """Aggregate events/second of the 200-swarm / 100k-peer fleet workload.

    Like the kernel workloads, the fleet is run a fixed number of times
    (``FLEET_BENCH_REPETITIONS``; deterministic, identical results) and the
    median elapsed time is recorded.  ``stacked=True`` runs every chunk
    through one ``StackedSwarmKernel`` — the records (and hence all
    non-timing fields) are bit-identical to the per-swarm path, only the
    clock differs.  ``supervised=True`` turns on worker supervision
    (``max_retries=1``) so the retry/bookkeeping wrapper of the supervised
    execution path sits under the gate; with no injected faults the result
    is again bit-identical, only the supervision overhead is measured.
    """
    from repro.fleet import run_fleet

    spec = FLEET_BENCH_WORKLOAD
    fleet_spec = _fleet_bench_spec()
    timings = []
    result = None
    for _ in range(FLEET_BENCH_REPETITIONS):
        start = time.perf_counter()
        result = run_fleet(
            fleet_spec,
            seed=spec["seed"],
            workers=workers,
            stacked=stacked,
            max_retries=1 if supervised else 0,
        )
        timings.append(time.perf_counter() - start)
    elapsed = statistics.median(timings)
    measurement = {
        "backend": "array",
        "stacked": stacked,
        "supervised": supervised,
        "num_swarms": spec["num_swarms"],
        "total_initial_peers": spec["num_swarms"] * spec["initial_one_club"],
        "workers": workers or 1,
        "events": result.total_events,
        "elapsed_seconds": round(elapsed, 4),
        "events_per_second": round(result.total_events / elapsed, 1),
        "repetitions": [round(t, 4) for t in timings],
        "one_club_prevalence": round(result.prevalence(), 4),
        "scenarios": {
            name: census.swarms for name, census in sorted(result.per_scenario.items())
        },
    }
    key = "supervised" if supervised else ("stacked" if stacked else "array")
    _fleet_measurements[key] = measurement
    return measurement


def _adaptive_bench_spec():
    """The AdaptiveFleetSpec of the stacked-adaptive throughput workload."""
    from repro.fleet.adaptive import AdaptiveFleetSpec

    spec = ADAPTIVE_BENCH_WORKLOAD
    return AdaptiveFleetSpec.of(
        "bench-adaptive",
        arrival_rates=spec["arrival_rates"],
        seed_rates=spec["seed_rates"],
        num_pieces=spec["num_pieces"],
        swarm_budget=spec["swarm_budget"],
        round_size=spec["round_size"],
        horizon=spec["horizon"],
        max_events=spec["max_events_per_swarm"],
        initial_club_size=spec["initial_one_club"],
    )


def measure_stacked_adaptive_throughput() -> dict:
    """Aggregate events/second of the adaptive driver on the stacked path.

    Same protocol as the fixed fleet workloads: ``FLEET_BENCH_REPETITIONS``
    deterministic repetitions, median elapsed time recorded.  The records —
    and hence the sampled-point trail and boundary estimate — are
    bit-identical to a ``stacked=False`` run, so this entry tracks only the
    stacked path's clock on the adaptive round shape.
    """
    from repro.fleet.adaptive import run_adaptive_fleet

    spec = ADAPTIVE_BENCH_WORKLOAD
    adaptive_spec = _adaptive_bench_spec()
    timings = []
    result = None
    for _ in range(FLEET_BENCH_REPETITIONS):
        start = time.perf_counter()
        result = run_adaptive_fleet(adaptive_spec, seed=spec["seed"], stacked=True)
        timings.append(time.perf_counter() - start)
    elapsed = statistics.median(timings)
    events = sum(record.events for record in result.fleet.records)
    measurement = {
        "backend": "array",
        "stacked": True,
        "swarms_sampled": len(result.fleet.records),
        "rounds": len(result.rounds),
        "stopped": result.stopped,
        "events": events,
        "elapsed_seconds": round(elapsed, 4),
        "events_per_second": round(events / elapsed, 1),
        "repetitions": [round(t, 4) for t in timings],
    }
    _adaptive_measurements["stacked"] = measurement
    return measurement


def emit_bench_baseline(path: Path = BENCH_OUTPUT) -> dict:
    """Write the BENCH_swarm.json baseline, measuring any backend/workload
    combination not already measured in this session."""
    backends = {
        backend: _session_measurements.get(backend)
        or measure_backend_throughput(backend)
        for backend in ("object", "array")
    }
    stable_backends = {
        backend: _stable_measurements.get(backend)
        or measure_stable_throughput(backend)
        for backend in ("object", "array")
    }
    scenario_backends = {
        backend: _scenario_measurements.get(backend)
        or measure_scenario_throughput(backend)
        for backend in ("object", "array")
    }
    overlay_backends = {
        backend: _overlay_measurements.get(backend)
        or measure_overlay_throughput(backend)
        for backend in ("object", "array")
    }
    gossip_backends = {
        backend: _gossip_measurements.get(backend)
        or measure_gossip_throughput(backend)
        for backend in ("object", "array")
    }
    speedup = (
        backends["array"]["events_per_second"]
        / backends["object"]["events_per_second"]
    )
    scenario_speedup = (
        scenario_backends["array"]["events_per_second"]
        / scenario_backends["object"]["events_per_second"]
    )
    overlay_speedup = (
        overlay_backends["array"]["events_per_second"]
        / overlay_backends["object"]["events_per_second"]
    )
    gossip_speedup = (
        gossip_backends["array"]["events_per_second"]
        / gossip_backends["object"]["events_per_second"]
    )
    fleet = _fleet_measurements.get("array") or measure_fleet_throughput()
    fleet_stacked = _fleet_measurements.get("stacked") or measure_fleet_throughput(
        stacked=True
    )
    fleet_supervised = _fleet_measurements.get(
        "supervised"
    ) or measure_fleet_throughput(supervised=True)
    stacked_adaptive = (
        _adaptive_measurements.get("stacked") or measure_stacked_adaptive_throughput()
    )
    baseline = {
        "workload": dict(BENCH_WORKLOAD),
        "backends": backends,
        "array_speedup_over_object": round(speedup, 2),
        "stable": {
            "workload": dict(STABLE_BENCH_WORKLOAD),
            "backends": stable_backends,
            "array_speedup_over_object": round(
                stable_backends["array"]["events_per_second"]
                / stable_backends["object"]["events_per_second"],
                2,
            ),
        },
        "scenario": {
            "workload": dict(SCENARIO_BENCH_WORKLOAD),
            "backends": scenario_backends,
            "array_speedup_over_object": round(scenario_speedup, 2),
        },
        "overlay": {
            "workload": dict(OVERLAY_BENCH_WORKLOAD),
            "backends": overlay_backends,
            "array_speedup_over_object": round(overlay_speedup, 2),
        },
        "gossip": {
            "workload": dict(GOSSIP_BENCH_WORKLOAD),
            "backends": gossip_backends,
            "array_speedup_over_object": round(gossip_speedup, 2),
        },
        "fleet": {
            "workload": dict(FLEET_BENCH_WORKLOAD),
            "array": fleet,
            "stacked": fleet_stacked,
            "stacked_speedup_over_per_swarm": round(
                fleet_stacked["events_per_second"] / fleet["events_per_second"], 2
            ),
            "supervised": fleet_supervised,
            "supervised_slowdown_over_unsupervised": round(
                fleet["events_per_second"]
                / fleet_supervised["events_per_second"],
                2,
            ),
            "stacked_adaptive": {
                "workload": {
                    key: list(value) if isinstance(value, tuple) else value
                    for key, value in ADAPTIVE_BENCH_WORKLOAD.items()
                },
                **stacked_adaptive,
            },
        },
        "python": platform.python_version(),
    }
    path.write_text(json.dumps(baseline, indent=2) + "\n")
    return baseline


def pytest_sessionfinish(session, exitstatus):
    """Refresh the swarm throughput baseline after a benchmark session."""
    if getattr(session.config.option, "collectonly", False):
        return
    bench_root = Path(__file__).resolve().parent
    items = getattr(session, "items", None) or []
    ran_benchmarks = any(
        bench_root in Path(str(item.fspath)).parents for item in items
    )
    if not ran_benchmarks or exitstatus != 0:
        return
    baseline = emit_bench_baseline()
    print(
        f"\nBENCH_swarm.json refreshed: array backend at "
        f"{baseline['backends']['array']['events_per_second']:,.0f} ev/s "
        f"({baseline['array_speedup_over_object']:.1f}x over object); "
        f"stable workload at "
        f"{baseline['stable']['backends']['array']['events_per_second']:,.0f} ev/s "
        f"({baseline['stable']['array_speedup_over_object']:.1f}x); "
        f"scenario workload at "
        f"{baseline['scenario']['backends']['array']['events_per_second']:,.0f} ev/s "
        f"({baseline['scenario']['array_speedup_over_object']:.1f}x); "
        f"overlay workload at "
        f"{baseline['overlay']['backends']['array']['events_per_second']:,.0f} ev/s "
        f"({baseline['overlay']['array_speedup_over_object']:.1f}x); "
        f"gossip workload at "
        f"{baseline['gossip']['backends']['array']['events_per_second']:,.0f} ev/s "
        f"({baseline['gossip']['array_speedup_over_object']:.1f}x); "
        f"fleet ({baseline['fleet']['array']['num_swarms']} swarms, "
        f"{baseline['fleet']['array']['total_initial_peers'] // 1000}k peers) at "
        f"{baseline['fleet']['array']['events_per_second']:,.0f} ev/s per-swarm, "
        f"{baseline['fleet']['stacked']['events_per_second']:,.0f} ev/s stacked "
        f"({baseline['fleet']['stacked_speedup_over_per_swarm']:.2f}x)"
    )


if __name__ == "__main__":
    print(json.dumps(emit_bench_baseline(), indent=2))
