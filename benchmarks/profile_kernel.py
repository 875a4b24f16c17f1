"""Profile the swarm-kernel hot path: cProfile plus a per-phase timing table.

Future perf PRs should start from data, not guesses.  This script runs the
reference ``BENCH_WORKLOAD`` (or the scenario variant) twice:

1. under ``cProfile``, printing the top functions by cumulative time, and
2. with lightweight phase instrumentation, timing the three stages of the
   event loop —

   * **draw** — pre-drawing uniform blocks (``DrawBuffer._refill``: the only
     place the numpy ``Generator`` is touched),
   * **apply** — event application, split into the vectorized batch stage
     (``_batch_stage``) and the scalar dispatch (``_apply_event``),
   * **census** — sample-grid metric recording (``_record_until``)

   — and printing a phase / calls / seconds / share table.  Whatever is left
   over is the residual scalar loop (rate recomputation, bound checks).

With ``--stacked`` the script profiles the *fleet* workload
(``FLEET_BENCH_WORKLOAD``) through one ``StackedSwarmKernel`` instead of a
solo kernel — the phase table then splits the stacked round loop into its
three steps (per-lane advance through the lane's solo loop, window
classification, window apply) and lists the work they nest — the solo batch
stage, scalar dispatch, thinned batches, block refills, sampling, the
heterogeneous ticker walk — below them.  ``--events`` caps
every lane and ``--block-size`` sets every lane's draw block; the workload
flags and ``--backend object`` do not apply to the fleet workload.

Usage::

    PYTHONPATH=src python benchmarks/profile_kernel.py
    PYTHONPATH=src python benchmarks/profile_kernel.py --backend object
    PYTHONPATH=src python benchmarks/profile_kernel.py --scenario --events 100000
    PYTHONPATH=src python benchmarks/profile_kernel.py --topology     # tracker overlay
    PYTHONPATH=src python benchmarks/profile_kernel.py --stable       # stable regime
    PYTHONPATH=src python benchmarks/profile_kernel.py --block-size 1   # scalar draws
    PYTHONPATH=src python benchmarks/profile_kernel.py --stacked        # fleet mega-kernel
    PYTHONPATH=src python benchmarks/profile_kernel.py --stacked --skip-cprofile  # CI smoke
    PYTHONPATH=src python benchmarks/profile_kernel.py --skip-cprofile  # CI smoke
    PYTHONPATH=src python benchmarks/profile_kernel.py --topology --skip-cprofile  # CI smoke

With ``--topology`` the phase table gains overlay rows — arrival wiring,
churn rewiring and the per-contact neighbor draw — so overlay overhead is
attributable next to the draw/apply/census split.  On the array backend
the table is followed by the kernel's deterministic counters: probes run
(and how many escalated past the scalar walk to the array classification),
entries skipped by the yield gate, events batched, and rate-cache refreshes.  ``--stable`` runs
the stable-regime workload (``STABLE_BENCH_WORKLOAD``, started empty), where
real transfers dominate and the yield gate keeps failed probes cheap.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import time
from contextlib import contextmanager

from conftest import (
    BENCH_WORKLOAD,
    FLEET_BENCH_WORKLOAD,
    OVERLAY_BENCH_WORKLOAD,
    SCENARIO_BENCH_WORKLOAD,
    STABLE_BENCH_WORKLOAD,
    _fleet_bench_spec,
    _overlay_bench_spec,
    _scenario_bench_spec,
)


def _build(args):
    from repro.core.parameters import SystemParameters
    from repro.core.state import SystemState
    from repro.swarm.swarm import make_simulator

    if args.topology:
        spec = dict(OVERLAY_BENCH_WORKLOAD)
        scenario = _overlay_bench_spec()
    elif args.scenario:
        spec = dict(SCENARIO_BENCH_WORKLOAD)
        scenario = _scenario_bench_spec()
    elif args.stable:
        spec = dict(STABLE_BENCH_WORKLOAD)
        scenario = None
    else:
        spec = dict(BENCH_WORKLOAD)
        scenario = None
    if args.events is not None:
        spec["max_events"] = args.events
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
    simulator = make_simulator(
        params,
        seed=spec["seed"],
        backend=args.backend,
        scenario=scenario,
        draw_block_size=args.block_size,
    )
    club = spec.get("initial_one_club")
    initial = SystemState.one_club(spec["num_pieces"], club) if club else None
    run_kwargs = dict(
        initial_state=initial,
        sample_interval=spec["sample_interval"],
        max_events=spec["max_events"],
    )
    return simulator, spec["horizon"], run_kwargs


def _timed(original, bucket):
    """``original`` wrapped to add one call and its seconds to ``bucket``."""

    def timed(self, *call_args, **call_kwargs):
        start = time.perf_counter()
        try:
            return original(self, *call_args, **call_kwargs)
        finally:
            bucket[0] += 1
            bucket[1] += time.perf_counter() - start

    return timed


@contextmanager
def _timed_methods(targets):
    """Patch each ``(owner, method name, phase)`` of ``targets`` with an
    accumulating timer (class-level, restored on exit); yields phase name
    -> [calls, seconds] in first-seen phase order."""
    totals: dict = {}
    patched = []
    try:
        for owner, name, phase in targets:
            original = getattr(owner, name)
            bucket = totals.setdefault(phase, [0, 0.0])
            setattr(owner, name, _timed(original, bucket))
            patched.append((owner, name, original))
        yield totals
    finally:
        for owner, name, original in patched:
            setattr(owner, name, original)


def _phase_timers():
    """Timers on the phase entry points of both backends."""
    from repro.swarm.drawbuf import DrawBuffer
    from repro.swarm.kernel import ArraySwarmKernel
    from repro.swarm.swarm import _SwarmEventLoop
    from repro.swarm.topology import OverlayState

    return _timed_methods([
        (DrawBuffer, "_refill", "draw (block refill)"),
        (ArraySwarmKernel, "_batch_stage", "apply (batch stage)"),
        (_SwarmEventLoop, "_apply_event", "apply (scalar dispatch)"),
        (_SwarmEventLoop, "_record_until", "census (sampling)"),
        # Overlay rows stay at zero calls (and are omitted from the table)
        # unless the workload carries a topology (``--topology``).
        (OverlayState, "on_arrival", "overlay (arrival wiring)"),
        (OverlayState, "on_departure", "overlay (churn rewiring)"),
        (OverlayState, "draw_target", "overlay (target draw)"),
    ])


def run_phase_table(args) -> None:
    simulator, horizon, run_kwargs = _build(args)
    with _phase_timers() as totals:
        start = time.perf_counter()
        result = simulator.run(horizon, **run_kwargs)
        wall = time.perf_counter() - start
    events = result.events_executed
    print(
        f"\nPer-phase timing — backend={args.backend}, "
        f"{events:,} events in {wall:.3f}s "
        f"({events / wall:,.0f} ev/s, final population "
        f"{result.final_population:,})"
    )
    print(f"{'phase':<28}{'calls':>12}{'seconds':>12}{'share':>9}")
    accounted = 0.0
    for phase, (calls, seconds) in totals.items():
        if not calls:
            continue
        # The scalar dispatch is also reached through the batch stage's
        # fall-through iterations, so phases can nest; shares are of wall.
        accounted += seconds
        print(f"{phase:<28}{calls:>12,}{seconds:>12.3f}{seconds / wall:>8.1%}")
    residual = max(wall - accounted, 0.0)
    print(f"{'residual (scalar loop)':<28}{'—':>12}{residual:>12.3f}{residual / wall:>8.1%}")
    if args.backend == "array":
        # The kernel's own deterministic counters (no timers involved).
        print(
            f"batch stage: {simulator.probes_run:,} probes run "
            f"({simulator.probes_escalated:,} escalated past the scalar walk), "
            f"{simulator.probes_skipped:,} entries skipped by the yield gate, "
            f"{simulator.events_batched:,} events batched "
            f"({simulator.events_batched / max(events, 1):.1%} of events); "
            f"{simulator.rate_refreshes:,} rate refreshes "
            f"({simulator.rate_refreshes / max(events, 1):.1%} of events)"
        )


def run_cprofile(args, top: int = 25) -> None:
    simulator, horizon, run_kwargs = _build(args)
    profiler = cProfile.Profile()
    profiler.enable()
    simulator.run(horizon, **run_kwargs)
    profiler.disable()
    print(f"\ncProfile — top {top} by cumulative time")
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative").print_stats(top)


def _build_stacked(args):
    """One StackedSwarmKernel loaded with the whole fleet bench workload."""
    import numpy as np

    from repro.core.state import SystemState
    from repro.fleet.spec import materialize_tasks
    from repro.swarm.drawbuf import BLOCK_SIZE_ENV
    from repro.swarm.stacked import StackedSwarmKernel

    if args.block_size is not None:
        # Lanes build their draw buffers through the default block size.
        os.environ[BLOCK_SIZE_ENV] = str(args.block_size)
    fleet_spec = _fleet_bench_spec()
    tasks = materialize_tasks(fleet_spec, seed=FLEET_BENCH_WORKLOAD["seed"])
    stack = StackedSwarmKernel()
    for task in tasks:
        stack.add_lane(
            task.params,
            seed=np.random.default_rng(task.seed),
            scenario=task.scenario,
        )
    initial_states = [
        SystemState.one_club(task.params.num_pieces, fleet_spec.initial_club_size)
        for task in tasks
    ]
    run_kwargs = dict(
        initial_states=initial_states,
        sample_interval=fleet_spec.sample_interval,
        max_events=args.events if args.events is not None else fleet_spec.max_events,
        max_population=fleet_spec.max_population,
    )
    return stack, fleet_spec.horizon, run_kwargs


def run_stacked_phase_table(args) -> None:
    from repro.swarm.drawbuf import DrawBuffer
    from repro.swarm.kernel import ArraySwarmKernel
    from repro.swarm.stacked import StackedSwarmKernel
    from repro.swarm.swarm import _SwarmEventLoop

    # The three steps of a round partition ``run_all`` (bar run start and
    # round bookkeeping, the residual); the nested rows are work done
    # inside them, so their shares overlap the step rows.
    steps = [
        (StackedSwarmKernel, "_advance", "round · advance"),
        (StackedSwarmKernel, "_classify_windows", "round · classify windows"),
        (StackedSwarmKernel, "_apply_windows", "round · apply windows"),
    ]
    nested = [
        # Lanes run their solo loop inside ``_advance``: this row is the
        # solo batch stage behind each lane's window filing (thinned and
        # overlay batches, breaker skips), with thinned batches nested in it.
        (ArraySwarmKernel, "_batch_stage", "solo batch stage"),
        (_SwarmEventLoop, "_apply_event", "scalar dispatch"),
        (ArraySwarmKernel, "_batch_thinned", "thinned batch"),
        (DrawBuffer, "_refill", "draw (block refill)"),
        (_SwarmEventLoop, "_record_until", "census (sampling)"),
        (ArraySwarmKernel, "_batch_hetero_tickers", "hetero ticker walk"),
    ]
    stack, horizon, run_kwargs = _build_stacked(args)
    with _timed_methods(steps + nested) as totals:
        start = time.perf_counter()
        results = stack.run_all(horizon, **run_kwargs)
        wall = time.perf_counter() - start
    events = sum(result.events_executed for result in results)
    print(
        f"\nPer-phase timing — stacked fleet, {stack.num_lanes} lanes, "
        f"{events:,} events in {wall:.3f}s ({events / wall:,.0f} aggregate ev/s)"
    )

    def row(phase, calls, seconds):
        print(f"{phase:<30}{calls:>12}{seconds:>12.3f}{seconds / wall:>8.1%}")

    print(f"{'phase':<30}{'calls':>12}{'seconds':>12}{'share':>9}")
    accounted = 0.0
    for _owner, _name, phase in steps:
        calls, seconds = totals[phase]
        accounted += seconds
        row(phase, f"{calls:,}", seconds)
    row("residual (round bookkeeping)", "—", max(wall - accounted, 0.0))
    print("nested in the round steps:")
    for _owner, _name, phase in nested:
        calls, seconds = totals[phase]
        if calls:
            row(f"  {phase}", f"{calls:,}", seconds)


def run_stacked_cprofile(args, top: int = 25) -> None:
    stack, horizon, run_kwargs = _build_stacked(args)
    profiler = cProfile.Profile()
    profiler.enable()
    stack.run_all(horizon, **run_kwargs)
    profiler.disable()
    print(f"\ncProfile — top {top} by cumulative time")
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative").print_stats(top)


def main() -> None:
    parser = argparse.ArgumentParser(
        description="cProfile + per-phase timing of the swarm kernels."
    )
    parser.add_argument("--backend", choices=("array", "object"), default="array")
    parser.add_argument(
        "--events",
        type=int,
        default=None,
        help="event cap (default: the BENCH_swarm.json workload's)",
    )
    workload = parser.add_mutually_exclusive_group()
    workload.add_argument(
        "--scenario",
        action="store_true",
        help="profile the heterogeneous flash-crowd scenario workload",
    )
    workload.add_argument(
        "--topology",
        action="store_true",
        help="profile the tracker-overlay workload (adds overlay phase rows)",
    )
    workload.add_argument(
        "--stable",
        action="store_true",
        help="profile the stable-regime workload (mostly real transfers), "
        "from empty",
    )
    parser.add_argument(
        "--block-size",
        type=int,
        default=None,
        help="draw-buffer block size (default 4096; 1 = scalar draws)",
    )
    parser.add_argument(
        "--stacked",
        action="store_true",
        help="profile the fleet workload through the stacked mega-kernel",
    )
    parser.add_argument(
        "--skip-cprofile", action="store_true", help="phase table only"
    )
    args = parser.parse_args()
    if args.stacked:
        conflicts = [
            flag
            for flag, given in (
                ("--backend object", args.backend == "object"),
                ("--scenario", args.scenario),
                ("--topology", args.topology),
                ("--stable", args.stable),
            )
            if given
        ]
        if conflicts:
            parser.error(
                "--stacked profiles the fleet workload on the array backend; "
                f"it cannot be combined with {', '.join(conflicts)}"
            )
        run_stacked_phase_table(args)
        if not args.skip_cprofile:
            run_stacked_cprofile(args)
        return
    run_phase_table(args)
    if not args.skip_cprofile:
        run_cprofile(args)


if __name__ == "__main__":
    main()
