"""Traced replay: the workload's work, one public library call at a time.

The replay runs at ``workers = 1`` and performs exactly the work of the user
call — same seeds, same chunking, same log appends and checkpoints — but
calls each layer's public function itself and wraps a span around every
call.  Its outputs must equal the untraced run's (the caller compares the
digests), so the per-layer numbers describe the same computation the
end-to-end numbers time.  Spans are flat, kept in memory and summed by name.

Layers are named after the modules they enter:
* ``core.analyze`` — Theorem-1 verdicts (``analyze`` / ``theory_verdict``);
* ``classify.classify`` — trajectory classification and the majority vote;
* ``swarm.build`` / ``swarm.seed_population`` — ``make_simulator`` (and the
  per-replication seed derivation) / pre-seeding the one-club;
* ``kernel.run`` — ``simulator.run``, the event loop;
* ``fleet.materialize`` — building swarm tasks from the spec or the
  acquisition's cell choices;
* ``fleet.record`` / ``fleet.add`` — ``record_from_result`` / folding
  records into ``FleetResult`` (and building the result objects);
* ``fleet.log_append`` / ``fleet.log_fsync`` — ``FleetLogWriter.append``
  (which also fsyncs each batch at the default ``fsync_every_n = 1``) /
  the writer's open, ``sync`` and ``close``;
* ``fleet.checkpoint`` — ``save_checkpoint``;
* ``fleet.acquire`` — the adaptive acquisition step on ``CaptureGrid``.
"""

from __future__ import annotations

import os
import pickle
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np
from repro.core.stability import analyze
from repro.core.state import SystemState
from repro.experiments.runner import StabilityTrialResult, map_tasks
from repro.fleet.adaptive import AdaptiveFleetResult, CaptureGrid, RoundSummary
from repro.fleet.checkpoint import FleetCheckpoint, default_log_path, save_checkpoint
from repro.fleet.persistence import FLEET_LOG_SCHEMA, FleetLogHeader, FleetLogWriter
from repro.fleet.result import FleetResult, record_from_result, theory_verdict
from repro.fleet.spec import materialize_tasks, normalize_fleet_seed, task_for_point
from repro.markov.classify import classify_trajectory, majority_verdict
from repro.simulation.rng import spawn_generators
from repro.swarm.swarm import make_simulator

from workloads import TRIAL_MAX_POPULATION, kind_of

#: Kernel counters summed over every swarm of the replay.  They are a pure
#: function of (code, seed), so repeated replays must report them exactly.
EXACT_COUNTS = (
    "kernel.events",
    "kernel.transfers",
    "kernel.wasted_contacts",
    "kernel.arrivals",
    "kernel.departures",
    "kernel.thinned",
    "kernel.samples",
)

#: Object-backend reference (trials only): replication 0 is re-run on the
#: object backend for its first this-many events (about a second of the
#: reference backend in each regime).
OBJECT_EVENT_CAP = {"trial-stable": 60_000, "trial-captured": 10_000}


class Tracer:
    """In-memory flat spans ``(name, start, end)`` on ``perf_counter``."""

    def __init__(self) -> None:
        self.spans: List[Tuple[str, float, float]] = []

    @contextmanager
    def span(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((name, start, time.perf_counter()))

    def totals(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for name, start, end in self.spans:
            totals[name] = totals.get(name, 0.0) + (end - start)
        return totals

    def durations(self, name: str) -> List[float]:
        return [end - start for span, start, end in self.spans if span == name]

    def covered(self) -> float:
        """Length of the union of all span intervals."""
        covered = 0.0
        reach = float("-inf")
        for _name, start, end in sorted(self.spans, key=lambda span: span[1]):
            if end <= reach:
                continue
            covered += end - max(start, reach)
            reach = end
        return covered


def _add_counts(counts: Dict[str, int], result) -> None:
    metrics = result.metrics
    counts["kernel.events"] += result.events_executed
    counts["kernel.transfers"] += metrics.total_downloads
    counts["kernel.wasted_contacts"] += metrics.wasted_contacts
    counts["kernel.arrivals"] += metrics.total_arrivals
    counts["kernel.departures"] += metrics.total_departures
    counts["kernel.thinned"] += metrics.thinned_events
    counts["kernel.samples"] += len(metrics.sample_times)


class _Persistence:
    """The fleet's log + checkpoint sequence, traced call by call.

    Mirrors the order of the fleet entry points: open the log, write a
    fresh checkpoint, then per chunk append + sync + checkpoint, and a sync
    + checkpoint at every round end and at completion.
    """

    def __init__(self, tracer: Tracer, checkpoint_path: Path, spec, token, swarms):
        self.tracer = tracer
        self.path = checkpoint_path
        self.spec = spec
        self.token = token
        self.appends = 0
        self.checkpoints = 0
        self.checkpoint_bytes = 0
        self.log_bytes = 0
        header = FleetLogHeader(
            schema=FLEET_LOG_SCHEMA, spec_name=spec.name, num_swarms=swarms,
            seed=token,
        )
        with tracer.span("fleet.log_fsync"):
            self.writer = FleetLogWriter(default_log_path(checkpoint_path), header)

    def append(self, records) -> None:
        with self.tracer.span("fleet.log_append"):
            self.writer.append(records)
        self.appends += 1

    def checkpoint(self, result, fresh: bool = False) -> None:
        with self.tracer.span("fleet.log_fsync"):
            self.writer.sync()
        with self.tracer.span("fleet.checkpoint"):
            save_checkpoint(
                self.path,
                FleetCheckpoint(
                    spec=self.spec,
                    seed=self.token,
                    num_records=len(result.records),
                    log_name=self.writer.path.name,
                    log_offset=self.writer.offset,
                    log_segment=self.writer.segment,
                ),
                keep_previous=not fresh,
            )
        self.checkpoints += 1
        self.checkpoint_bytes += os.path.getsize(self.path)

    def close(self) -> None:
        with self.tracer.span("fleet.log_fsync"):
            self.writer.close()
        self.log_bytes = os.path.getsize(self.writer.path)


def _run_fleet_swarm(spec, task, tracer: Tracer, counts: Dict[str, int]):
    """One fleet swarm: build, seed, run, verdict, record."""
    with tracer.span("swarm.build"):
        simulator = make_simulator(
            task.params,
            seed=np.random.default_rng(task.seed),
            backend=spec.backend,
            scenario=task.scenario,
        )
    if spec.initial_club_size:
        with tracer.span("swarm.seed_population"):
            simulator.seed_population(
                SystemState.one_club(task.params.num_pieces, spec.initial_club_size)
            )
    with tracer.span("kernel.run"):
        result = simulator.run(
            spec.horizon,
            sample_interval=spec.sample_interval,
            max_events=spec.max_events,
            max_population=spec.max_population,
        )
    # record_from_result computes the verdict through the same memo, so
    # computing it here first only moves that work into its own span.
    with tracer.span("core.analyze"):
        theory_verdict(task)
    with tracer.span("fleet.record"):
        record = record_from_result(task, spec, result)
    _add_counts(counts, result)
    return record


# -- replays -------------------------------------------------------------------


def _replay_trial(inputs, seed, tracer, counts):
    params = inputs["params"]
    initial = inputs["initial_state"]
    with tracer.span("core.analyze"):
        theory = analyze(params)
    with tracer.span("swarm.build"):
        rngs = spawn_generators(seed, inputs["replications"])
    classifications, results = [], []
    for rng in rngs:
        with tracer.span("swarm.build"):
            simulator = make_simulator(params, seed=rng, backend="array")
        if initial is not None:
            with tracer.span("swarm.seed_population"):
                simulator.seed_population(initial)
        with tracer.span("kernel.run"):
            result = simulator.run(
                inputs["horizon"], max_population=TRIAL_MAX_POPULATION
            )
        with tracer.span("classify.classify"):
            classifications.append(
                classify_trajectory(
                    result.metrics.sample_times,
                    result.metrics.population,
                    arrival_rate=params.lambda_total,
                    last_fraction=0.5,
                )
            )
        results.append(result)
        _add_counts(counts, result)
    with tracer.span("classify.classify"):
        trial = StabilityTrialResult(
            label=params.describe().splitlines()[0],
            params=params,
            theory=theory,
            classifications=classifications,
            empirical_verdict=majority_verdict(classifications),
            mean_normalized_slope=float(
                np.mean([c.normalized_slope for c in classifications])
            ),
            mean_population=float(
                np.mean([r.metrics.mean_population(0.5) for r in results])
            ),
            results=results,
        )
    # The batch runner's task tuples, for the fan-out measurement.
    payloads = [
        (params, None, "array", {}, inputs["horizon"], initial,
         {"max_population": TRIAL_MAX_POPULATION}, rng)
        for rng in spawn_generators(seed, inputs["replications"])
    ]
    return trial, [payloads], [[result] for result in results], None


def _replay_fleet(inputs, seed, tracer, counts, workdir, chunk_size):
    spec = inputs["spec"]
    with tracer.span("fleet.materialize"):
        token = normalize_fleet_seed(seed)
        tasks = materialize_tasks(spec, token)
    with tracer.span("fleet.add"):
        result = FleetResult(spec_name=spec.name, num_swarms=spec.num_swarms)
    store = _Persistence(tracer, workdir / "census.ckpt", spec, token, spec.num_swarms)
    store.checkpoint(result, fresh=True)
    chunks = [tasks[i : i + chunk_size] for i in range(0, len(tasks), chunk_size)]
    chunk_records = []
    for chunk in chunks:
        records = [_run_fleet_swarm(spec, task, tracer, counts) for task in chunk]
        with tracer.span("fleet.add"):
            for record in records:
                result.add(record)
        store.append(records)
        store.checkpoint(result)
        chunk_records.append(records)
    if result.complete:
        store.checkpoint(result)
    store.close()
    return result, [[(spec, chunk, None) for chunk in chunks]], chunk_records, store


class _Acquisition:
    """The adaptive driver's documented acquisition rule on ``CaptureGrid``.

    Each round allocates ``round_size`` swarms by D'Hondt apportionment over
    posterior variance (boosted on boundary cells; ties to the lowest cell
    index), and the run stops when the boundary is stable for ``patience``
    rounds after ``min_rounds``, or a budget is spent.  The replay checks
    that the allocations it derives equal the untraced run's trail.
    """

    def __init__(self, spec):
        self.spec = spec
        self.grid = CaptureGrid.empty(spec)
        self.trail: list = []
        self.completed = 0
        self.events = 0
        self.stable_rounds = 0
        self.prev_boundary = None
        self.stopped: Optional[str] = None

    def next_round(self) -> Optional[Tuple[int, ...]]:
        spec = self.spec
        if self.stopped is not None:
            return None
        if len(self.trail) >= spec.min_rounds and self.stable_rounds >= spec.patience:
            self.stopped = "boundary-stable"
        elif self.completed >= spec.swarm_budget:
            self.stopped = "swarm-budget"
        elif spec.event_budget is not None and self.events >= spec.event_budget:
            self.stopped = "event-budget"
        if self.stopped is not None:
            return None
        count = min(spec.round_size, spec.swarm_budget - self.completed)
        scores = self.grid.variance().reshape(-1).copy()
        scores[self.grid.boundary_mask().reshape(-1)] *= spec.boundary_boost
        assigned = np.zeros(len(scores), dtype=np.int64)
        order = []
        for _ in range(count):
            best = int(np.argmax(scores / (assigned + 1)))
            assigned[best] += 1
            order.append(best)
        return tuple(order)

    def complete_round(self, allocation, records) -> None:
        cells = self.spec.cells
        for cell_index, record in zip(allocation, records):
            self.grid.add(cells[cell_index], record.captured)
            self.events += record.events
        self.completed += len(allocation)
        boundary = self.grid.boundary_cells()
        variance = self.grid.mean_boundary_variance()
        if boundary == self.prev_boundary and variance <= self.spec.variance_tol:
            self.stable_rounds += 1
        else:
            self.stable_rounds = 0
        self.prev_boundary = boundary
        self.trail.append(
            RoundSummary(
                index=len(self.trail),
                cells=tuple(cells[i] for i in allocation),
                boundary_size=len(boundary),
                mean_boundary_variance=variance,
            )
        )


def _replay_adaptive(inputs, seed, tracer, counts, workdir, chunk_size):
    spec = inputs["spec"]
    exec_spec = spec.execution_spec()
    cells = spec.cells
    with tracer.span("fleet.acquire"):
        token = normalize_fleet_seed(seed)
        # Swarm i's simulation seed: child i of the master seed, then the
        # second of its two children (the first is the assignment stream).
        root = np.random.SeedSequence(token)
        acquisition = _Acquisition(spec)
    with tracer.span("fleet.add"):
        result = FleetResult(spec_name=spec.name, num_swarms=spec.swarm_budget)
    store = _Persistence(tracer, workdir / "adaptive.ckpt", spec, token, spec.swarm_budget)
    store.checkpoint(result, fresh=True)
    assignments = []
    rounds, chunk_records = [], []
    while True:
        with tracer.span("fleet.acquire"):
            allocation = acquisition.next_round()
        if allocation is None:
            break
        with tracer.span("fleet.materialize"):
            tasks = []
            for cell_index in allocation:
                cell = cells[cell_index]
                point = dict(spec.base_overrides)
                point["num_pieces"] = spec.num_pieces
                point["arrival_rate"] = spec.arrival_rates[cell.arrival]
                point["seed_rate"] = spec.seed_rates[cell.seed]
                tasks.append(
                    task_for_point(
                        len(result.records) + len(tasks),
                        root.spawn(1)[0].spawn(2)[1],
                        point,
                        spec.strata[cell.stratum],
                    )
                )
        chunks = [tasks[i : i + chunk_size] for i in range(0, len(tasks), chunk_size)]
        for chunk in chunks:
            records = [
                _run_fleet_swarm(exec_spec, task, tracer, counts) for task in chunk
            ]
            with tracer.span("fleet.add"):
                for record in records:
                    result.add(record)
            store.append(records)
            store.checkpoint(result)
            chunk_records.append(records)
        with tracer.span("fleet.acquire"):
            assignments.extend(cells[i] for i in allocation)
            acquisition.complete_round(allocation, result.records[acquisition.completed :])
        store.checkpoint(result)
        rounds.append([(exec_spec, chunk, None) for chunk in chunks])
    store.checkpoint(result)
    store.close()
    with tracer.span("fleet.add"):
        adaptive = AdaptiveFleetResult(
            spec=spec,
            fleet=result,
            rounds=tuple(acquisition.trail),
            cell_assignments=tuple(assignments),
            stopped=acquisition.stopped,
        )
    return adaptive, rounds, chunk_records, store


def replay(name: str, inputs, seed: int, workdir: Path, chunk_size: int):
    """Run the traced replay; returns ``(output, tracer, counts, extras)``.

    ``extras`` carries the window wall time, the persistence counters, the
    chunk payloads per pool start and the per-chunk results (the latter two
    feed :func:`fanout`).
    """
    tracer = Tracer()
    counts = {name: 0 for name in EXACT_COUNTS}
    kind = kind_of(name)
    start = time.perf_counter()
    if kind == "trial":
        output, payloads, results, store = _replay_trial(inputs, seed, tracer, counts)
    elif kind == "fleet":
        output, payloads, results, store = _replay_fleet(
            inputs, seed, tracer, counts, workdir, chunk_size
        )
    else:
        output, payloads, results, store = _replay_adaptive(
            inputs, seed, tracer, counts, workdir, chunk_size
        )
    window = time.perf_counter() - start
    extras: Dict[str, Any] = {
        "window_s": window,
        "payloads": payloads,
        "results": results,
        "rounds": len(payloads) if kind == "adaptive" else 0,
    }
    if store is not None:
        extras.update(
            log_appends=store.appends,
            log_bytes=store.log_bytes,
            checkpoints=store.checkpoints,
            checkpoint_bytes=store.checkpoint_bytes,
        )
    return output, tracer, counts, extras


# -- measurements outside the replay window ------------------------------------


def _noop(_job) -> None:
    return None


def fanout(payload_rounds, chunk_results, workers: int) -> Dict[str, float]:
    """The runner's own cost on the workload's real chunk payloads.

    Maps a no-op over each pool start's payloads with ``map_tasks`` at the
    user call's worker count; ``ipc_bytes`` is the pickled size of every
    payload sent to a worker and every result sent back (0 when serial).
    """
    start = time.perf_counter()
    for payloads in payload_rounds:
        for _ in map_tasks(_noop, payloads, workers):
            pass
    elapsed = time.perf_counter() - start
    parallel = workers > 1
    ipc = 0
    if parallel:
        ipc = sum(len(pickle.dumps(p)) for batch in payload_rounds for p in batch)
        ipc += sum(len(pickle.dumps(chunk)) for chunk in chunk_results)
    return {
        "runner.fanout_s": elapsed,
        "runner.pool_starts": sum(
            1 for payloads in payload_rounds if parallel and len(payloads) > 1
        ),
        "runner.chunks": sum(len(payloads) for payloads in payload_rounds),
        "runner.ipc_bytes": ipc,
    }


def object_reference(name: str, inputs, seed: int) -> Tuple[float, List[str]]:
    """Object-backend events/s on replication 0 (capped), checked bit-identical
    to the array kernel over the same events."""
    cap = OBJECT_EVENT_CAP[name]
    runs = {}
    for backend in ("array", "object"):
        rng = spawn_generators(seed, inputs["replications"])[0]
        simulator = make_simulator(inputs["params"], seed=rng, backend=backend)
        if inputs["initial_state"] is not None:
            simulator.seed_population(inputs["initial_state"])
        start = time.perf_counter()
        result = simulator.run(
            inputs["horizon"], max_population=TRIAL_MAX_POPULATION, max_events=cap
        )
        runs[backend] = (result, time.perf_counter() - start)
    (array, _), (reference, elapsed) = runs["array"], runs["object"]
    errors = []
    if (
        array.events_executed != reference.events_executed
        or array.metrics.population != reference.metrics.population
        or array.final_population != reference.final_population
    ):
        errors.append("object and array backends diverged on replication 0")
    return reference.events_executed / elapsed, errors
