"""Fleet scheduler: shard swarms over workers, stream to a log, resume.

:class:`FleetScheduler` executes a :class:`~repro.fleet.spec.FleetSpec`:

* **sharding** — the materialized swarm tasks are grouped into chunks of
  ``chunk_size`` consecutive swarms and mapped over
  :func:`repro.experiments.runner.map_tasks` (the same process-pool
  primitive :class:`~repro.experiments.runner.BatchRunner` uses), so many
  short swarms amortize one worker dispatch; with ``stacked=True`` each
  chunk runs inside one :class:`~repro.swarm.stacked.StackedSwarmKernel`
  (bit-identical trajectories, higher throughput) instead of one solo
  kernel per swarm;
* **streaming aggregation** — each finished chunk's
  :class:`~repro.fleet.result.FleetSwarmRecord`\\ s are folded into the
  incremental :class:`~repro.fleet.result.FleetResult` strictly in swarm
  order, so the outcome is a pure function of ``(spec, seed)`` regardless of
  worker count or chunking;
* **log-structured persistence** — with a ``log_path`` (or implicitly with a
  ``checkpoint_path``), every completed swarm is appended to a
  schema-versioned JSONL log (:mod:`repro.fleet.persistence`) as it
  finishes, fsync'd per chunk by default (``fsync_every_n`` batches the
  fsyncs for throughput): a running fleet can be tailed live
  (``tail -f``) and its census rebuilt at any time via
  :meth:`FleetResult.from_log`;
* **checkpoint / resume** — with a ``checkpoint_path``, progress is saved
  after every ``checkpoint_every`` chunks (atomically; see
  :mod:`repro.fleet.checkpoint`).  A checkpoint is just a byte offset into
  the log plus, when the run stopped mid-swarm, the suspended simulator's
  kernel snapshot (``suspend_after_events`` / ``capture_state``).
  :meth:`FleetScheduler.resume` / :func:`resume_fleet` reload the
  checkpoint, replay the log prefix and continue to the *exact*
  ``FleetResult`` of an uninterrupted run.

``run(stop_after_swarms=..., suspend_after_events=...)`` exposes the
interruption points deterministically, which is how the tests (and the CI
smoke step) "kill" a fleet mid-run without process signals.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.state import SystemState
from ..simulation.rng import SeedLike
from ..swarm.swarm import make_simulator, unsupported_option
from .checkpoint import (
    FleetCheckpoint,
    default_log_path,
    load_checkpoint,
    save_checkpoint,
)
from .faults import FaultPlan, FaultState, fire_task_faults
from .persistence import FLEET_LOG_SCHEMA, FleetLogHeader, FleetLogWriter, read_log
from .result import (
    FleetResult,
    FleetSwarmRecord,
    failure_record,
    record_from_result,
)
from .spec import FleetSpec, SwarmTask, materialize_tasks, normalize_fleet_seed


def _build_simulator(spec: FleetSpec, task: SwarmTask):
    return make_simulator(
        task.params,
        seed=np.random.default_rng(task.seed),
        backend=spec.backend,
        scenario=task.scenario,
    )


def _run_swarm_task(
    spec: FleetSpec,
    task: SwarmTask,
    suspend_after_events: Optional[int] = None,
    snapshot: Optional[Dict[str, Any]] = None,
    faults: Optional[FaultPlan] = None,
    attempt: int = 0,
):
    """Run (or resume) one swarm; returns a record, or a kernel snapshot
    when the run suspended at ``suspend_after_events``."""
    fire_task_faults(faults, task.index, attempt)
    simulator = _build_simulator(spec, task)
    run_kwargs = dict(
        sample_interval=spec.sample_interval,
        max_events=spec.max_events,
        max_population=spec.max_population,
    )
    if snapshot is not None:
        simulator.restore_state(snapshot)
        result = simulator.run(spec.horizon, resume=True, **run_kwargs)
    else:
        initial = (
            SystemState.one_club(task.params.num_pieces, spec.initial_club_size)
            if spec.initial_club_size
            else None
        )
        result = simulator.run(
            spec.horizon,
            initial_state=initial,
            suspend_after_events=suspend_after_events,
            **run_kwargs,
        )
    if result.suspended:
        return simulator.capture_state()
    return record_from_result(task, spec, result)


def _run_fleet_chunk(job, attempt: int = 0) -> List[FleetSwarmRecord]:
    """Top-level pool worker: run one chunk of consecutive swarms.

    ``job`` is ``(spec, tasks, fault_plan)``; the plan (``None`` in
    production) fires planned task faults keyed on ``(swarm index,
    attempt)``, so a retried chunk deterministically clears its one-shot
    failures while poison tasks keep failing.
    """
    spec, tasks, plan = job
    return [
        _run_swarm_task(spec, task, faults=plan, attempt=attempt)
        for task in tasks
    ]


def _run_stacked_chunk(job, attempt: int = 0) -> List[FleetSwarmRecord]:
    """Top-level pool worker: run one chunk of swarms in one stacked kernel.

    Every lane's trajectory is bit-identical to the solo kernel on the same
    per-task seed, so the records (and hence the fleet fingerprint) are
    exactly those of :func:`_run_fleet_chunk` over the same tasks.
    """
    from ..swarm.stacked import StackedSwarmKernel

    spec, tasks, plan = job
    for task in tasks:
        # The stack runs all lanes together, so planned faults fire up
        # front — a crash/error takes the whole chunk, as it would when a
        # real worker process dies mid-stack.
        fire_task_faults(plan, task.index, attempt)
    stack = StackedSwarmKernel()
    for task in tasks:
        stack.add_lane(
            task.params,
            seed=np.random.default_rng(task.seed),
            scenario=task.scenario,
        )
    initial_states = [
        SystemState.one_club(task.params.num_pieces, spec.initial_club_size)
        if spec.initial_club_size
        else None
        for task in tasks
    ]
    results = stack.run_all(
        spec.horizon,
        initial_states=initial_states,
        sample_interval=spec.sample_interval,
        max_events=spec.max_events,
        max_population=spec.max_population,
    )
    return [
        record_from_result(task, spec, result)
        for task, result in zip(tasks, results)
    ]


def _check_stacked_task(task: SwarmTask) -> None:
    """Reject a task the stacked kernel cannot hold, naming the swarm."""
    if task.params.num_pieces > 64:
        raise ValueError(
            f"stacked fleet execution requires num_pieces <= 64 (the array "
            f"kernel's bitmask bound), but swarm {task.index} "
            f"({task.scenario_label!r}) has num_pieces="
            f"{task.params.num_pieces}; run with stacked=False"
        )


def _default_chunk_size(
    num_swarms: int, workers: Optional[int], stacked: bool = False
) -> int:
    """A few chunks per worker lane: big enough to amortize dispatch, small
    enough to keep the pool busy and the checkpoint cadence useful.

    The stacked kernel amortizes its per-round classification over every
    lane of a chunk, so stacked runs want *fewer, larger* chunks — one per
    worker lane — rather than the per-swarm path's finer shards.
    """
    lanes = max(1, workers or 1)
    if stacked:
        return max(1, min(256, math.ceil(num_swarms / lanes)))
    return max(1, min(64, math.ceil(num_swarms / (lanes * 4))))


class PersistentFleetExecution:
    """Shared execution plumbing of the fixed scheduler and the adaptive
    driver: worker/chunk validation, JSONL-log pairing (a checkpoint always
    gets a sibling ``<checkpoint>.jsonl`` log), batched log appends, and
    offset checkpoints.  Subclasses set ``self.spec`` (anything with a
    ``name``) before calling :meth:`_init_execution` and define
    :meth:`_swarm_target` (the swarm count the log header advertises)."""

    def _init_execution(
        self,
        workers: Optional[int],
        chunk_size: Optional[int],
        default_chunk_items: int,
        checkpoint_path: Optional[Union[str, Path]],
        checkpoint_every: int,
        log_path: Optional[Union[str, Path]],
        fsync_every_n: int = 1,
        stacked: bool = False,
        max_retries: int = 0,
        task_timeout: Optional[float] = None,
        retry_backoff: float = 0.0,
        rotate_every: Optional[int] = None,
        compact_after: Optional[int] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        if checkpoint_every < 1:
            raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
        if fsync_every_n < 1:
            raise ValueError(f"fsync_every_n must be >= 1, got {fsync_every_n}")
        if rotate_every is not None and rotate_every < 1:
            raise ValueError(f"rotate_every must be >= 1, got {rotate_every}")
        if compact_after is not None and compact_after < 1:
            raise ValueError(f"compact_after must be >= 1, got {compact_after}")
        from ..experiments.runner import _check_supervision

        _check_supervision(
            "fleet execution", max_retries, task_timeout, retry_backoff
        )
        self.workers = workers
        self.fsync_every_n = fsync_every_n
        self.chunk_size = chunk_size or _default_chunk_size(
            default_chunk_items, workers, stacked
        )
        self.checkpoint_path = Path(checkpoint_path) if checkpoint_path else None
        self.checkpoint_every = checkpoint_every
        self.max_retries = max_retries
        self.task_timeout = task_timeout
        self.retry_backoff = retry_backoff
        self.rotate_every = rotate_every
        self.compact_after = compact_after
        self.fault_plan = fault_plan
        self._fault_state = FaultState(fault_plan) if fault_plan is not None else None
        self._supervised = max_retries > 0 or task_timeout is not None
        if log_path is not None:
            self.log_path: Optional[Path] = Path(log_path)
        elif self.checkpoint_path is not None:
            self.log_path = default_log_path(self.checkpoint_path)
        else:
            self.log_path = None

    def _swarm_target(self) -> int:
        """The swarm count the log header advertises (budget for adaptive)."""
        raise NotImplementedError

    def _open_writer(
        self, seed: SeedLike, checkpoint: Optional[FleetCheckpoint] = None
    ) -> Optional[FleetLogWriter]:
        if self.log_path is None:
            return None
        header = FleetLogHeader(
            schema=FLEET_LOG_SCHEMA,
            spec_name=self.spec.name,
            num_swarms=self._swarm_target(),
            seed=seed,
        )
        if checkpoint is None:
            return FleetLogWriter(
                self.log_path,
                header,
                fsync_every_n=self.fsync_every_n,
                rotate_every=self.rotate_every,
                compact_after=self.compact_after,
                faults=self._fault_state,
            )
        return FleetLogWriter(
            self.log_path,
            header,
            resume_offset=checkpoint.log_offset,
            fsync_every_n=self.fsync_every_n,
            rotate_every=self.rotate_every,
            compact_after=self.compact_after,
            resume_segment=checkpoint.log_segment,
            resume_records=checkpoint.num_records,
            faults=self._fault_state,
        )

    @staticmethod
    def _append(
        writer: Optional[FleetLogWriter], records: List[FleetSwarmRecord]
    ) -> None:
        if writer is not None:
            writer.append(records)

    def _write_checkpoint(
        self,
        result: FleetResult,
        seed: SeedLike,
        writer: Optional[FleetLogWriter],
        in_flight: Optional[Tuple[int, Dict[str, Any]]],
        fresh: bool = False,
    ) -> None:
        if self.checkpoint_path is None:
            return
        assert writer is not None  # checkpoint_path implies a log
        # The checkpoint's offset must cover every appended record even when
        # fsyncs are batched, so force a sync first.
        writer.sync()
        save_checkpoint(
            self.checkpoint_path,
            FleetCheckpoint(
                spec=self.spec,
                seed=seed,
                num_records=len(result.records),
                log_name=writer.path.name,
                log_offset=writer.offset,
                log_segment=writer.segment,
                in_flight=in_flight,
            ),
            faults=self._fault_state,
            # The first checkpoint of a fresh run must also clear any stale
            # backup a *previous* run left, or a later corruption could fall
            # back to unrelated state.
            keep_previous=not fresh,
        )

    def _map_chunks(self, run_chunk, chunks):
        """Map chunk jobs over the workers through :func:`map_tasks`.

        Chunk failures are retried with backoff by the runner.  With
        supervision configured, a chunk whose retries are exhausted is
        *quarantined*: re-run in-process one task at a time, so one poison
        swarm costs only its own record (degraded to a ``failed`` record),
        never its chunk-mates; otherwise the chunk's error is raised.
        """
        from ..experiments.runner import TaskFailure, map_tasks

        outcomes = map_tasks(
            run_chunk,
            chunks,
            self.workers,
            task_timeout=self.task_timeout,
            max_retries=self.max_retries,
            retry_backoff=self.retry_backoff,
            on_exhausted="yield" if self._supervised else "raise",
            with_attempt=True,
        )
        for outcome in outcomes:
            if isinstance(outcome, TaskFailure):
                _spec, chunk_tasks, plan = chunks[outcome.task_index]
                yield self._quarantine_chunk(_spec, chunk_tasks, plan)
            else:
                yield outcome

    def _quarantine_chunk(self, spec, tasks, plan):
        """In-process fallback for a chunk that exhausted its retries.

        Each swarm gets its own fresh attempts; one that still cannot
        finish degrades to a schema-versioned ``failed`` record (with the
        final error and attempt count) instead of poisoning the run.
        """
        records: List[FleetSwarmRecord] = []
        for task in tasks:
            outcome = None
            last_error: Optional[BaseException] = None
            for attempt in range(self.max_retries + 1):
                try:
                    outcome = _run_swarm_task(
                        spec, task, faults=plan, attempt=attempt
                    )
                    break
                except Exception as error:  # noqa: BLE001 — quarantine boundary
                    last_error = error
            if outcome is None:
                records.append(
                    failure_record(
                        task,
                        spec,
                        error=f"{type(last_error).__name__}: {last_error}",
                        attempts=self.max_retries + 1,
                    )
                )
            else:
                records.append(outcome)
        return records


class FleetScheduler(PersistentFleetExecution):
    """Execute a fleet spec across processes with checkpointable progress.

    Parameters
    ----------
    spec:
        The frozen fleet description.
    workers:
        ``None``/0/1 runs in-process; ``n > 1`` shards chunks over the
        supervised executor of :func:`repro.experiments.runner.map_tasks`
        (a dead worker raises instead of hanging the run).  The result is
        identical either way.
    chunk_size:
        Consecutive swarms per worker dispatch (default: a few chunks per
        worker lane).
    checkpoint_path:
        When set, progress is checkpointed here after every
        ``checkpoint_every`` completed chunks (and at every stop); the
        checkpoint stores only an offset into the JSONL log.
    log_path:
        Where the streaming JSONL fleet log lives.  Defaults to a sibling of
        ``checkpoint_path`` (``<checkpoint>.jsonl``) when checkpointing is
        on; may also be set alone to stream records without checkpoints.
    fsync_every_n:
        Fsync the log once per this many appended records instead of per
        append (default 1, the original per-chunk durability); checkpoints
        always force a sync first, so resume stays exact.
    stacked:
        Execute each chunk in one :class:`~repro.swarm.stacked.StackedSwarmKernel`
        instead of one solo kernel per swarm.  Every swarm's trajectory —
        and therefore every record, the fleet fingerprint, and any
        checkpoint snapshot — is bit-identical to the per-swarm path;
        only throughput changes.  Requires the ``"array"`` backend and
        ``num_pieces <= 64`` for every swarm.
    max_retries / task_timeout / retry_backoff:
        Worker supervision (see :func:`repro.experiments.runner.map_tasks`):
        with retries or a deadline configured, the executor respawns dead
        workers, retries failed chunks with deterministic backoff, and
        chunks that keep failing are quarantined — one poison swarm
        degrades to a ``failed`` record instead of taking the run down.
        Retried swarms reproduce their exact records (per-swarm seeds are
        independent ``SeedSequence.spawn`` children), so fingerprints are
        unchanged.
    rotate_every / compact_after:
        Log segmentation (see :mod:`repro.fleet.persistence`): rotate the
        active log file into a numbered closed segment every that many
        records, and compact closed segments into one census snapshot
        once that many have accumulated.  Resume stays exact across both.
    fault_plan:
        A :class:`~repro.fleet.faults.FaultPlan` of injected failures for
        chaos testing; ``None`` (the default) costs nothing.
    """

    def __init__(
        self,
        spec: FleetSpec,
        workers: Optional[int] = None,
        chunk_size: Optional[int] = None,
        checkpoint_path: Optional[Union[str, Path]] = None,
        checkpoint_every: int = 1,
        log_path: Optional[Union[str, Path]] = None,
        fsync_every_n: int = 1,
        stacked: bool = False,
        max_retries: int = 0,
        task_timeout: Optional[float] = None,
        retry_backoff: float = 0.0,
        rotate_every: Optional[int] = None,
        compact_after: Optional[int] = None,
        fault_plan: Optional[FaultPlan] = None,
    ):
        if stacked and spec.backend != "array":
            raise unsupported_option(
                "stacked fleet execution", "backend", spec.backend,
                f"spec {spec.name!r} must use the 'array' backend; run with "
                f"stacked=False or switch the spec to the array backend",
            )
        self.spec = spec
        self.stacked = stacked
        self._init_execution(
            workers,
            chunk_size,
            spec.num_swarms,
            checkpoint_path,
            checkpoint_every,
            log_path,
            fsync_every_n,
            stacked,
            max_retries=max_retries,
            task_timeout=task_timeout,
            retry_backoff=retry_backoff,
            rotate_every=rotate_every,
            compact_after=compact_after,
            fault_plan=fault_plan,
        )

    def _swarm_target(self) -> int:
        return self.spec.num_swarms

    # -- entry points --------------------------------------------------------

    def run(
        self,
        seed: SeedLike = 0,
        stop_after_swarms: Optional[int] = None,
        suspend_after_events: Optional[int] = None,
    ) -> FleetResult:
        """Run the fleet from scratch.

        ``stop_after_swarms`` ends the run (with ``complete=False``) once
        that many swarms have been folded in — the deterministic equivalent
        of killing the run.  ``suspend_after_events`` additionally suspends
        the *next* swarm mid-flight after that many events and stores its
        kernel snapshot in the checkpoint, exercising the mid-swarm resume
        path; it requires ``stop_after_swarms`` and a ``checkpoint_path``.
        """
        if suspend_after_events is not None and stop_after_swarms is None:
            raise ValueError(
                "suspend_after_events requires stop_after_swarms (the swarm "
                "to suspend is the one right after the stop point)"
            )
        if stop_after_swarms is not None and self.checkpoint_path is None:
            raise ValueError(
                "stopping early without a checkpoint_path would lose the "
                "completed work; configure a checkpoint"
            )
        # Normalized once up front: the checkpoint then stores a pure,
        # picklable token, so resume re-derives the identical task list even
        # when the caller passed a (mutable) SeedSequence or Generator.
        seed = normalize_fleet_seed(seed)
        tasks = materialize_tasks(self.spec, seed)
        result = FleetResult(spec_name=self.spec.name, num_swarms=self.spec.num_swarms)
        writer = self._open_writer(seed)
        return self._execute(
            tasks,
            result,
            seed,
            writer,
            in_flight=None,
            stop_after_swarms=stop_after_swarms,
            suspend_after_events=suspend_after_events,
            fresh=True,
        )

    def resume(self, checkpoint_path: Optional[Union[str, Path]] = None) -> FleetResult:
        """Continue a checkpointed run to completion.

        The checkpoint's spec must equal this scheduler's spec; the master
        seed travels inside the checkpoint and the completed-swarm prefix is
        replayed from the paired JSONL log (truncated back to the
        checkpointed offset first).  A mid-swarm snapshot, when present, is
        restored into a fresh simulator and resumed first.
        """
        path = Path(checkpoint_path) if checkpoint_path else self.checkpoint_path
        if path is None:
            raise ValueError("no checkpoint_path configured or given")
        checkpoint = load_checkpoint(path)
        if checkpoint.spec != self.spec:
            raise ValueError(
                "checkpoint spec does not match this scheduler's spec; "
                "use FleetScheduler.from_checkpoint"
            )
        self.checkpoint_path = path
        self.log_path = checkpoint.log_path(path)
        log = read_log(self.log_path, max_records=checkpoint.num_records)
        if len(log.records) < checkpoint.num_records:
            raise ValueError(
                f"fleet log {self.log_path} holds {len(log.records)} records "
                f"but the checkpoint expects {checkpoint.num_records}"
            )
        tasks = materialize_tasks(self.spec, checkpoint.seed)
        result = FleetResult.from_records(
            self.spec.name, self.spec.num_swarms, list(log.records)
        )
        writer = self._open_writer(checkpoint.seed, checkpoint=checkpoint)
        return self._execute(
            tasks,
            result,
            checkpoint.seed,
            writer,
            in_flight=checkpoint.in_flight,
            stop_after_swarms=None,
            suspend_after_events=None,
        )

    @classmethod
    def from_checkpoint(
        cls,
        checkpoint_path: Union[str, Path],
        workers: Optional[int] = None,
        chunk_size: Optional[int] = None,
        checkpoint_every: int = 1,
        fsync_every_n: int = 1,
        stacked: bool = False,
        max_retries: int = 0,
        task_timeout: Optional[float] = None,
        retry_backoff: float = 0.0,
        rotate_every: Optional[int] = None,
        compact_after: Optional[int] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> "FleetScheduler":
        """Build a scheduler around the spec stored in a checkpoint.

        ``stacked`` (like the supervision and log-layout knobs) is an
        execution property, not part of the spec: a fleet checkpointed by
        either path resumes (bit-identically) through the other.
        """
        checkpoint = load_checkpoint(checkpoint_path)
        return cls(
            checkpoint.spec,
            workers=workers,
            chunk_size=chunk_size,
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every,
            fsync_every_n=fsync_every_n,
            stacked=stacked,
            max_retries=max_retries,
            task_timeout=task_timeout,
            retry_backoff=retry_backoff,
            rotate_every=rotate_every,
            compact_after=compact_after,
            fault_plan=fault_plan,
        )

    # -- core ---------------------------------------------------------------

    def _execute(
        self,
        tasks: Sequence[SwarmTask],
        result: FleetResult,
        seed: SeedLike,
        writer: Optional[FleetLogWriter],
        in_flight: Optional[Tuple[int, Dict[str, Any]]],
        stop_after_swarms: Optional[int],
        suspend_after_events: Optional[int],
        fresh: bool = False,
    ) -> FleetResult:
        spec = self.spec
        if self.stacked:
            for task in tasks:
                _check_stacked_task(task)
        run_chunk = _run_stacked_chunk if self.stacked else _run_fleet_chunk
        try:
            if fresh:
                # An initial checkpoint pins the (spec, seed) pair on disk
                # before any work: a crash at any later point can resume.
                self._write_checkpoint(
                    result, seed, writer, in_flight=None, fresh=True
                )
            if in_flight is not None:
                index, snapshot = in_flight
                outcome = _run_swarm_task(spec, tasks[index], snapshot=snapshot)
                result.add(outcome)
                self._append(writer, [outcome])
                self._write_checkpoint(result, seed, writer, in_flight=None)
            done = len(result.records)
            target = spec.num_swarms
            if stop_after_swarms is not None:
                target = min(target, max(stop_after_swarms, done))
            to_run = tasks[done:target]
            chunks = [
                (spec, to_run[start : start + self.chunk_size], self.fault_plan)
                for start in range(0, len(to_run), self.chunk_size)
            ]
            since_checkpoint = 0
            for records in self._map_chunks(run_chunk, chunks):
                for record in records:
                    result.add(record)
                self._append(writer, records)
                since_checkpoint += 1
                if since_checkpoint >= self.checkpoint_every:
                    self._write_checkpoint(result, seed, writer, in_flight=None)
                    since_checkpoint = 0
            if result.complete:
                self._write_checkpoint(result, seed, writer, in_flight=None)
                return result
            # Early stop: optionally suspend the next swarm mid-flight so the
            # checkpoint carries a kernel snapshot across the "kill".
            pending_in_flight = None
            if (
                suspend_after_events is not None
                and len(result.records) < spec.num_swarms
            ):
                task = tasks[len(result.records)]
                outcome = _run_swarm_task(
                    spec, task, suspend_after_events=suspend_after_events
                )
                if isinstance(outcome, FleetSwarmRecord):
                    # The swarm ended before the suspension point; record it.
                    result.add(outcome)
                    self._append(writer, [outcome])
                else:
                    pending_in_flight = (task.index, outcome)
            self._write_checkpoint(result, seed, writer, in_flight=pending_in_flight)
            return result
        finally:
            if writer is not None:
                writer.close()


def run_fleet(
    spec: FleetSpec,
    seed: SeedLike = 0,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
    checkpoint_path: Optional[Union[str, Path]] = None,
    checkpoint_every: int = 1,
    log_path: Optional[Union[str, Path]] = None,
    stop_after_swarms: Optional[int] = None,
    suspend_after_events: Optional[int] = None,
    fsync_every_n: int = 1,
    stacked: bool = False,
    max_retries: int = 0,
    task_timeout: Optional[float] = None,
    retry_backoff: float = 0.0,
    rotate_every: Optional[int] = None,
    compact_after: Optional[int] = None,
    fault_plan: Optional[FaultPlan] = None,
) -> FleetResult:
    """One-call fleet execution (see :class:`FleetScheduler`).

    ``backend=`` is accepted for signature uniformity with ``run_swarm`` /
    ``run_scenario`` but the execution backend is declared on the spec, so
    any non-``None`` value is rejected.
    """
    if backend is not None:
        raise unsupported_option(
            "run_fleet", "backend", backend,
            "the execution backend is declared on the fleet spec; construct "
            "FleetSpec(backend=...) instead",
        )
    scheduler = FleetScheduler(
        spec,
        workers=workers,
        chunk_size=chunk_size,
        checkpoint_path=checkpoint_path,
        checkpoint_every=checkpoint_every,
        log_path=log_path,
        fsync_every_n=fsync_every_n,
        stacked=stacked,
        max_retries=max_retries,
        task_timeout=task_timeout,
        retry_backoff=retry_backoff,
        rotate_every=rotate_every,
        compact_after=compact_after,
        fault_plan=fault_plan,
    )
    return scheduler.run(
        seed=seed,
        stop_after_swarms=stop_after_swarms,
        suspend_after_events=suspend_after_events,
    )


def resume_fleet(
    checkpoint_path: Union[str, Path],
    workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
    checkpoint_every: int = 1,
    fsync_every_n: int = 1,
    stacked: bool = False,
    max_retries: int = 0,
    task_timeout: Optional[float] = None,
    retry_backoff: float = 0.0,
    rotate_every: Optional[int] = None,
    compact_after: Optional[int] = None,
    fault_plan: Optional[FaultPlan] = None,
) -> FleetResult:
    """Resume a checkpointed fleet to completion (see :class:`FleetScheduler`)."""
    scheduler = FleetScheduler.from_checkpoint(
        checkpoint_path,
        workers=workers,
        chunk_size=chunk_size,
        checkpoint_every=checkpoint_every,
        fsync_every_n=fsync_every_n,
        stacked=stacked,
        max_retries=max_retries,
        task_timeout=task_timeout,
        retry_backoff=retry_backoff,
        rotate_every=rotate_every,
        compact_after=compact_after,
        fault_plan=fault_plan,
    )
    return scheduler.resume()


__all__ = [
    "FleetScheduler",
    "PersistentFleetExecution",
    "resume_fleet",
    "run_fleet",
]
