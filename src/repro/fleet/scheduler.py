"""Fleet run loop: shard swarms over workers, stream to a log, resume.

:class:`PersistentFleetExecution` is the one run loop of both fleet drivers:
it executes a run as *rounds* of swarm tasks.  :class:`FleetScheduler`
executes a :class:`~repro.fleet.spec.FleetSpec` as a single round of all its
materialized tasks; the adaptive driver (:mod:`repro.fleet.adaptive`) adds
one round per acquisition step.  For every round:

* **sharding** — the round's swarm tasks are grouped into chunks of
  ``chunk_size`` consecutive swarms and mapped over
  :func:`repro.experiments.runner.map_tasks` (the same process-pool
  primitive :class:`~repro.experiments.runner.BatchRunner` uses) on one
  pool held for the whole run, so many short swarms amortize one worker
  dispatch and many rounds one pool start; with ``stacked=True`` each
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
  after every completed chunk (atomically; see
  :mod:`repro.fleet.checkpoint`).  A checkpoint is just a byte offset into
  the log plus, when the run stopped mid-swarm, the suspended simulator's
  kernel snapshot (``suspend_after_events`` / ``capture_state``).
  :meth:`PersistentFleetExecution.resume` / :func:`resume_fleet` reload
  the checkpoint, replay the log prefix and continue to the *exact*
  result of an uninterrupted run.

``run(stop_after_swarms=..., suspend_after_events=...)`` exposes the
interruption points deterministically, which is how the tests (and the CI
smoke step) "kill" a fleet mid-run without process signals.
"""

from __future__ import annotations

import itertools
import math
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

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
    """The one run loop of the fixed scheduler and the adaptive driver.

    A run is a sequence of *rounds* of swarm tasks (:meth:`_rounds`): the
    fixed census is a single round, ``tasks[done:]``; the adaptive driver
    yields the interrupted round's remainder, then one round per
    acquisition step.  Everything else lives here, once: option
    validation, JSONL-log pairing (a checkpoint always gets a sibling
    ``<checkpoint>.jsonl`` log), the fresh checkpoint, the in-flight resume
    (the suspended swarm is always the first task of the first round), the
    chunk map / fold / append / cadence-checkpoint loop, the deterministic
    stop that suspends the next swarm into the checkpoint, and
    :meth:`resume` / :meth:`from_checkpoint` from a checkpoint plus its log
    prefix.

    Pool lifetime: with ``workers > 1`` a run holds one
    :class:`~repro.experiments.runner.SupervisedPool` of ``min(workers,
    ceil(round size / chunk_size))`` processes for all of its rounds, on
    the per-swarm and the stacked path alike.  Its workers start at the
    first round that takes the pool path, keep two chunks each submitted
    (a worker runs the next chunk while the parent folds, logs and
    checkpoints the last one), and are terminated if still busy and
    reaped before :meth:`run` or :meth:`resume` returns or raises.  A
    crash or timeout restarts the pool inside the round; nothing else
    does.

    Subclasses set ``spec_type`` and define :meth:`_round_size` (the chunk
    size default's unit), :meth:`_prepare` (per-run state, rebuilt from
    the log prefix on resume), :meth:`_rounds` and :meth:`_result`, and may
    override :meth:`_execution_spec` and ``_checkpoint_rounds``.

    Parameters
    ----------
    spec:
        The frozen run description (an instance of ``spec_type``).
    workers:
        ``None``/0/1 runs in-process; ``n > 1`` shards chunks over the
        run's supervised pool through
        :func:`repro.experiments.runner.map_tasks` (a dead worker raises
        instead of hanging the run).  The result is identical either way.
    chunk_size:
        Consecutive swarms per worker dispatch (default: a few chunks per
        worker lane).
    checkpoint_path:
        When set, progress is checkpointed here after every completed
        chunk (and at every stop); the checkpoint stores only an offset
        into the JSONL log.
    log_path:
        The one append-only JSONL fleet log file.  Defaults to a sibling of
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
    fault_plan:
        A :class:`~repro.fleet.faults.FaultPlan` of injected failures for
        chaos testing; ``None`` (the default) costs nothing.
    """

    #: The spec class this runner executes (and accepts in checkpoints).
    spec_type: type
    #: Whether a checkpoint is also written at the end of every round.
    _checkpoint_rounds = False

    def __init__(
        self,
        spec,
        workers: Optional[int] = None,
        chunk_size: Optional[int] = None,
        checkpoint_path: Optional[Union[str, Path]] = None,
        log_path: Optional[Union[str, Path]] = None,
        fsync_every_n: int = 1,
        stacked: bool = False,
        max_retries: int = 0,
        task_timeout: Optional[float] = None,
        retry_backoff: float = 0.0,
        fault_plan: Optional[FaultPlan] = None,
    ):
        if stacked and spec.backend != "array":
            raise unsupported_option(
                "stacked fleet execution", "backend", spec.backend,
                f"spec {spec.name!r} must use the 'array' backend; run with "
                f"stacked=False or switch the spec to the array backend",
            )
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        if fsync_every_n < 1:
            raise ValueError(f"fsync_every_n must be >= 1, got {fsync_every_n}")
        from ..experiments.runner import _check_supervision

        _check_supervision(
            "fleet execution", max_retries, task_timeout, retry_backoff
        )
        self.spec = spec
        self.stacked = stacked
        self.workers = workers
        self.fsync_every_n = fsync_every_n
        self.chunk_size = chunk_size or _default_chunk_size(
            self._round_size(), workers, stacked
        )
        self.checkpoint_path = Path(checkpoint_path) if checkpoint_path else None
        self.max_retries = max_retries
        self.task_timeout = task_timeout
        self.retry_backoff = retry_backoff
        self.fault_plan = fault_plan
        self._fault_state = FaultState(fault_plan) if fault_plan is not None else None
        self._supervised = max_retries > 0 or task_timeout is not None
        if log_path is not None:
            self.log_path: Optional[Path] = Path(log_path)
        elif self.checkpoint_path is not None:
            self.log_path = default_log_path(self.checkpoint_path)
        else:
            self.log_path = None

    # -- subclass hooks -------------------------------------------------------

    def _round_size(self) -> int:
        """Swarms per round: the unit the default chunk size divides."""
        raise NotImplementedError

    def _execution_spec(self) -> FleetSpec:
        """The ``FleetSpec`` whose run controls every swarm task uses; its
        ``name`` / ``num_swarms`` also head the log and the census."""
        return self.spec

    def _prepare(self, seed: SeedLike, records: List[FleetSwarmRecord]) -> None:
        """Set up per-run state; ``records`` is the replayed log prefix."""
        raise NotImplementedError

    def _rounds(self, result: FleetResult) -> Iterator[List[SwarmTask]]:
        """The rounds of tasks still to run, each yielded once the previous
        round has completed."""
        raise NotImplementedError

    def _result(self, result: FleetResult):
        """The run's return value (``result`` itself for the fixed fleet)."""
        return result

    # -- entry points ---------------------------------------------------------

    def run(
        self,
        seed: SeedLike = 0,
        stop_after_swarms: Optional[int] = None,
        suspend_after_events: Optional[int] = None,
    ):
        """Run from scratch.

        ``stop_after_swarms`` ends the run (incomplete) once that many swarms
        have been folded in — the deterministic equivalent of killing the
        run.  ``suspend_after_events`` additionally suspends the *next*
        swarm mid-flight after that many events and stores its kernel
        snapshot in the checkpoint, exercising the mid-swarm resume path; it
        requires ``stop_after_swarms`` and a ``checkpoint_path``.
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
        # picklable token, so resume re-derives the identical tasks even
        # when the caller passed a (mutable) SeedSequence or Generator.
        return self._drive(
            normalize_fleet_seed(seed),
            [],
            None,
            stop_after_swarms,
            suspend_after_events,
        )

    def resume(self, checkpoint_path: Optional[Union[str, Path]] = None):
        """Continue a checkpointed run to completion.

        The checkpoint's spec must equal this run's spec; the master seed
        travels inside the checkpoint and the completed-swarm prefix is
        replayed from the paired JSONL log (truncated back to the
        checkpointed offset first).  A mid-swarm snapshot, when present, is
        restored into a fresh simulator and resumed first.
        """
        path = Path(checkpoint_path) if checkpoint_path else self.checkpoint_path
        if path is None:
            raise ValueError("no checkpoint_path configured or given")
        checkpoint = self._load_checkpoint(path)
        if checkpoint.spec != self.spec:
            raise ValueError(
                f"checkpoint spec does not match this {type(self).__name__}'s "
                f"spec; use {type(self).__name__}.from_checkpoint"
            )
        self.checkpoint_path = path
        self.log_path = checkpoint.log_path(path)
        log = read_log(self.log_path, max_records=checkpoint.num_records)
        if len(log.records) < checkpoint.num_records:
            raise ValueError(
                f"fleet log {self.log_path} holds {len(log.records)} records "
                f"but the checkpoint expects {checkpoint.num_records}"
            )
        return self._drive(checkpoint.seed, list(log.records), checkpoint, None, None)

    @classmethod
    def from_checkpoint(
        cls,
        checkpoint_path: Union[str, Path],
        workers: Optional[int] = None,
        chunk_size: Optional[int] = None,
        fsync_every_n: int = 1,
        stacked: bool = False,
        max_retries: int = 0,
        task_timeout: Optional[float] = None,
        retry_backoff: float = 0.0,
        fault_plan: Optional[FaultPlan] = None,
    ):
        """Build a runner around the spec stored in a checkpoint.

        ``stacked`` (like the supervision and fsync knobs) is an
        execution property, not part of the spec: a run checkpointed by
        either path resumes (bit-identically) through the other.
        """
        return cls(
            cls._load_checkpoint(checkpoint_path).spec,
            workers=workers,
            chunk_size=chunk_size,
            checkpoint_path=checkpoint_path,
            fsync_every_n=fsync_every_n,
            stacked=stacked,
            max_retries=max_retries,
            task_timeout=task_timeout,
            retry_backoff=retry_backoff,
            fault_plan=fault_plan,
        )

    @classmethod
    def _load_checkpoint(cls, path: Union[str, Path]) -> FleetCheckpoint:
        checkpoint = load_checkpoint(path)
        if not isinstance(checkpoint.spec, cls.spec_type):
            raise ValueError(
                f"{path} checkpoints spec type {type(checkpoint.spec).__name__}, "
                f"which {cls.__name__} cannot run; resume FleetSpec checkpoints "
                f"with resume_fleet and AdaptiveFleetSpec checkpoints with "
                f"resume_adaptive_fleet"
            )
        return checkpoint

    # -- the run loop ---------------------------------------------------------

    def _drive(
        self,
        seed: SeedLike,
        records: List[FleetSwarmRecord],
        checkpoint: Optional[FleetCheckpoint],
        stop_after_swarms: Optional[int],
        suspend_after_events: Optional[int],
    ):
        spec = self._execution_spec()
        self._prepare(seed, records)
        result = FleetResult.from_records(spec.name, spec.num_swarms, records)
        writer = self._open_writer(spec, seed, checkpoint)
        run_chunk = _run_stacked_chunk if self.stacked else _run_fleet_chunk
        pool = None
        if (self.workers or 0) > 1:
            from ..experiments.runner import SupervisedPool

            # One pool serves every round; its workers start at the first
            # round that takes the pool path.
            pool = SupervisedPool(
                min(self.workers, math.ceil(self._round_size() / self.chunk_size))
            )
        try:
            rounds = self._rounds(result)
            if checkpoint is None:
                # An initial checkpoint pins the (spec, seed) pair on disk
                # before any work: a crash at any later point can resume.
                self._write_checkpoint(result, seed, writer, fresh=True)
            elif checkpoint.in_flight is not None:
                # The suspended swarm is the first task of the first round.
                first = next(rounds, [])
                if not first:
                    raise ValueError(
                        "checkpoint carries an in-flight swarm but the "
                        "schedule is already finished"
                    )
                record = _run_swarm_task(
                    spec, first[0], snapshot=checkpoint.in_flight[1]
                )
                self._fold(result, writer, [record])
                self._write_checkpoint(result, seed, writer)
                rounds = itertools.chain([first[1:]], rounds)
            for tasks in rounds:
                if self.stacked:
                    for task in tasks:
                        _check_stacked_task(task)
                run_now = len(tasks)
                if stop_after_swarms is not None:
                    run_now = min(
                        run_now, max(stop_after_swarms - len(result.records), 0)
                    )
                to_run = tasks[:run_now]
                chunks = [
                    (spec, to_run[start : start + self.chunk_size], self.fault_plan)
                    for start in range(0, run_now, self.chunk_size)
                ]
                for chunk_records in self._map_chunks(run_chunk, chunks, pool):
                    self._fold(result, writer, chunk_records)
                    self._write_checkpoint(result, seed, writer)
                if run_now < len(tasks):
                    # Deterministic kill: optionally suspend the next swarm
                    # mid-flight so the checkpoint carries a kernel snapshot
                    # across the "kill".
                    in_flight = None
                    if suspend_after_events is not None:
                        task = tasks[run_now]
                        outcome = _run_swarm_task(
                            spec, task, suspend_after_events=suspend_after_events
                        )
                        if isinstance(outcome, FleetSwarmRecord):
                            # Finished before the suspension point: record it.
                            self._fold(result, writer, [outcome])
                        else:
                            in_flight = (task.index, outcome)
                    self._write_checkpoint(result, seed, writer, in_flight=in_flight)
                    return self._result(result)
                if self._checkpoint_rounds:
                    self._write_checkpoint(result, seed, writer)
            self._write_checkpoint(result, seed, writer)
            return self._result(result)
        finally:
            if pool is not None:
                pool.close()
            if writer is not None:
                writer.close()

    # -- plumbing -------------------------------------------------------------

    def _open_writer(
        self,
        spec: FleetSpec,
        seed: SeedLike,
        checkpoint: Optional[FleetCheckpoint],
    ) -> Optional[FleetLogWriter]:
        if self.log_path is None:
            return None
        header = FleetLogHeader(
            schema=FLEET_LOG_SCHEMA,
            spec_name=spec.name,
            num_swarms=spec.num_swarms,
            seed=seed,
        )
        resume = {} if checkpoint is None else dict(
            resume_offset=checkpoint.log_offset,
            resume_records=checkpoint.num_records,
        )
        return FleetLogWriter(
            self.log_path,
            header,
            fsync_every_n=self.fsync_every_n,
            faults=self._fault_state,
            **resume,
        )

    @staticmethod
    def _fold(
        result: FleetResult,
        writer: Optional[FleetLogWriter],
        records: List[FleetSwarmRecord],
    ) -> None:
        for record in records:
            result.add(record)
        if writer is not None:
            writer.append(records)

    def _write_checkpoint(
        self,
        result: FleetResult,
        seed: SeedLike,
        writer: Optional[FleetLogWriter],
        in_flight: Optional[Tuple[int, Dict[str, Any]]] = None,
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
                in_flight=in_flight,
            ),
            faults=self._fault_state,
            # The first checkpoint of a fresh run must also clear any stale
            # backup a *previous* run left, or a later corruption could fall
            # back to unrelated state.
            keep_previous=not fresh,
        )

    def _map_chunks(self, run_chunk, chunks, pool):
        """Map chunk jobs over the workers through :func:`map_tasks`, on
        the run's ``pool`` when it has one.

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
            pool=pool,
        )
        for outcome in outcomes:
            if isinstance(outcome, TaskFailure):
                yield self._quarantine_chunk(*chunks[outcome.task_index])
            else:
                yield outcome

    def _quarantine_chunk(self, spec, tasks, plan):
        """In-process fallback for a chunk that exhausted its retries.

        Each swarm gets its own fresh attempts through the serial path of
        :func:`map_tasks`; one that still cannot finish degrades to a
        schema-versioned ``failed`` record (with the final error and
        attempt count) instead of poisoning the run.
        """
        from ..experiments.runner import TaskFailure, map_tasks

        outcomes = map_tasks(
            _run_fleet_chunk,
            [(spec, [task], plan) for task in tasks],
            None,
            max_retries=self.max_retries,
            retry_backoff=self.retry_backoff,
            on_exhausted="yield",
            with_attempt=True,
        )
        return [
            failure_record(task, spec, error=outcome.error, attempts=outcome.attempts)
            if isinstance(outcome, TaskFailure)
            else outcome[0]
            for task, outcome in zip(tasks, outcomes)
        ]


class FleetScheduler(PersistentFleetExecution):
    """Execute a :class:`~repro.fleet.spec.FleetSpec` with checkpointable
    progress: the fixed census is one round of ``spec.num_swarms`` tasks on
    the shared :class:`PersistentFleetExecution` loop (see there for the
    parameters).  A run writes one append-only JSONL log file, and its
    checkpoints point into it by byte offset."""

    spec_type = FleetSpec

    def _round_size(self) -> int:
        return self.spec.num_swarms

    def _prepare(self, seed: SeedLike, records: List[FleetSwarmRecord]) -> None:
        self._tasks = materialize_tasks(self.spec, seed)

    def _rounds(self, result: FleetResult) -> Iterator[List[SwarmTask]]:
        yield self._tasks[len(result.records) :]


def run_fleet(
    spec: FleetSpec,
    seed: SeedLike = 0,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
    checkpoint_path: Optional[Union[str, Path]] = None,
    log_path: Optional[Union[str, Path]] = None,
    stop_after_swarms: Optional[int] = None,
    suspend_after_events: Optional[int] = None,
    fsync_every_n: int = 1,
    stacked: bool = False,
    max_retries: int = 0,
    task_timeout: Optional[float] = None,
    retry_backoff: float = 0.0,
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
        log_path=log_path,
        fsync_every_n=fsync_every_n,
        stacked=stacked,
        max_retries=max_retries,
        task_timeout=task_timeout,
        retry_backoff=retry_backoff,
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
    fsync_every_n: int = 1,
    stacked: bool = False,
    max_retries: int = 0,
    task_timeout: Optional[float] = None,
    retry_backoff: float = 0.0,
    fault_plan: Optional[FaultPlan] = None,
) -> FleetResult:
    """Resume a checkpointed fleet to completion (see :class:`FleetScheduler`)."""
    scheduler = FleetScheduler.from_checkpoint(
        checkpoint_path,
        workers=workers,
        chunk_size=chunk_size,
        fsync_every_n=fsync_every_n,
        stacked=stacked,
        max_retries=max_retries,
        task_timeout=task_timeout,
        retry_backoff=retry_backoff,
        fault_plan=fault_plan,
    )
    return scheduler.resume()


__all__ = [
    "FleetScheduler",
    "PersistentFleetExecution",
    "resume_fleet",
    "run_fleet",
]
