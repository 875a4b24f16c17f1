"""Experiment harness: batched swarm replications and stability trials.

Two layers live here:

* :class:`BatchRunner` — fans independent swarm replications out across
  worker processes through :func:`map_tasks` (or runs them serially),
  derives one child seed per replication via
  :func:`repro.simulation.rng.spawn_generators`, selects the simulation
  backend (``"object"`` reference simulator or ``"array"``
  structure-of-arrays kernel) and aggregates the per-replication
  :class:`~repro.swarm.metrics.SwarmMetrics` streams into a
  :class:`BatchSwarmResult`.
* *Stability trials* — a trial compares Theorem 1's verdict with the
  empirical behaviour at a single parameter point: several replications are
  run through a :class:`BatchRunner`, each trajectory is classified by
  :func:`repro.markov.classify.classify_trajectory`, and the majority verdict
  is reported next to the theoretical one.  Sweeps are lists of trials.

Scenario support: :class:`BatchRunner` accepts a declarative
:class:`~repro.core.scenario.ScenarioSpec` (heterogeneous peer classes,
time-varying rate schedules) as ``scenario=``, and :func:`run_scenario` is
the one-call entry point for batched scenario replications — pass either a
spec or a registered scenario name ("flash-crowd", "seed-outage", ...).

Backend-selection contract: every entry point takes ``backend="object" |
"array"`` and threads it through :func:`repro.swarm.swarm.make_simulator`.
The two backends are trajectory-equivalent under a shared seed — on plain
parameters and on every scenario — so switching backends changes the
wall-clock, never the science.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.parameters import SystemParameters
from ..core.scenario import ScenarioSpec, make_scenario
from ..core.stability import Stability, StabilityReport, analyze
from ..core.state import SystemState
from ..markov.classify import (
    TrajectoryClassification,
    TrajectoryVerdict,
    classify_trajectory,
    majority_verdict,
)
from ..simulation.rng import SeedLike, spawn_generators
from ..swarm.metrics import SwarmMetrics
from ..swarm.policies import PieceSelectionPolicy
from ..swarm.swarm import (
    _RUN_KWARGS,
    _SIM_KWARGS,
    SwarmResult,
    make_simulator,
    unsupported_option,
)

#: Same keyword split as :func:`repro.swarm.swarm.run_swarm`, except that
#: ``scenario`` is an explicit parameter of :func:`run_scenario`, not a
#: passthrough.
_SCENARIO_SIM_KWARGS = tuple(key for key in _SIM_KWARGS if key != "scenario")


def _run_replication(task) -> SwarmResult:
    """Top-level worker so batched replications can cross process boundaries."""
    params, policy, backend, sim_kwargs, horizon, initial_state, run_kwargs, rng = task
    simulator = make_simulator(
        params, policy=policy, seed=rng, backend=backend, **sim_kwargs
    )
    return simulator.run(horizon, initial_state=initial_state, **run_kwargs)


class TaskTimeoutError(RuntimeError):
    """A supervised task overran its per-task deadline and was terminated."""


class WorkerCrashError(RuntimeError):
    """A worker process died (segfault, OOM kill, ``os._exit``) mid-task."""


@dataclass(frozen=True)
class TaskFailure:
    """A supervised task that exhausted its retry budget.

    Yielded in the task's position (``on_exhausted="yield"``) so consumers
    can degrade gracefully — e.g. the fleet scheduler records the swarm as
    ``failed`` instead of losing the whole run.
    """

    task_index: int
    error: str
    error_type: str
    attempts: int


def _invoke_task(function, task, attempt: int, with_attempt: bool):
    if with_attempt:
        return function(task, attempt)
    return function(task)


def _describe_error(error: BaseException) -> str:
    return f"{type(error).__name__}: {error}"


def _check_supervision(
    entry_point: str,
    max_retries: int,
    task_timeout: Optional[float],
    retry_backoff: float,
) -> None:
    """Validate the supervision options of ``entry_point`` (shared by
    :func:`map_tasks` and the fleet executors)."""
    if isinstance(max_retries, bool) or not isinstance(max_retries, int) or (
        max_retries < 0
    ):
        raise unsupported_option(
            entry_point, "max_retries", max_retries,
            "retries are a bounded non-negative count; pass 0 to disable "
            "supervised retry",
        )
    if task_timeout is not None and (
        isinstance(task_timeout, bool) or not task_timeout > 0
    ):
        raise unsupported_option(
            entry_point, "task_timeout", task_timeout,
            "the per-task deadline is seconds of wall clock and must be "
            "positive; pass None to disable it",
        )
    if retry_backoff < 0:
        raise unsupported_option(
            entry_point, "retry_backoff", retry_backoff,
            "the retry backoff is seconds and must be >= 0",
        )


def _run_supervised_serial(
    function,
    tasks: Sequence,
    max_retries: int,
    retry_backoff: float,
    on_exhausted: str,
    with_attempt: bool,
):
    """In-process supervision: bounded retries only (a serial run has no
    supervisor thread to enforce a deadline against, so ``task_timeout``
    is not enforceable here — documented on :func:`map_tasks`)."""
    for index, task in enumerate(tasks):
        outcome = None
        failure: Optional[BaseException] = None
        for attempt in range(max_retries + 1):
            try:
                outcome = _invoke_task(function, task, attempt, with_attempt)
                failure = None
                break
            except Exception as error:
                failure = error
                if attempt < max_retries and retry_backoff:
                    time.sleep(retry_backoff * (2 ** attempt))
        if failure is not None:
            if on_exhausted == "yield":
                yield TaskFailure(
                    task_index=index,
                    error=_describe_error(failure),
                    error_type=type(failure).__name__,
                    attempts=max_retries + 1,
                )
            else:
                raise failure
        else:
            yield outcome


def _run_supervised_pool(
    function,
    tasks: Sequence,
    pool_size: int,
    task_timeout: Optional[float],
    max_retries: int,
    retry_backoff: float,
    on_exhausted: str,
    with_attempt: bool,
):
    """Supervised process-pool execution: crash detection, deadlines, retry.

    Uses ``concurrent.futures.ProcessPoolExecutor`` because a dead worker
    breaks the executor *loudly* (``BrokenProcessPool`` on every in-flight
    future) instead of leaving the caller waiting forever for the lost
    result.  On a broken pool, every in-flight task is charged one attempt
    (the executor cannot attribute the death to a single future) and the
    pool is rebuilt; on a deadline overrun, the
    pool's processes are terminated, only the overrunning tasks are
    charged, and everything else is requeued uncharged.  Results, and
    errors re-raised under ``on_exhausted="raise"``, come out strictly in
    task order.
    """
    import concurrent.futures as cf
    from concurrent.futures.process import BrokenProcessPool

    total = len(tasks)
    attempts = [0] * total  # failed attempts consumed per task
    # index -> ("ok", result) | ("raise", error) | TaskFailure
    resolved: Dict[int, Any] = {}
    ready: List[int] = list(range(total))
    heapq.heapify(ready)
    inflight: Dict[int, Tuple[Any, float]] = {}  # index -> (future, started)
    executor = cf.ProcessPoolExecutor(pool_size)

    def restart_pool(kill: bool) -> None:
        nonlocal executor
        if kill:
            for process in list(getattr(executor, "_processes", {}).values()):
                process.terminate()
        executor.shutdown(wait=False, cancel_futures=True)
        executor = cf.ProcessPoolExecutor(pool_size)

    def record_failure(index: int, error: BaseException) -> None:
        attempts[index] += 1
        if attempts[index] <= max_retries:
            if retry_backoff:
                time.sleep(retry_backoff * (2 ** (attempts[index] - 1)))
            heapq.heappush(ready, index)
        elif on_exhausted == "yield":
            resolved[index] = TaskFailure(
                task_index=index,
                error=_describe_error(error),
                error_type=type(error).__name__,
                attempts=attempts[index],
            )
        else:
            resolved[index] = ("raise", error)

    def harvest() -> None:
        broken = False
        for index, (future, _started) in list(inflight.items()):
            if not future.done():
                continue
            del inflight[index]
            error = future.exception()
            if error is None:
                resolved[index] = ("ok", future.result())
            elif isinstance(error, BrokenProcessPool):
                broken = True
                record_failure(
                    index,
                    WorkerCrashError(
                        f"worker process died while running task {index}"
                    ),
                )
            else:
                record_failure(index, error)
        if broken:
            # Any future still pending on the broken pool is doomed too.
            for index in list(inflight):
                del inflight[index]
                record_failure(
                    index,
                    WorkerCrashError(
                        f"worker pool broke while task {index} was in flight"
                    ),
                )
            restart_pool(kill=False)

    def expire() -> None:
        if task_timeout is None or not inflight:
            return
        now = time.monotonic()
        overran = {
            index
            for index, (future, started) in inflight.items()
            if now - started >= task_timeout and not future.done()
        }
        if not overran:
            return
        # Terminating the pool aborts *everything* in flight; only the
        # overrunning tasks pay an attempt, the rest requeue uncharged.
        for index, (future, _started) in list(inflight.items()):
            del inflight[index]
            if index in overran:
                record_failure(
                    index,
                    TaskTimeoutError(
                        f"task {index} exceeded the {task_timeout}s deadline"
                    ),
                )
            else:
                heapq.heappush(ready, index)
        restart_pool(kill=True)

    def fill() -> None:
        while ready and len(inflight) < pool_size:
            index = heapq.heappop(ready)
            if index in resolved:
                continue
            try:
                future = executor.submit(
                    _invoke_task, function, tasks[index], attempts[index],
                    with_attempt,
                )
            except (BrokenProcessPool, RuntimeError):
                heapq.heappush(ready, index)
                restart_pool(kill=False)
                continue
            inflight[index] = (future, time.monotonic())

    try:
        emit = 0
        while emit < total:
            harvest()
            expire()
            fill()
            if emit in resolved:
                value = resolved.pop(emit)
                if isinstance(value, TaskFailure):
                    yield value
                elif value[0] == "raise":
                    raise value[1]
                else:
                    yield value[1]
                emit += 1
                continue
            futures = [future for future, _started in inflight.values()]
            if not futures:
                continue
            if task_timeout is not None:
                now = time.monotonic()
                next_deadline = min(
                    started + task_timeout for _f, started in inflight.values()
                )
                wait_for = max(next_deadline - now, 0.0) + 0.01
            else:
                wait_for = None
            cf.wait(futures, timeout=wait_for, return_when=cf.FIRST_COMPLETED)
    finally:
        if inflight:
            # The consumer stopped early or a task's error was raised:
            # terminate the outstanding work.
            processes = getattr(executor, "_processes", None) or {}
            for process in list(processes.values()):
                process.terminate()
        # Waiting joins the executor's manager thread, which otherwise can
        # race the interpreter-exit hook on its wakeup pipe (EBADF noise).
        executor.shutdown(wait=True, cancel_futures=True)


def map_tasks(
    function,
    tasks: Sequence,
    workers: Optional[int],
    *,
    task_timeout: Optional[float] = None,
    max_retries: int = 0,
    retry_backoff: float = 0.0,
    on_exhausted: str = "raise",
    with_attempt: bool = False,
):
    """Stream ``function`` over ``tasks``, serially or on a process pool.

    ``workers in (None, 0, 1)`` runs in-process; larger values use a
    supervised ``ProcessPoolExecutor`` of ``min(workers, len(tasks))``
    processes.  Results are yielded strictly in task order either way, and
    a task's error is raised in its position with its original type, so
    callers' outcomes never depend on the worker count.  A worker process
    that dies mid-task surfaces as :class:`WorkerCrashError` instead of a
    hang.  The pool is torn down when the generator is exhausted *or*
    closed early (a consumer that stops iterating — e.g. the fleet
    scheduler hitting a checkpoint stop — cancels the outstanding work).

    Supervision options (the defaults run every task once and raise its
    error):

    * ``max_retries`` — failed tasks are retried up to this many times
      with deterministic exponential backoff (``retry_backoff * 2**k``
      seconds before retry ``k+1``); a worker-process death
      (:class:`WorkerCrashError`) counts as a failed attempt for every
      task that was in flight.
    * ``task_timeout`` — per-task wall-clock deadline (seconds) on the
      pool path; an overrunning task's workers are terminated and the
      task is charged one attempt.  Unenforceable in-process (a serial
      run has no supervisor), so serial supervision retries only.
    * ``on_exhausted`` — ``"raise"`` re-raises the final error;
      ``"yield"`` yields a :class:`TaskFailure` sentinel in the task's
      position so the consumer can degrade gracefully.
    * ``with_attempt`` — call ``function(task, attempt)`` instead of
      ``function(task)``, letting deterministic fault plans key on the
      attempt number.

    This is the one process-fan-out primitive of the experiment stack:
    :class:`BatchRunner` maps replications through it and
    :class:`repro.fleet.scheduler.FleetScheduler` maps swarm chunks.
    """
    _check_supervision("map_tasks", max_retries, task_timeout, retry_backoff)
    if on_exhausted not in ("raise", "yield"):
        raise ValueError(
            f"on_exhausted must be 'raise' or 'yield', got {on_exhausted!r}"
        )
    workers = workers or 0
    if workers > 1 and len(tasks) > 1:
        yield from _run_supervised_pool(
            function,
            tasks,
            min(workers, len(tasks)),
            task_timeout,
            max_retries,
            retry_backoff,
            on_exhausted,
            with_attempt,
        )
    else:
        yield from _run_supervised_serial(
            function, tasks, max_retries, retry_backoff, on_exhausted,
            with_attempt,
        )


@dataclass
class BatchSwarmResult:
    """Aggregated outcome of a batch of independent swarm replications."""

    results: List[SwarmResult]
    backend: str

    def __len__(self) -> int:
        return len(self.results)

    @property
    def metrics(self) -> List[SwarmMetrics]:
        """The per-replication metrics streams, in seed order."""
        return [result.metrics for result in self.results]

    def final_populations(self) -> np.ndarray:
        return np.array([result.final_population for result in self.results])

    def mean_final_population(self) -> float:
        values = self.final_populations()
        return float(values.mean()) if values.size else 0.0

    def all_horizons_reached(self) -> bool:
        return all(result.horizon_reached for result in self.results)

    def summary(self) -> Dict[str, float]:
        """Mean of every per-replication summary statistic (NaN-safe)."""
        summaries = [result.metrics.summary() for result in self.results]
        if not summaries:
            return {}
        merged: Dict[str, float] = {}
        for key in summaries[0]:
            values = np.array([summary[key] for summary in summaries])
            finite = values[np.isfinite(values)]
            merged[key] = float(finite.mean()) if finite.size else float("nan")
        return merged


class BatchRunner:
    """Fan independent swarm replications across processes.

    Parameters
    ----------
    params:
        The system parameters shared by every replication.
    policy:
        Piece-selection policy (must be picklable when ``workers > 1``; the
        built-in policies are).
    backend:
        ``"object"`` (reference simulator) or ``"array"`` (SoA kernel), passed
        to :func:`repro.swarm.swarm.make_simulator`.
    workers:
        ``None``, 0 or 1 runs the batch serially in-process; ``n > 1`` runs
        it on :func:`map_tasks`'s supervised executor with ``n`` worker
        processes.  Results are returned in seed order either way, so the
        outcome is independent of ``workers``.
    sim_kwargs:
        Extra simulator-constructor options (``rare_piece``,
        ``retry_speedup``, ``track_groups``, ``scenario``).  Passing a
        :class:`~repro.core.scenario.ScenarioSpec` as ``scenario=`` runs
        every replication under that workload (or use :func:`run_scenario`,
        which also resolves registered scenario names).

    Each replication receives its own child generator from
    :func:`spawn_generators`, making the whole batch reproducible from one
    seed while keeping the replications statistically independent.
    """

    def __init__(
        self,
        params: SystemParameters,
        policy: Optional[PieceSelectionPolicy] = None,
        backend: str = "object",
        workers: Optional[int] = None,
        **sim_kwargs,
    ):
        self.params = params
        self.policy = policy
        self.backend = backend
        self.workers = workers
        self.sim_kwargs = sim_kwargs

    def run(
        self,
        horizon: float,
        replications: int,
        seed: SeedLike = 0,
        initial_state: Optional[SystemState] = None,
        **run_kwargs,
    ) -> BatchSwarmResult:
        """Run ``replications`` independent simulations of ``horizon``."""
        if replications < 1:
            raise ValueError(f"replications must be >= 1, got {replications}")
        rngs = spawn_generators(seed, replications)
        tasks = [
            (
                self.params,
                self.policy,
                self.backend,
                self.sim_kwargs,
                horizon,
                initial_state,
                run_kwargs,
                rng,
            )
            for rng in rngs
        ]
        results = list(map_tasks(_run_replication, tasks, self.workers))
        return BatchSwarmResult(results=results, backend=self.backend)


def run_scenario(
    scenario: "ScenarioSpec | str",
    horizon: float,
    replications: int = 1,
    seed: SeedLike = 0,
    policy: Optional[PieceSelectionPolicy] = None,
    initial_state: Optional[SystemState] = None,
    backend: str = "object",
    workers: Optional[int] = None,
    stacked: bool = False,
    scenario_kwargs: Optional[Dict] = None,
    **kwargs,
) -> BatchSwarmResult:
    """Run batched replications of a declarative scenario.

    ``scenario`` is either a :class:`~repro.core.scenario.ScenarioSpec` or
    the name of a registered scenario (resolved via
    :func:`repro.core.scenario.make_scenario`, with ``scenario_kwargs``
    forwarded to the factory).  The remaining keyword arguments are split
    between the simulator constructor (``rare_piece``, ``retry_speedup``,
    ``track_groups``) and ``run`` (``sample_interval``, ``max_events``,
    ``max_population``), exactly as in :func:`repro.swarm.swarm.run_swarm`.
    """
    if stacked:
        raise unsupported_option(
            "run_scenario", "stacked", stacked,
            "stacked execution batches fleets of independent swarms; use "
            "run_fleet(stacked=True) or run_adaptive_fleet(stacked=True)",
        )
    if isinstance(scenario, str):
        scenario = make_scenario(scenario, **(scenario_kwargs or {}))
    elif scenario_kwargs:
        raise ValueError(
            "scenario_kwargs only applies when scenario is a registered name"
        )
    sim_kwargs = {
        key: value for key, value in kwargs.items() if key in _SCENARIO_SIM_KWARGS
    }
    run_kwargs = {
        key: value for key, value in kwargs.items() if key in _RUN_KWARGS
    }
    unknown = set(kwargs) - set(_SCENARIO_SIM_KWARGS) - set(_RUN_KWARGS)
    if unknown:
        raise TypeError(f"unknown run_scenario arguments: {sorted(unknown)}")
    runner = BatchRunner(
        scenario.params,
        policy=policy,
        backend=backend,
        workers=workers,
        scenario=scenario,
        **sim_kwargs,
    )
    return runner.run(
        horizon,
        replications,
        seed=seed,
        initial_state=initial_state,
        **run_kwargs,
    )


@dataclass
class StabilityTrialResult:
    """Theory vs. simulation at a single parameter point."""

    label: str
    params: SystemParameters
    theory: StabilityReport
    classifications: List[TrajectoryClassification]
    empirical_verdict: TrajectoryVerdict
    mean_normalized_slope: float
    mean_population: float
    results: List[SwarmResult] = field(default_factory=list)

    @property
    def agrees_with_theory(self) -> bool:
        """True when the empirical verdict matches the theoretical one.

        Borderline theory points and inconclusive empirical verdicts never
        count as agreement or disagreement; they are reported as-is.
        """
        if self.theory.verdict is Stability.STABLE:
            return self.empirical_verdict is TrajectoryVerdict.STABLE
        if self.theory.verdict is Stability.UNSTABLE:
            return self.empirical_verdict is TrajectoryVerdict.UNSTABLE
        return False

    def row(self) -> Tuple[str, str, str, float, float]:
        """A table row: label, theory, empirical, slope, mean population."""
        return (
            self.label,
            self.theory.verdict.value,
            self.empirical_verdict.value,
            self.mean_normalized_slope,
            self.mean_population,
        )


def run_stability_trial(
    params: SystemParameters,
    label: str = "",
    horizon: float = 300.0,
    replications: int = 3,
    seed: SeedLike = 0,
    policy: Optional[PieceSelectionPolicy] = None,
    initial_state: Optional[SystemState] = None,
    max_population: Optional[int] = 20_000,
    keep_results: bool = False,
    last_fraction: float = 0.5,
    backend: str = "object",
    workers: Optional[int] = None,
) -> StabilityTrialResult:
    """Run one theory-vs-simulation comparison at a parameter point."""
    theory = analyze(params)
    runner = BatchRunner(params, policy=policy, backend=backend, workers=workers)
    batch = runner.run(
        horizon,
        replications,
        seed=seed,
        initial_state=initial_state,
        max_population=max_population,
    )
    classifications: List[TrajectoryClassification] = []
    results: List[SwarmResult] = []
    slopes: List[float] = []
    populations: List[float] = []
    for result in batch.results:
        metrics = result.metrics
        classification = classify_trajectory(
            metrics.sample_times,
            metrics.population,
            arrival_rate=params.lambda_total,
            last_fraction=last_fraction,
        )
        classifications.append(classification)
        slopes.append(classification.normalized_slope)
        populations.append(metrics.mean_population(last_fraction))
        if keep_results:
            results.append(result)
    return StabilityTrialResult(
        label=label or params.describe().splitlines()[0],
        params=params,
        theory=theory,
        classifications=classifications,
        empirical_verdict=majority_verdict(classifications),
        mean_normalized_slope=float(np.mean(slopes)) if slopes else 0.0,
        mean_population=float(np.mean(populations)) if populations else 0.0,
        results=results,
    )


@dataclass
class SweepResult:
    """A collection of stability trials forming one experiment."""

    name: str
    trials: List[StabilityTrialResult]

    def table_rows(self) -> List[Tuple[str, str, str, float, float]]:
        return [trial.row() for trial in self.trials]

    def agreement_fraction(self) -> float:
        """Fraction of non-borderline trials whose verdicts agree with theory."""
        decisive = [
            trial
            for trial in self.trials
            if trial.theory.verdict is not Stability.BORDERLINE
            and trial.empirical_verdict is not TrajectoryVerdict.INCONCLUSIVE
        ]
        if not decisive:
            return 0.0
        agreeing = sum(1 for trial in decisive if trial.agrees_with_theory)
        return agreeing / len(decisive)

    def all_decisive_agree(self) -> bool:
        """True when every decisive trial matches the theoretical verdict."""
        for trial in self.trials:
            if trial.theory.verdict is Stability.BORDERLINE:
                continue
            if trial.empirical_verdict is TrajectoryVerdict.INCONCLUSIVE:
                continue
            if not trial.agrees_with_theory:
                return False
        return True


def run_sweep(
    name: str,
    points: Sequence[Tuple[str, SystemParameters]],
    horizon: float = 300.0,
    replications: int = 3,
    seed: SeedLike = 0,
    policy: Optional[PieceSelectionPolicy] = None,
    initial_state: Optional[SystemState] = None,
    max_population: Optional[int] = 20_000,
    backend: str = "object",
    workers: Optional[int] = None,
) -> SweepResult:
    """Run a stability trial at each labelled parameter point."""
    rngs = spawn_generators(seed, len(points))
    trials = [
        run_stability_trial(
            params,
            label=label,
            horizon=horizon,
            replications=replications,
            seed=rng,
            policy=policy,
            initial_state=initial_state,
            max_population=max_population,
            backend=backend,
            workers=workers,
        )
        for (label, params), rng in zip(points, rngs)
    ]
    return SweepResult(name=name, trials=trials)


__all__ = [
    "BatchRunner",
    "BatchSwarmResult",
    "StabilityTrialResult",
    "SweepResult",
    "TaskFailure",
    "TaskTimeoutError",
    "WorkerCrashError",
    "map_tasks",
    "run_scenario",
    "run_stability_trial",
    "run_sweep",
]
