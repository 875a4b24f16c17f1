"""Fault-tolerance tests: supervision, chaos recovery, durable persistence.

The acceptance criteria of the robustness PR:

* under an injected :class:`~repro.fleet.faults.FaultPlan` (worker kills
  mid-chunk, torn tail appends, corrupted checkpoint bytes) a fleet and an
  adaptive fleet both recover automatically — by supervised retry or by
  resume — to the *exact* uninterrupted fingerprint at workers 1, 2 and 4;
* a real ``kill -9`` (the subprocess harness SIGKILLs a running fleet at a
  planned log record) resumes exactly;
* a poison swarm degrades to a ``failed`` record without poisoning its
  chunk-mates, and salvage mode recovers what a corrupted log still holds.

The ``chaos``-named tests and the ``Supervised`` classes double as the CI
chaos smoke step (``pytest tests/test_faults.py -k "chaos or Supervised"``).
"""

import concurrent.futures
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.experiments.runner import (
    TaskFailure,
    TaskTimeoutError,
    WorkerCrashError,
    map_tasks,
)
from repro.fleet import (
    AdaptiveFleetSpec,
    FaultPlan,
    FleetResult,
    FleetScheduler,
    FleetSpec,
    InjectedCheckpointCrash,
    InjectedTornWrite,
    RandomSampler,
    ScenarioWeight,
    read_log,
    resume_adaptive_fleet,
    resume_fleet,
    run_adaptive_fleet,
    run_fleet,
)
from repro.fleet.checkpoint import (
    FleetCheckpoint,
    backup_path,
    load_checkpoint,
    save_checkpoint,
)
from repro.fleet.faults import FaultState, corrupt_file_bytes, fire_task_faults
from repro.fleet.persistence import FleetLogError

REPO_ROOT = Path(__file__).resolve().parents[1]

MIXED = (
    ScenarioWeight.of(None, weight=2.0),
    ScenarioWeight.of("free-rider", weight=1.0, leech_fraction=0.7),
)


def small_spec(num_swarms=12, **overrides) -> FleetSpec:
    defaults = dict(
        name="fault-fleet",
        num_swarms=num_swarms,
        sampler=RandomSampler.of({"arrival_rate": (0.8, 3.0)}, num_pieces=5),
        scenario_mix=MIXED,
        horizon=6.0,
        max_events=150,
        backend="array",
        initial_club_size=10,
    )
    defaults.update(overrides)
    return FleetSpec(**defaults)


def tiny_adaptive_spec(**overrides) -> AdaptiveFleetSpec:
    defaults = dict(
        name="fault-adaptive",
        arrival_rates=(0.8, 1.6, 2.4),
        seed_rates=(0.5,),
        scenario_mix=MIXED,
        num_pieces=5,
        swarm_budget=12,
        round_size=6,
        horizon=6.0,
        max_events=150,
        initial_club_size=10,
        backend="array",
    )
    defaults.update(overrides)
    return AdaptiveFleetSpec(**defaults)


# -- the fault plan itself ----------------------------------------------------


class TestFaultPlan:
    def test_plan_is_deterministic(self):
        a = FaultPlan.plan(7, 20, worker_crashes=2, torn_appends=1, task_errors=3)
        b = FaultPlan.plan(7, 20, worker_crashes=2, torn_appends=1, task_errors=3)
        assert a == b
        assert len(a.worker_crashes) == 2
        assert len(a.task_errors) == 3

    def test_plan_checkpoint_ordinals_skip_the_initial_checkpoint(self):
        plan = FaultPlan.plan(3, 10, corrupt_checkpoints=4, checkpoint_crashes=4)
        assert all(ordinal >= 1 for ordinal in plan.corrupt_checkpoints)
        assert all(ordinal >= 1 for ordinal in plan.checkpoint_crashes)

    def test_entries_are_sorted_and_validated(self):
        plan = FaultPlan(task_errors=(5, 1, 3))
        assert plan.task_errors == (1, 3, 5)
        with pytest.raises(ValueError, match="must be >= 0"):
            FaultPlan(worker_crashes=(-1,))
        with pytest.raises(ValueError, match="stall_seconds"):
            FaultPlan(stall_seconds=0.0)

    def test_empty_property(self):
        assert FaultPlan().empty
        assert not FaultPlan(torn_appends=(0,)).empty

    def test_writer_faults_fire_once(self):
        state = FaultState(FaultPlan(torn_appends=(2,), failed_fsyncs=(3,)))
        assert not state.take_torn_append(1)
        assert state.take_torn_append(2)
        assert not state.take_torn_append(2)  # once per process lifetime
        assert not state.take_failed_fsync(2)
        assert state.take_failed_fsync(5)  # smallest unfired key <= total
        assert not state.take_failed_fsync(9)


# -- map_tasks supervision ----------------------------------------------------


def _flaky_task(task, attempt):
    value, failures_needed = task
    if attempt < failures_needed:
        raise RuntimeError(f"planned failure for {value} at attempt {attempt}")
    return value * value


def _crashing_task(task, attempt):
    value, crashes = task
    if crashes and attempt == 0:
        os._exit(173)
    return value + 100


def _stalling_task(task, attempt):
    value, stalls = task
    if stalls and attempt == 0:
        time.sleep(60.0)
    return value * 2


def _exit_on_three(value):
    if value == 3:
        os._exit(1)
    return value


def _key_error_on_two(value):
    if value == 2:
        raise KeyError(f"no entry for {value}")
    return value


def _slow_identity(value):
    time.sleep(0.2)
    return value


def _two_second_identity(value):
    time.sleep(2.0)
    return value


def _timed_task(fails, attempt):
    """Sleep 0.1 s, then report when the task finished; a task that
    ``fails`` raises on its first attempt."""
    if fails and attempt == 0:
        raise RuntimeError("planned failure")
    time.sleep(0.1)
    return time.monotonic()


def _planned_sleep(task, attempt):
    plan, index, seconds = task
    fire_task_faults(plan, index, attempt)
    time.sleep(seconds)
    return index


class TestDefaultPoolPath:
    """``map_tasks`` on a pool with every option at its default."""

    def test_dead_worker_raises_instead_of_hanging(self):
        outcome = {}

        def consume():
            try:
                outcome["result"] = list(map_tasks(_exit_on_three, range(6), 2))
            except Exception as error:  # noqa: BLE001 — handed to the test
                outcome["error"] = error

        thread = threading.Thread(target=consume, daemon=True)
        thread.start()
        thread.join(timeout=60.0)
        assert not thread.is_alive(), "map_tasks hung on a dead worker"
        assert isinstance(outcome.get("error"), WorkerCrashError)

    def test_task_error_keeps_its_type(self):
        with pytest.raises(KeyError, match="no entry for 2"):
            list(map_tasks(_key_error_on_two, range(6), 2))

    def test_early_close_leaves_no_live_workers(self):
        before = set(multiprocessing.active_children())
        outcomes = map_tasks(_slow_identity, range(8), 2)
        assert next(outcomes) == 0
        workers = set(multiprocessing.active_children()) - before
        assert workers
        outcomes.close()
        deadline = time.monotonic() + 10.0
        while any(w.is_alive() for w in workers) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(w.is_alive() for w in workers)


class TestSupervisedMapTasks:
    def test_serial_retry_recovers_flaky_tasks(self):
        tasks = [(0, 0), (1, 2), (2, 1)]
        out = list(map_tasks(_flaky_task, tasks, None, max_retries=2,
                             with_attempt=True))
        assert out == [0, 1, 4]

    def test_exhausted_retries_yield_task_failure_in_position(self):
        tasks = [(0, 0), (1, 99), (2, 0)]  # task 1 fails every attempt
        out = list(map_tasks(_flaky_task, tasks, None, max_retries=1,
                             on_exhausted="yield", with_attempt=True))
        assert out[0] == 0 and out[2] == 4
        failure = out[1]
        assert isinstance(failure, TaskFailure)
        assert failure.task_index == 1
        assert failure.attempts == 2
        assert "planned failure" in failure.error

    def test_exhausted_retries_raise_by_default(self):
        with pytest.raises(RuntimeError, match="planned failure"):
            list(map_tasks(_flaky_task, [(0, 99)], None, max_retries=1,
                           with_attempt=True))

    def test_pool_survives_worker_crash(self):
        tasks = [(i, i == 2) for i in range(6)]  # task 2 kills its worker once
        out = list(map_tasks(_crashing_task, tasks, 2, max_retries=2,
                             with_attempt=True))
        assert out == [100, 101, 102, 103, 104, 105]

    def test_pool_times_out_stalled_task_and_retries(self):
        tasks = [(i, i == 1) for i in range(4)]  # task 1 stalls on attempt 0
        started = time.monotonic()
        out = list(map_tasks(_stalling_task, tasks, 2, task_timeout=1.0,
                             max_retries=1, with_attempt=True))
        assert out == [0, 2, 4, 6]
        assert time.monotonic() - started < 30.0  # far below the 60 s stall

    def test_single_task_timeout_is_enforced(self):
        """A lone task on a ``workers > 1`` call runs on the pool when it
        has a deadline: in-process its ``task_timeout`` could not fire."""
        with pytest.raises(TaskTimeoutError):
            list(map_tasks(_two_second_identity, [0], 2, task_timeout=0.5))

    def test_supervision_options_validated(self):
        with pytest.raises(ValueError, match="does not support"):
            list(map_tasks(_flaky_task, [(0, 0)], None, max_retries=-1))
        with pytest.raises(ValueError, match="does not support"):
            list(map_tasks(_flaky_task, [(0, 0)], None, task_timeout=0))
        with pytest.raises(ValueError, match="does not support"):
            list(map_tasks(_flaky_task, [(0, 0)], None, retry_backoff=-0.5))
        with pytest.raises(ValueError, match="on_exhausted"):
            list(map_tasks(_flaky_task, [(0, 0)], None, on_exhausted="bogus"))

    def test_fleet_layer_validates_supervision_options(self):
        with pytest.raises(ValueError, match="does not support"):
            FleetScheduler(small_spec(), max_retries=-3)
        with pytest.raises(ValueError, match="does not support"):
            FleetScheduler(small_spec(), task_timeout=0.0)
        with pytest.raises(ValueError, match="does not support"):
            run_fleet(small_spec(), retry_backoff=-1.0)


@pytest.fixture
def pool_starts(monkeypatch):
    """The ``ProcessPoolExecutor`` constructions made during a test."""
    starts = []
    real = concurrent.futures.ProcessPoolExecutor

    class CountingExecutor(real):
        def __init__(self, *args, **kwargs):
            starts.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingExecutor)
    return starts


def _fleet_call(kind, plan, tmp_path):
    """One fleet call at ``workers=2``, with its uninterrupted fingerprint."""
    options = dict(workers=2, max_retries=1, fault_plan=plan)
    if kind == "fleet":
        return run_fleet(small_spec(), seed=3, **options), run_fleet(
            small_spec(), seed=3
        )
    if kind == "stacked":
        return run_fleet(small_spec(), seed=3, stacked=True, **options), run_fleet(
            small_spec(), seed=3
        )
    clean = run_adaptive_fleet(tiny_adaptive_spec(), seed=5)
    if kind == "adaptive":
        return run_adaptive_fleet(tiny_adaptive_spec(), seed=5, **options), clean
    return resume_adaptive_fleet(tmp_path / "cp", **options), clean


class TestSupervisedPool:
    """One pool per fleet run, a two-deep queue, exact supervision."""

    @pytest.mark.parametrize("crash", [False, True])
    @pytest.mark.parametrize("kind", ["fleet", "stacked", "adaptive", "resume"])
    def test_one_pool_start_per_call(self, kind, crash, pool_starts, tmp_path):
        if kind == "resume":
            # Killed mid-round 1 with a swarm suspended; the resume runs
            # the rest of round 1 and all of round 2.
            run_adaptive_fleet(
                tiny_adaptive_spec(), seed=5, workers=2,
                checkpoint_path=tmp_path / "cp", stop_after_swarms=3,
                suspend_after_events=30,
            )
        plan = FaultPlan(worker_crashes=(8,)) if crash else None
        before = set(multiprocessing.active_children())
        del pool_starts[:]
        outcome, clean = _fleet_call(kind, plan, tmp_path)
        # A planned crash restarts the pool once; its suspects re-run alone,
        # at their next attempt number, on the restarted pool.
        assert len(pool_starts) == (2 if crash else 1)
        assert set(multiprocessing.active_children()) - before == set()
        assert outcome.fingerprint() == clean.fingerprint()

    def test_queued_task_does_not_time_out_while_waiting(self):
        """Six 0.6 s tasks on two workers take 1.8 s, but none ever runs
        for the 1.0 s deadline: the queue's wait is not clocked."""
        tasks = [(None, index, 0.6) for index in range(6)]
        out = list(map_tasks(_planned_sleep, tasks, 2, task_timeout=1.0,
                             with_attempt=True))
        assert out == list(range(6))

    def test_backoff_does_not_stall_healthy_workers(self):
        """Task 1 fails once and backs off for 3 s; the healthy tasks after
        it keep the workers busy and all finish inside that back-off."""
        tasks = [index == 1 for index in range(10)]
        started = time.monotonic()
        out = list(map_tasks(_timed_task, tasks, 2, max_retries=1,
                             retry_backoff=3.0, with_attempt=True))
        healthy = out[2:]
        assert max(healthy) < started + 3.0
        assert out[1] >= started + 3.0  # the back-off itself is honoured


# -- chaos: automatic recovery to exact fingerprints --------------------------


class TestChaosRecovery:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_chaos_fleet_recovers_from_crashes_and_errors(self, workers):
        """Worker kills + task errors under supervision: exact fingerprint."""
        spec = small_spec()
        clean = run_fleet(spec, seed=42).fingerprint()
        plan = FaultPlan(worker_crashes=(3, 8), task_errors=(5,))
        faulty = run_fleet(
            spec, seed=42, workers=workers, chunk_size=2,
            max_retries=2, fault_plan=plan,
        )
        assert faulty.failed_count == 0
        assert faulty.fingerprint() == clean

    @pytest.mark.parametrize("workers", [1, 2])
    def test_chaos_adaptive_fleet_recovers_from_crashes(self, workers):
        spec = tiny_adaptive_spec()
        clean = run_adaptive_fleet(spec, seed=9).fingerprint()
        plan = FaultPlan(worker_crashes=(2,), task_errors=(7,))
        faulty = run_adaptive_fleet(
            spec, seed=9, workers=workers, chunk_size=2,
            max_retries=2, fault_plan=plan,
        )
        assert faulty.fleet.failed_count == 0
        assert faulty.fingerprint() == clean

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_chaos_double_crash_charges_no_innocent_task(self, workers):
        """Two worker kills while a slow task runs beside each: the slow
        task is never charged, so ``max_retries=1`` is never exhausted."""
        plan = FaultPlan(worker_crashes=(1, 5))
        tasks = [(plan, index, 1.5 if index == 0 else 0.05) for index in range(8)]
        out = list(map_tasks(_planned_sleep, tasks, workers, max_retries=1,
                             on_exhausted="yield", with_attempt=True))
        assert not any(isinstance(value, TaskFailure) for value in out)
        assert out == list(range(8))

        spec = small_spec()
        clean = run_fleet(spec, seed=42).fingerprint()
        # Swarms 0 and 4 stall for a second beside the chunks that crash.
        plan = FaultPlan(
            worker_crashes=(2, 7), stall_tasks=(0, 4), stall_seconds=1.0
        )
        faulty = run_fleet(spec, seed=42, workers=workers, chunk_size=2,
                           max_retries=1, fault_plan=plan)
        assert faulty.failed_count == 0
        assert faulty.fingerprint() == clean

    def test_chaos_crash_during_backoff_keeps_the_backoff(self):
        """A worker dies while task 1 waits out its back-off: the waiting
        task is not in flight, so the crash neither charges it nor cuts
        its back-off short."""
        plan = FaultPlan(task_errors=(1,), worker_crashes=(4,))
        tasks = [(plan, index, 0.1) for index in range(8)]
        started = time.monotonic()
        out = list(map_tasks(_planned_sleep, tasks, 2, max_retries=1,
                             retry_backoff=1.0, on_exhausted="yield",
                             with_attempt=True))
        assert out == list(range(8))
        assert time.monotonic() - started >= 1.0

    def test_chaos_smoke_two_kills_torn_append_corrupt_checkpoint(self, tmp_path):
        """The CI chaos scenario: 2 worker kills + 1 torn append + corrupted
        checkpoint bytes; the resumed run equals the uninterrupted one."""
        spec = small_spec()
        clean = run_fleet(spec, seed=5).fingerprint()
        checkpoint = tmp_path / "chaos-cp"
        plan = FaultPlan(worker_crashes=(1, 5), torn_appends=(9,))
        with pytest.raises(InjectedTornWrite):
            run_fleet(
                spec, seed=5, workers=2, chunk_size=2, max_retries=2,
                checkpoint_path=checkpoint, fault_plan=plan,
            )
        # Bit-rot the checkpoint the crash left behind; resume must fall
        # back to the .bak copy and still converge to the exact result.
        corrupt_file_bytes(checkpoint)
        with pytest.warns(UserWarning, match="falling back"):
            resumed = resume_fleet(checkpoint, workers=2, max_retries=2)
        assert resumed.complete
        assert resumed.fingerprint() == clean

    def test_chaos_poison_task_quarantined_as_failed_record(self):
        """A swarm that fails every attempt degrades to one `failed` record
        without contaminating its chunk-mates."""
        spec = small_spec()
        clean = run_fleet(spec, seed=13)
        plan = FaultPlan(poison_tasks=(4,))
        degraded = run_fleet(
            spec, seed=13, chunk_size=3, max_retries=1, fault_plan=plan
        )
        assert degraded.complete
        assert degraded.failed_count == 1
        failures = degraded.failures()
        assert len(failures) == 1
        failed = failures[0]
        assert failed.index == 4
        assert failed.status == "failed"
        assert failed.empirical == "failed"
        assert not failed.captured
        assert "injected poison" in failed.error
        assert failed.attempts == 2
        for position, record in enumerate(degraded.records):
            if position != 4:
                assert record == clean.records[position]

    def test_chaos_failed_fsync_aborts_then_resume_is_exact(self, tmp_path):
        spec = small_spec()
        clean = run_fleet(spec, seed=21).fingerprint()
        checkpoint = tmp_path / "fsync-cp"
        plan = FaultPlan(failed_fsyncs=(7,))
        with pytest.raises(Exception, match="injected fsync failure"):
            run_fleet(
                spec, seed=21, chunk_size=2, checkpoint_path=checkpoint,
                fault_plan=plan,
            )
        resumed = resume_fleet(checkpoint)
        assert resumed.complete
        assert resumed.fingerprint() == clean


# -- chaos: real SIGKILL subprocess harness -----------------------------------


_KILL_FLEET_CHILD = """
import sys
from repro.fleet import FaultPlan, run_fleet
sys.path.insert(0, {tests_dir!r})
from test_faults import small_spec

plan = FaultPlan(kill_points=(7,))
run_fleet(small_spec(), seed=11, checkpoint_path=sys.argv[1],
          checkpoint_every=1, chunk_size=2, fault_plan=plan)
raise SystemExit("kill point did not fire")
"""

_KILL_ADAPTIVE_CHILD = """
import sys
from repro.fleet import FaultPlan, run_adaptive_fleet
sys.path.insert(0, {tests_dir!r})
from test_faults import tiny_adaptive_spec

plan = FaultPlan(kill_points=(7,))
run_adaptive_fleet(tiny_adaptive_spec(), seed=17, checkpoint_path=sys.argv[1],
                   checkpoint_every=1, chunk_size=2, fault_plan=plan)
raise SystemExit("kill point did not fire")
"""


def _run_killed_child(script: str, checkpoint: Path) -> None:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    script = script.format(tests_dir=str(REPO_ROOT / "tests"))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(checkpoint)],
        env=env,
        cwd=str(REPO_ROOT),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        timeout=300,
    )
    assert proc.returncode == -signal.SIGKILL, (
        f"child exited with {proc.returncode} instead of SIGKILL: "
        f"{proc.stderr.decode(errors='replace')[-2000:]}"
    )


class TestChaosSigkill:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_chaos_sigkill_fleet_resume_matches_uninterrupted(
        self, tmp_path, workers
    ):
        checkpoint = tmp_path / "cp"
        _run_killed_child(_KILL_FLEET_CHILD, checkpoint)
        resumed = resume_fleet(checkpoint, workers=workers)
        clean = run_fleet(small_spec(), seed=11)
        assert resumed.complete
        assert resumed.fingerprint() == clean.fingerprint()

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_chaos_sigkill_adaptive_resume_matches_uninterrupted(
        self, tmp_path, workers
    ):
        checkpoint = tmp_path / "cp"
        _run_killed_child(_KILL_ADAPTIVE_CHILD, checkpoint)
        resumed = resume_adaptive_fleet(checkpoint, workers=workers)
        clean = run_adaptive_fleet(tiny_adaptive_spec(), seed=17)
        assert resumed.fingerprint() == clean.fingerprint()


# -- durable checkpoints ------------------------------------------------------


def _checkpoint(num_records: int) -> FleetCheckpoint:
    return FleetCheckpoint(
        spec="spec-token",
        seed=1,
        num_records=num_records,
        log_name="log.jsonl",
        log_offset=10 * num_records,
    )


class TestCrashAtomicCheckpoints:
    def test_kill_during_checkpoint_write_preserves_previous(self, tmp_path):
        path = tmp_path / "cp"
        save_checkpoint(path, _checkpoint(1))
        state = FaultState(FaultPlan(checkpoint_crashes=(1,)))
        state.next_checkpoint_ordinal()  # ordinal 0 was the initial write
        with pytest.raises(InjectedCheckpointCrash):
            save_checkpoint(path, _checkpoint(2), faults=state)
        # The crash died after a partial temp file; the primary survives.
        assert load_checkpoint(path).num_records == 1
        # And a later write over the leftover temp file works.
        save_checkpoint(path, _checkpoint(3))
        assert load_checkpoint(path).num_records == 3

    def test_corrupt_primary_falls_back_to_backup(self, tmp_path):
        path = tmp_path / "cp"
        save_checkpoint(path, _checkpoint(1))
        save_checkpoint(path, _checkpoint(2))
        assert backup_path(path).exists()
        corrupt_file_bytes(path)
        with pytest.warns(UserWarning, match="falling back"):
            loaded = load_checkpoint(path)
        assert loaded.num_records == 1

    def test_corrupt_primary_without_backup_raises(self, tmp_path):
        path = tmp_path / "cp"
        save_checkpoint(path, _checkpoint(1), keep_previous=False)
        corrupt_file_bytes(path)
        with pytest.raises(Exception):
            load_checkpoint(path)

    def test_fresh_run_initial_checkpoint_clears_stale_backup(self, tmp_path):
        path = tmp_path / "cp"
        save_checkpoint(path, _checkpoint(1))
        save_checkpoint(path, _checkpoint(2))  # leaves a .bak of 1
        save_checkpoint(path, _checkpoint(0), keep_previous=False)
        assert not backup_path(path).exists()
        assert load_checkpoint(path).num_records == 0

    def test_planned_corruption_is_caught_on_load(self, tmp_path):
        path = tmp_path / "cp"
        save_checkpoint(path, _checkpoint(1))
        state = FaultState(FaultPlan(corrupt_checkpoints=(1,)))
        state.next_checkpoint_ordinal()
        save_checkpoint(path, _checkpoint(2), faults=state)  # then corrupted
        with pytest.warns(UserWarning, match="falling back"):
            loaded = load_checkpoint(path)
        assert loaded.num_records == 1


# -- salvage ------------------------------------------------------------------


class TestSalvageMode:
    def _corrupt_record_line(self, log: Path, record_index: int) -> None:
        """Flip a payload value of one record line without breaking its
        JSON, so only the CRC32 checksum can tell it changed."""
        lines = log.read_bytes().split(b"\n")
        line_number = 1 + record_index  # line 0 is the header
        payload = json.loads(lines[line_number])
        payload["events"] = payload["events"] + 1
        lines[line_number] = json.dumps(payload, sort_keys=True).encode()
        log.write_bytes(b"\n".join(lines))

    def test_strict_read_rejects_checksum_mismatch(self, tmp_path):
        spec = small_spec(num_swarms=8)
        log = tmp_path / "fleet.jsonl"
        run_fleet(spec, seed=1, log_path=log)
        self._corrupt_record_line(log, 3)
        with pytest.raises(FleetLogError, match="CRC32"):
            read_log(log)

    def test_salvage_skips_corrupt_interior_records(self, tmp_path):
        spec = small_spec(num_swarms=8)
        log = tmp_path / "fleet.jsonl"
        run_fleet(spec, seed=1, log_path=log)
        self._corrupt_record_line(log, 3)
        with pytest.warns(UserWarning, match="checksum"):
            salvaged = read_log(log, strict=False)
        assert salvaged.salvaged == 1
        assert [record.index for record in salvaged.records] == [
            0, 1, 2, 4, 5, 6, 7,
        ]

    def test_from_log_salvage_keeps_contiguous_prefix(self, tmp_path):
        spec = small_spec(num_swarms=8)
        log = tmp_path / "fleet.jsonl"
        run_fleet(spec, seed=1, log_path=log)
        self._corrupt_record_line(log, 3)
        with pytest.warns(UserWarning):
            rebuilt = FleetResult.from_log(log, strict=False)
        assert len(rebuilt.records) == 3  # the prefix before the bad line

    def test_undecodable_interior_line_is_salvaged_too(self, tmp_path):
        spec = small_spec(num_swarms=8)
        log = tmp_path / "fleet.jsonl"
        run_fleet(spec, seed=1, log_path=log)
        lines = log.read_bytes().split(b"\n")
        lines[2] = b"\x00\xff garbage \xfe"
        log.write_bytes(b"\n".join(lines))
        with pytest.raises(FleetLogError, match="corrupt"):
            read_log(log)
        with pytest.warns(UserWarning, match="corrupt"):
            salvaged = read_log(log, strict=False)
        assert salvaged.salvaged == 1
        assert [record.index for record in salvaged.records] == [
            0, 2, 3, 4, 5, 6, 7,
        ]
