"""Fleet layer: many independent swarms as one sharded, resumable workload.

The paper's Theorem 1 answers the stability question *per swarm*; a
production tracker serves *fleets* of concurrent swarms whose parameters are
drawn from a population.  This subsystem turns the scenario registry and the
dual-kernel runner into a phase-diagram machine:

* :mod:`repro.fleet.spec` — :class:`FleetSpec` (swarm count + a parameter
  sampler + a weighted scenario mix + run controls) and the deterministic
  per-swarm task materialization;
* :mod:`repro.fleet.scheduler` — the one fleet run loop,
  ``PersistentFleetExecution``: rounds of swarm tasks sharded in chunks over
  worker processes with results independent of the worker count, streaming
  aggregation, and offset checkpoint/resume (including mid-swarm kernel
  snapshots).  :class:`FleetScheduler` / :func:`run_fleet` /
  :func:`resume_fleet` run a fixed census as its single round;
* :mod:`repro.fleet.adaptive` — :class:`AdaptiveFleetDriver` /
  :func:`run_adaptive_fleet`: budget-driven active sampling of
  ``(λ, U_s, scenario)`` candidates by Beta-posterior uncertainty, with a
  boundary-stability stopping rule — one round per acquisition step on the
  same loop, so the same determinism and resume contract;
* :mod:`repro.fleet.persistence` — the streaming JSONL fleet log (one
  schema-versioned, CRC32-checksummed record per completed swarm, fsync'd
  batches, live ``tail -f``, segment rotation and census compaction,
  salvage-mode reads, :meth:`FleetResult.from_log` reconstruction);
* :mod:`repro.fleet.result` — :class:`FleetSwarmRecord` and the incremental
  :class:`FleetResult` census (one-club prevalence, sojourn/download
  distributions, Theorem-1-vs-outcome confusion counts, per-scenario
  breakdown, ``failed`` records from exhausted retries);
* :mod:`repro.fleet.checkpoint` — the crash-atomic pickle checkpoint format
  (a ``(segment, byte offset)`` pointer into the JSONL log + the in-flight
  kernel snapshot, with a ``.bak`` fallback copy);
* :mod:`repro.fleet.faults` — the deterministic fault-injection harness
  (:class:`FaultPlan`): planned worker crashes, task errors, torn appends,
  failed fsyncs, corrupted checkpoints and SIGKILL points for chaos tests.

The fleet-level experiments (uniform and adaptive capture phase diagrams
over the Theorem-1 boundary) live in :mod:`repro.experiments.fleet`.
"""

from .adaptive import (
    AdaptiveFleetDriver,
    AdaptiveFleetResult,
    AdaptiveFleetSpec,
    CaptureGrid,
    CellKey,
    RoundSummary,
    beta_mean_variance,
    resume_adaptive_fleet,
    run_adaptive_fleet,
)
from .checkpoint import (
    FleetCheckpoint,
    default_log_path,
    load_checkpoint,
    save_checkpoint,
)
from .faults import (
    FaultPlan,
    InjectedCheckpointCrash,
    InjectedFault,
    InjectedFsyncFailure,
    InjectedTaskError,
    InjectedTornWrite,
    InjectedWorkerCrash,
    WORKER_CRASH_EXIT_CODE,
)
from .persistence import (
    FLEET_LOG_SCHEMA,
    FleetLog,
    FleetLogError,
    FleetLogHeader,
    FleetLogWriter,
    compact_log,
    read_log,
    tail_summary,
)
from .result import (
    FleetResult,
    FleetSwarmRecord,
    failure_record,
    record_from_result,
    theory_verdict,
)
from .scheduler import FleetScheduler, resume_fleet, run_fleet
from .spec import (
    FixedSampler,
    FleetSpec,
    GridSampler,
    PLAIN_LABEL,
    ParameterSampler,
    RandomSampler,
    SAMPLABLE_FIELDS,
    ScenarioWeight,
    SwarmTask,
    materialize_tasks,
    normalize_fleet_seed,
    task_for_point,
)

__all__ = [
    "AdaptiveFleetDriver",
    "AdaptiveFleetResult",
    "AdaptiveFleetSpec",
    "CaptureGrid",
    "CellKey",
    "FLEET_LOG_SCHEMA",
    "FaultPlan",
    "FixedSampler",
    "FleetCheckpoint",
    "FleetLog",
    "FleetLogError",
    "FleetLogHeader",
    "FleetLogWriter",
    "FleetResult",
    "FleetScheduler",
    "FleetSpec",
    "FleetSwarmRecord",
    "GridSampler",
    "InjectedCheckpointCrash",
    "InjectedFault",
    "InjectedFsyncFailure",
    "InjectedTaskError",
    "InjectedTornWrite",
    "InjectedWorkerCrash",
    "PLAIN_LABEL",
    "ParameterSampler",
    "RandomSampler",
    "RoundSummary",
    "SAMPLABLE_FIELDS",
    "ScenarioWeight",
    "SwarmTask",
    "WORKER_CRASH_EXIT_CODE",
    "beta_mean_variance",
    "compact_log",
    "default_log_path",
    "failure_record",
    "load_checkpoint",
    "materialize_tasks",
    "normalize_fleet_seed",
    "read_log",
    "record_from_result",
    "resume_adaptive_fleet",
    "resume_fleet",
    "run_adaptive_fleet",
    "run_fleet",
    "save_checkpoint",
    "tail_summary",
    "task_for_point",
    "theory_verdict",
]
