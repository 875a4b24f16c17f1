"""On-disk fleet checkpoints: crash-survivable progress for long fleet runs.

The streaming JSONL log (:mod:`repro.fleet.persistence`) is the system of
record for completed swarms, so a checkpoint does not carry the record
list.  It freezes a fleet run's progress as a *pointer* into the log plus
whatever cannot live in the log:

* the spec (fixed :class:`~repro.fleet.spec.FleetSpec` or adaptive
  :class:`~repro.fleet.adaptive.AdaptiveFleetSpec`) and the normalized
  master-seed token,
* ``num_records`` / ``log_offset`` — how many swarms the log held, and the
  byte offset just past them in the one log file, when the checkpoint was
  written,
* optionally the suspended mid-swarm kernel snapshot from
  :meth:`~repro.swarm.swarm._SwarmEventLoop.capture_state`.

Because swarm assignment and simulation seeding are pure functions of
``(spec, seed)`` and kernel snapshots resume bit-identically, a resumed
fleet reproduces the *exact* ``FleetResult`` an uninterrupted run would have
produced, at any worker count.  Resume truncates the log back to
``log_offset``, so records appended after the last checkpoint are simply
re-run — the log and the checkpoint can never disagree.

Checkpoint writes are **crash-atomic and durable**: the pickle goes to a
sibling temp file, is fsync'd, renamed into place with ``os.replace``, and
the directory is fsync'd so the rename itself survives power loss.  The
previous checkpoint is retained as ``<name>.bak`` before each overwrite;
:func:`load_checkpoint` falls back to it (with a warning) if the primary is
corrupt — so a crash *or* bit rot during/after a checkpoint write costs at
most one checkpoint interval of re-run work, never the run.

The log file travels as a *sibling file name*, resolved against the
checkpoint's directory, so a checkpoint+log pair can be moved together.
"""

from __future__ import annotations

import os
import pickle
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from .faults import FaultState, InjectedCheckpointCrash, corrupt_file_bytes
from .persistence import FleetLogError

#: Version tag of the checkpoint payload layout; :func:`load_checkpoint`
#: accepts only this format.  The in-flight kernel snapshot is opaque to
#: this module and carries its *own* format tag, checked by
#: :meth:`repro.swarm.swarm._SwarmEventLoop.restore_state`.
CHECKPOINT_FORMAT = 3


def _fsync_dir(directory: Path) -> None:
    """Fsync a directory so a rename is durable (best-effort on exotic FS)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def default_log_path(checkpoint_path: Union[str, Path]) -> Path:
    """The sibling JSONL log a checkpoint pairs with by default."""
    target = Path(checkpoint_path)
    return target.with_name(target.name + ".jsonl")


def backup_path(checkpoint_path: Union[str, Path]) -> Path:
    """The previous-checkpoint file retained across overwrites."""
    target = Path(checkpoint_path)
    return target.with_name(target.name + ".bak")


@dataclass
class FleetCheckpoint:
    """Serialized progress of one fleet run (fixed or adaptive)."""

    spec: Any
    seed: Any
    #: Number of completed-swarm records the log held at checkpoint time;
    #: also the index of the next swarm to run.
    num_records: int
    #: Sibling file name of the JSONL fleet log (resolved relative to the
    #: checkpoint's directory).
    log_name: str
    #: Byte offset just past record ``num_records - 1`` in the log.
    log_offset: int
    #: ``(swarm index, kernel snapshot)`` of a mid-swarm suspension, if any;
    #: the index always equals ``num_records`` when present.
    in_flight: Optional[Tuple[int, Dict[str, Any]]] = None
    #: Always 0: the log is one file.  Kept for ``perfbench/replay.py``,
    #: which sets it; a loaded checkpoint with any other value is refused.
    log_segment: int = 0
    format: int = CHECKPOINT_FORMAT

    def __post_init__(self) -> None:
        if self.num_records < 0:
            raise ValueError(f"num_records must be >= 0, got {self.num_records}")
        if self.log_offset < 0:
            raise ValueError(f"log_offset must be >= 0, got {self.log_offset}")
        if self.in_flight is not None and self.in_flight[0] != self.num_records:
            raise ValueError(
                f"in-flight swarm {self.in_flight[0]} does not match "
                f"num_records={self.num_records}"
            )

    @property
    def next_index(self) -> int:
        """Index of the next swarm not yet folded into the log."""
        return self.num_records

    def log_path(self, checkpoint_path: Union[str, Path]) -> Path:
        """Resolve the paired log against the checkpoint's directory."""
        return Path(checkpoint_path).parent / self.log_name


def save_checkpoint(
    path: Union[str, Path],
    checkpoint: FleetCheckpoint,
    faults: Optional[FaultState] = None,
    keep_previous: bool = True,
) -> Path:
    """Durably and atomically pickle ``checkpoint`` to ``path``.

    Write order: temp file → fsync → rotate the old primary to ``.bak``
    (unless ``keep_previous=False``, which *removes* any stale backup — the
    first checkpoint of a fresh run must not leave a previous run's state
    loadable) → ``os.replace`` → directory fsync.  A crash between any two
    steps leaves either the old checkpoint, the old checkpoint plus a
    complete ``.bak`` copy, or the new checkpoint — never a torn file at
    ``path``.

    ``faults`` hooks the deterministic chaos harness in: a planned
    *checkpoint crash* dies after writing half the temp file (the primary
    is untouched), a planned *corruption* flips bytes in the finished file
    (which :func:`load_checkpoint` detects and falls back from).
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    ordinal = faults.next_checkpoint_ordinal() if faults is not None else -1
    temp = target.with_name(target.name + ".tmp")
    payload = pickle.dumps(checkpoint, protocol=pickle.HIGHEST_PROTOCOL)
    if faults is not None and faults.take_checkpoint_crash(ordinal):
        temp.write_bytes(payload[: max(1, len(payload) // 2)])
        raise InjectedCheckpointCrash(
            f"injected crash during checkpoint write #{ordinal}"
        )
    with temp.open("wb") as handle:
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())
    backup = backup_path(target)
    if keep_previous:
        if target.exists():
            os.replace(target, backup)
    elif backup.exists():
        backup.unlink()
    os.replace(temp, target)
    _fsync_dir(target.parent)
    if faults is not None and faults.take_corrupt_checkpoint(ordinal):
        corrupt_file_bytes(target)
    return target


def _load_checkpoint_file(path: Path) -> FleetCheckpoint:
    with path.open("rb") as handle:
        checkpoint = pickle.load(handle)
    if not isinstance(checkpoint, FleetCheckpoint):
        raise ValueError(f"{path} does not contain a FleetCheckpoint")
    if checkpoint.format != CHECKPOINT_FORMAT:
        raise ValueError(
            f"unsupported checkpoint format {checkpoint.format} "
            f"(expected {CHECKPOINT_FORMAT})"
        )
    return checkpoint


def load_checkpoint(path: Union[str, Path]) -> FleetCheckpoint:
    """Load a checkpoint written by :func:`save_checkpoint`.

    If the primary file is corrupt or unreadable but a ``.bak`` copy from
    the previous checkpoint write exists, loads that instead with a
    warning — resuming from one checkpoint interval earlier re-runs a few
    swarms deterministically rather than losing the run.
    """
    target = Path(path)
    try:
        checkpoint = _load_checkpoint_file(target)
    except FileNotFoundError:
        raise
    except Exception as error:
        backup = backup_path(target)
        if not backup.exists():
            raise
        checkpoint = _load_checkpoint_file(backup)
        warnings.warn(
            f"checkpoint {target} is unreadable ({type(error).__name__}: "
            f"{error}); falling back to the previous checkpoint {backup}",
            stacklevel=2,
        )
    # Unpickling skips ``__post_init__``, so this is checked here.
    if checkpoint.log_segment != 0:
        raise FleetLogError(
            f"{target} points into log segment {checkpoint.log_segment}; log "
            f"rotation was removed, so a checkpoint of a rotated fleet log "
            f"cannot be resumed — re-run the fleet"
        )
    return checkpoint


__all__ = [
    "CHECKPOINT_FORMAT",
    "FleetCheckpoint",
    "backup_path",
    "default_log_path",
    "load_checkpoint",
    "save_checkpoint",
]
