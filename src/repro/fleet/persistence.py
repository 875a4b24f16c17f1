"""Log-structured fleet persistence: one checksummed, append-only JSONL file.

A fleet run (fixed :class:`~repro.fleet.scheduler.FleetScheduler` or adaptive
:class:`~repro.fleet.adaptive.AdaptiveFleetDriver`) appends each finished
swarm's :class:`~repro.fleet.result.FleetSwarmRecord` to a plain-text JSONL
log as it completes:

* line 1 is a schema-versioned **header** (spec name, swarm target and the
  normalized master-seed token), so the file is self-describing;
* every subsequent line is one swarm record, written in swarm-index order
  and fsync'd in batches — a running fleet can be followed live with
  ``tail -f`` and its census rebuilt at any time via
  :meth:`repro.fleet.result.FleetResult.from_log`;
* every line carries a **CRC32 checksum** over its canonical JSON payload,
  so bit rot anywhere in the middle of a log is *detected*, never silently
  folded into a result;
* checkpoints do not carry the record list: they hold a byte offset into
  this file (plus the in-flight kernel snapshot), and resume truncates the
  log back to that offset so the two can never disagree.

Crash behaviour is append-only-log standard: a partially written *last*
line (the process died mid-append) is discarded on read, not fatal;
corruption anywhere before the tail, or a schema-version mismatch, raises
:class:`FleetLogError` with a pointed message — unless the reader opts into
``strict=False`` **salvage mode**, which skips checksum-failing interior
lines with a warning and returns whatever survived.  Only the current
schema is read, and a header of a rotated log (non-zero ``segment`` or
``base_records``, written before log rotation was removed) is refused.
"""

from __future__ import annotations

import json
import os
import warnings
import zlib
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Any, List, Optional, Tuple, Union

from .faults import FaultState, InjectedFsyncFailure, InjectedTornWrite, kill_self
from .result import FleetSwarmRecord

#: Version tag of the JSONL fleet-log schema; readers accept only this one.
#: Every line of a schema-2 file carries a CRC32 checksum.
FLEET_LOG_SCHEMA = 2

_HEADER_KIND = "fleet-log"
_RECORD_KIND = "swarm"

_RECORD_FIELDS = tuple(spec.name for spec in fields(FleetSwarmRecord))


class FleetLogError(ValueError):
    """A fleet log is unreadable: wrong schema, corrupt line, bad header."""


def _crc_of(payload: dict) -> int:
    """CRC32 of the canonical (sorted-keys) JSON dump of ``payload``."""
    canonical = json.dumps(payload, sort_keys=True).encode("utf-8")
    return zlib.crc32(canonical) & 0xFFFFFFFF


def _crc_ok(payload: dict) -> bool:
    """Verify a line's checksum; a line without one is corrupt."""
    crc = payload.get("crc")
    if crc is None:
        return False
    rest = {key: value for key, value in payload.items() if key != "crc"}
    return _crc_of(rest) == crc


@dataclass(frozen=True)
class FleetLogHeader:
    """First line of a fleet log (pure data, JSON-serializable)."""

    schema: int
    spec_name: str
    num_swarms: int
    seed: Any  # normalized master-seed token (int or {entropy, spawn_key})

    def to_json(self) -> str:
        payload = {"kind": _HEADER_KIND, **asdict(self)}
        if isinstance(payload["seed"], dict):
            payload["seed"] = {
                "entropy": payload["seed"]["entropy"],
                "spawn_key": list(payload["seed"]["spawn_key"]),
            }
        payload["crc"] = _crc_of(payload)
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_payload(cls, payload: dict, path: Path) -> "FleetLogHeader":
        if payload.get("kind") != _HEADER_KIND:
            raise FleetLogError(
                f"{path}: first line is not a fleet-log header "
                f"(kind={payload.get('kind')!r})"
            )
        schema = payload.get("schema")
        if schema != FLEET_LOG_SCHEMA:
            raise FleetLogError(
                f"{path}: unsupported fleet-log schema {schema!r} "
                f"(this build reads schema {FLEET_LOG_SCHEMA}); "
                "re-run the fleet or use a matching repro version"
            )
        if not _crc_ok(payload):
            raise FleetLogError(
                f"{path}: fleet-log header failed its CRC32 checksum (corrupt)"
            )
        # Logs written before rotation was removed carry these keys as 0
        # unless the file is a later segment of a rotated log.
        if payload.get("segment", 0) != 0 or payload.get("base_records", 0) != 0:
            raise FleetLogError(
                f"{path}: header names segment {payload.get('segment')!r} "
                f"after {payload.get('base_records')!r} records; log rotation "
                f"was removed, so a rotated fleet log cannot be read — re-run "
                f"the fleet"
            )
        seed = payload.get("seed")
        if isinstance(seed, dict):
            seed = {
                "entropy": seed["entropy"],
                "spawn_key": tuple(seed["spawn_key"]),
            }
        return cls(
            schema=schema,
            spec_name=payload.get("spec_name", ""),
            num_swarms=int(payload.get("num_swarms", 0)),
            seed=seed,
        )


def record_to_json(record: FleetSwarmRecord) -> str:
    """One swarm record as a single checksummed JSON line (no newline)."""
    # Every field is a scalar or a tuple of ints, so reading the fields
    # gives what ``asdict`` would, without its per-entry deep copy.
    payload = {"kind": _RECORD_KIND}
    payload.update((name, getattr(record, name)) for name in _RECORD_FIELDS)
    payload["crc"] = _crc_of(payload)
    return json.dumps(payload, sort_keys=True)


def record_from_payload(payload: dict, path: Path, line: int) -> FleetSwarmRecord:
    if payload.get("kind") != _RECORD_KIND:
        raise FleetLogError(
            f"{path}:{line}: expected a swarm record, got kind={payload.get('kind')!r}"
        )
    data = {
        key: value
        for key, value in payload.items()
        if key not in ("kind", "crc")
    }
    try:
        data["sojourn_hist"] = tuple(data["sojourn_hist"])
        data["download_hist"] = tuple(data["download_hist"])
        return FleetSwarmRecord(**data)
    except (KeyError, TypeError) as error:
        raise FleetLogError(f"{path}:{line}: malformed swarm record: {error}") from error


class FleetLogWriter:
    """Append-only JSONL writer: batched fsync, exact resume.

    ``resume_offset=None`` creates/truncates the log and writes a fresh
    header; an integer offset reopens an existing log, truncates anything
    past it (records written after the last checkpoint are re-run
    deterministically, so dropping them is safe) and appends from there.
    ``resume_records`` is the number of records that offset covers (the
    checkpoint's ``num_records``).

    ``fsync_every_n`` trades durability for throughput: the writer flushes
    every append (so ``tail -f`` stays live) but only pays the ``fsync``
    once at least that many records have accumulated since the last sync.
    The default of 1 keeps the original fsync-per-append durability.  A
    crash can lose at most the unsynced tail, which — like any truncated
    tail — re-runs deterministically on resume.

    :attr:`offset` is the byte offset after the last *fsync'd* batch — the
    value a checkpoint may safely store; checkpoint writers call
    :meth:`sync` first so the offset covers everything appended.

    ``faults`` threads a :class:`~repro.fleet.faults.FaultState` through
    the write path (torn appends, failed fsyncs, kill points); the
    ``None`` default costs nothing.
    """

    #: Always 0: the log is one file.  Kept for ``perfbench/replay.py``,
    #: which stores it as ``FleetCheckpoint.log_segment``.
    segment = 0

    def __init__(
        self,
        path: Union[str, Path],
        header: FleetLogHeader,
        resume_offset: Optional[int] = None,
        fsync_every_n: int = 1,
        resume_records: int = 0,
        faults: Optional[FaultState] = None,
    ):
        if fsync_every_n < 1:
            raise ValueError(f"fsync_every_n must be >= 1, got {fsync_every_n}")
        self.fsync_every_n = fsync_every_n
        self.faults = faults
        self._unsynced_records = 0
        self.path = Path(path)
        self.header = header
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if resume_offset is None:
            self.total_records = 0
            self._handle = self.path.open("wb")
            self._handle.write((header.to_json() + "\n").encode("utf-8"))
            self._sync()
        else:
            self._prepare_resume(resume_offset)
            self.total_records = resume_records
        self.offset = self._handle.tell()

    def _prepare_resume(self, offset: int) -> None:
        if not self.path.exists():
            raise FleetLogError(
                f"cannot resume fleet log {self.path}: file does not exist"
            )
        existing = read_header(self.path)
        if existing.seed != self.header.seed:
            raise FleetLogError(
                f"{self.path}: log header seed {existing.seed!r} does "
                f"not match the resuming run's seed {self.header.seed!r}"
            )
        size = self.path.stat().st_size
        if offset > size:
            raise FleetLogError(
                f"{self.path}: resume offset {offset} is past the "
                f"end of the log ({size} bytes)"
            )
        self._handle = self.path.open("r+b")
        self._handle.truncate(offset)
        self._handle.seek(offset)
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def append(self, records: List[FleetSwarmRecord]) -> int:
        """Append one batch of records (flushed; fsync'd per the knob).

        Returns the offset after the last fsync'd record — the safe
        checkpoint value, which lags the file end while a sync is pending.
        """
        for record in records:
            line = (record_to_json(record) + "\n").encode("utf-8")
            if self.faults is not None and self.faults.take_torn_append(
                record.index
            ):
                self._handle.write(line[: max(1, len(line) // 2)])
                self._handle.flush()
                raise InjectedTornWrite(
                    f"injected torn append at record {record.index}"
                )
            self._handle.write(line)
            self.total_records += 1
            self._unsynced_records += 1
            if self.faults is not None and self.faults.take_kill_point(
                record.index
            ):
                # Make the record durable first — the kill tests assert the
                # resumed run continues from *after* this record.
                self._handle.flush()
                os.fsync(self._handle.fileno())
                kill_self()
        if self._unsynced_records >= self.fsync_every_n:
            self._sync()
            self.offset = self._handle.tell()
        elif records:
            self._handle.flush()
        return self.offset

    def sync(self) -> int:
        """Force an fsync (e.g. before checkpointing); returns the offset."""
        self._sync()
        self.offset = self._handle.tell()
        return self.offset

    def _sync(self) -> None:
        self._handle.flush()
        if self.faults is not None and self.faults.take_failed_fsync(
            self.total_records
        ):
            raise InjectedFsyncFailure(
                f"injected fsync failure after {self.total_records} records"
            )
        os.fsync(self._handle.fileno())
        self._unsynced_records = 0

    def close(self) -> None:
        if not self._handle.closed:
            self._sync()
            self._handle.close()

    def __enter__(self) -> "FleetLogWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@dataclass(frozen=True)
class FleetLog:
    """A parsed fleet log: header, records, and per-record byte offsets."""

    header: FleetLogHeader
    records: Tuple[FleetSwarmRecord, ...]
    #: ``offsets[i]`` is the byte offset just *after* record ``i`` — the
    #: value a checkpoint holding ``i + 1`` records stores.
    offsets: Tuple[int, ...]
    #: Byte offset just after the header line.
    header_end: int
    #: Lines skipped by salvage mode (``strict=False``); 0 when strict.
    salvaged: int = 0

    def offset_after(self, num_records: int) -> int:
        """Byte offset after the first ``num_records`` records (0 = header end)."""
        if num_records == 0:
            return self.header_end
        return self.offsets[num_records - 1]


def read_header(path: Union[str, Path]) -> FleetLogHeader:
    """Parse only a log file's header line (cheap, O(1) in the log size)."""
    target = Path(path)
    with target.open("rb") as handle:
        first = handle.readline()
    if not first.endswith(b"\n"):
        raise FleetLogError(f"{target}: empty or headerless fleet log")
    try:
        payload = json.loads(first.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as error:
        raise FleetLogError(f"{target}:1: corrupt fleet-log header: {error}") from error
    return FleetLogHeader.from_payload(payload, target)


def read_log(
    path: Union[str, Path],
    max_records: Optional[int] = None,
    strict: bool = True,
) -> FleetLog:
    """Parse a fleet log.

    Verifies every line's CRC32 checksum.  A last line without a trailing
    newline is the signature of a crash mid-append: it is discarded
    silently (the swarm it described re-runs deterministically on resume).
    Anything malformed before the tail is genuine corruption and raises
    :class:`FleetLogError` — unless ``strict=False``, which *salvages*
    instead: checksum-failing or undecodable interior lines are skipped
    with a warning and the surviving records returned (the
    :class:`FleetLog` counts them in ``salvaged``).  ``max_records`` keeps
    only the first that many records.
    """
    source = Path(path)
    with source.open("rb") as handle:
        raw = handle.read()
    # The last element is "" after a clean newline, else a torn tail.
    complete = raw.split(b"\n")[:-1]
    if not complete:
        raise FleetLogError(f"{source}: empty or headerless fleet log")
    position = 0
    header: Optional[FleetLogHeader] = None
    header_end = 0
    records: List[FleetSwarmRecord] = []
    offsets: List[int] = []
    salvaged = 0
    for line_number, line in enumerate(complete, start=1):
        position += len(line) + 1
        try:
            payload = json.loads(line.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as error:
            # A partial write can only ever leave an *unterminated* tail
            # (dropped above); a newline-terminated line that does not parse
            # is genuine corruption.
            if line_number == 1 or strict:
                raise FleetLogError(
                    f"{source}:{line_number}: corrupt fleet-log line: {error}"
                ) from error
            warnings.warn(
                f"{source}:{line_number}: skipping corrupt fleet-log line "
                f"({error})",
                stacklevel=2,
            )
            salvaged += 1
            continue
        if line_number == 1:
            header = FleetLogHeader.from_payload(payload, source)
            header_end = position
            continue
        if not _crc_ok(payload):
            message = (
                f"{source}:{line_number}: record failed its CRC32 checksum "
                f"— corrupt fleet-log line"
            )
            if strict:
                raise FleetLogError(message)
            warnings.warn(message + "; skipping it", stacklevel=2)
            salvaged += 1
            continue
        records.append(record_from_payload(payload, source, line_number))
        offsets.append(position)
    assert header is not None  # line 1 either parsed or raised
    if max_records is not None:
        records = records[:max_records]
        offsets = offsets[:max_records]
    return FleetLog(
        header=header,
        records=tuple(records),
        offsets=tuple(offsets),
        header_end=header_end,
        salvaged=salvaged,
    )


def tail_summary(path: Union[str, Path]) -> str:
    """One-line live status of a fleet log (for humans tailing a run)."""
    log = read_log(path)
    captured = sum(1 for record in log.records if record.captured)
    failed = sum(1 for record in log.records if record.failed)
    total = len(log.records)
    prevalence = captured / total if total else 0.0
    summary = (
        f"fleet {log.header.spec_name!r}: {total}/{log.header.num_swarms} "
        f"swarms logged, capture prevalence {prevalence:.1%}"
    )
    if failed:
        summary += f", {failed} failed"
    return summary


__all__ = [
    "FLEET_LOG_SCHEMA",
    "FleetLog",
    "FleetLogError",
    "FleetLogHeader",
    "FleetLogWriter",
    "read_header",
    "read_log",
    "record_from_payload",
    "record_to_json",
    "tail_summary",
]
