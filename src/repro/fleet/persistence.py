"""Log-structured fleet persistence: checksummed, segmented JSONL records.

A fleet run (fixed :class:`~repro.fleet.scheduler.FleetScheduler` or adaptive
:class:`~repro.fleet.adaptive.AdaptiveFleetDriver`) appends each finished
swarm's :class:`~repro.fleet.result.FleetSwarmRecord` to a plain-text JSONL
log as it completes:

* line 1 of every file is a schema-versioned **header** (spec name, swarm
  target, the normalized master-seed token, and the file's segment index /
  record base), so every file is self-describing;
* every subsequent line is one swarm record, written in swarm-index order
  and fsync'd in batches — a running fleet can be followed live with
  ``tail -f`` and its census rebuilt at any time via
  :meth:`repro.fleet.result.FleetResult.from_log`;
* every record (and census) line carries a **CRC32 checksum** over its
  canonical JSON payload, so bit rot anywhere in the middle of a log is
  *detected*, never silently folded into a result;
* with ``rotate_every``, the active file rotates into numbered **closed
  segments** (``fleet.jsonl.seg000000``, ...) so month-scale runs never
  grow one unbounded file, and ``compact_after`` (or an explicit
  :func:`compact_log`) merges closed segments into one columnar
  **census snapshot** (``fleet.jsonl.compact``) — lossless, so
  ``from_log`` / resume / fingerprints are exact across compaction;
* checkpoints no longer carry the record list: they shrink to a
  ``(segment, byte offset)`` pointer into this log (plus the in-flight
  kernel snapshot), and resume truncates the log back to the checkpointed
  position so the two can never disagree.

Crash behaviour is append-only-log standard: a partially written *last*
line of the *active* file (the process died mid-append) is discarded on
read, not fatal; corruption anywhere before the tail, or a
schema-version mismatch, raises :class:`FleetLogError` with a pointed
message — unless the reader opts into ``strict=False`` **salvage mode**,
which skips checksum-failing interior lines with a warning and returns
whatever survived.  Only the current schema is read.
"""

from __future__ import annotations

import json
import os
import warnings
import zlib
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from .faults import FaultState, InjectedFsyncFailure, InjectedTornWrite, kill_self
from .result import FleetSwarmRecord

#: Version tag of the JSONL fleet-log schema; readers accept only this one.
#: Every line of a schema-2 file carries a CRC32 checksum.
FLEET_LOG_SCHEMA = 2

_HEADER_KIND = "fleet-log"
_RECORD_KIND = "swarm"
_CENSUS_KIND = "census"

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
    """First line of every fleet-log file (pure data, JSON-serializable)."""

    schema: int
    spec_name: str
    num_swarms: int
    seed: Any  # normalized master-seed token (int or {entropy, spawn_key})
    #: Index of the segment this file holds (0 for an unrotated log).
    segment: int = 0
    #: Number of records that live in *earlier* segments (or the compact
    #: snapshot); the first record of this file has this swarm index.
    base_records: int = 0

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
            segment=int(payload.get("segment", 0)),
            base_records=int(payload.get("base_records", 0)),
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


def census_to_json(records: List[FleetSwarmRecord]) -> str:
    """A compacted run of records as one columnar census line.

    Columnar (one list per record field) and **lossless**: every record
    round-trips exactly, so compaction never changes what ``from_log``,
    a resumed run, or a fingerprint sees — it only stops paying the
    repeated JSON keys of thousands of individual lines.
    """
    columns = {
        name: [getattr(record, name) for record in records]
        for name in _RECORD_FIELDS
    }
    payload = {
        "kind": _CENSUS_KIND,
        "num_records": len(records),
        "captured": sum(int(record.captured) for record in records),
        "failed": sum(int(record.failed) for record in records),
        "columns": columns,
    }
    payload["crc"] = _crc_of(payload)
    return json.dumps(payload, sort_keys=True)


def records_from_census(
    payload: dict, path: Path, line: int
) -> List[FleetSwarmRecord]:
    """Expand one census snapshot line back into its exact records."""
    columns = payload.get("columns") or {}
    try:
        count = int(payload["num_records"])
        records = []
        for i in range(count):
            data = {
                name: columns[name][i] for name in _RECORD_FIELDS if name in columns
            }
            data["sojourn_hist"] = tuple(data.get("sojourn_hist", ()))
            data["download_hist"] = tuple(data.get("download_hist", ()))
            records.append(FleetSwarmRecord(**data))
        return records
    except (KeyError, IndexError, TypeError, ValueError) as error:
        raise FleetLogError(
            f"{path}:{line}: malformed census snapshot: {error}"
        ) from error


# -- file layout --------------------------------------------------------------


def segment_path(path: Union[str, Path], index: int) -> Path:
    """The file a closed segment rotates to (``<log>.seg000042``)."""
    target = Path(path)
    return target.with_name(f"{target.name}.seg{index:06d}")


def compact_path(path: Union[str, Path]) -> Path:
    """The census-snapshot file compaction merges closed segments into."""
    target = Path(path)
    return target.with_name(target.name + ".compact")


def _discover(path: Path) -> Tuple[Optional[Path], Dict[int, Path], bool]:
    """The on-disk pieces of a segmented log: (compact, closed, active?)."""
    marker = path.name + ".seg"
    closed: Dict[int, Path] = {}
    if path.parent.exists():
        for entry in path.parent.iterdir():
            name = entry.name
            if name.startswith(marker) and name[len(marker):].isdigit():
                closed[int(name[len(marker):])] = entry
    compacted = compact_path(path)
    return (compacted if compacted.exists() else None, closed, path.exists())


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


class FleetLogWriter:
    """Append-only JSONL writer: batched fsync, rotation, exact resume.

    ``resume_offset=None`` creates/truncates the active file (and clears
    any stale closed segments of a previous run) and writes a fresh
    header; an integer offset reopens an existing log, truncates anything
    past ``(resume_segment, resume_offset)`` (records written after the
    last checkpoint are re-run deterministically, so dropping them is
    safe) and appends from there.  When the checkpointed segment was
    already compacted away, ``resume_records`` rebuilds the log prefix
    from the compact snapshot instead — resume stays exact across
    rotation *and* compaction.

    ``fsync_every_n`` trades durability for throughput: the writer flushes
    every append (so ``tail -f`` stays live) but only pays the ``fsync``
    once at least that many records have accumulated since the last sync.
    The default of 1 keeps the original fsync-per-append durability.  A
    crash can lose at most the unsynced tail, which — like any truncated
    tail — re-runs deterministically on resume.

    ``rotate_every`` closes the active file into a numbered segment once
    it holds that many records; ``compact_after`` additionally merges the
    closed segments into the census snapshot once that many have piled up.

    :attr:`offset` is the byte offset (within the *active* segment) after
    the last *fsync'd* batch — the value a checkpoint may safely store
    together with :attr:`segment`; checkpoint writers call :meth:`sync`
    first so the offset covers everything appended.

    ``faults`` threads a :class:`~repro.fleet.faults.FaultState` through
    the write path (torn appends, failed fsyncs, kill points); the
    ``None`` default costs nothing.
    """

    def __init__(
        self,
        path: Union[str, Path],
        header: FleetLogHeader,
        resume_offset: Optional[int] = None,
        fsync_every_n: int = 1,
        rotate_every: Optional[int] = None,
        compact_after: Optional[int] = None,
        resume_segment: int = 0,
        resume_records: Optional[int] = None,
        faults: Optional[FaultState] = None,
    ):
        if fsync_every_n < 1:
            raise ValueError(f"fsync_every_n must be >= 1, got {fsync_every_n}")
        if rotate_every is not None and rotate_every < 1:
            raise ValueError(f"rotate_every must be >= 1, got {rotate_every}")
        if compact_after is not None and compact_after < 1:
            raise ValueError(f"compact_after must be >= 1, got {compact_after}")
        self.fsync_every_n = fsync_every_n
        self.rotate_every = rotate_every
        self.compact_after = compact_after
        self.faults = faults
        self._unsynced_records = 0
        self.path = Path(path)
        self.header = header
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if resume_offset is None:
            stale_compact, stale_closed, _ = _discover(self.path)
            if stale_compact is not None:
                stale_compact.unlink()
            for stale in stale_closed.values():
                stale.unlink()
            self.segment = 0
            self._base_records = 0
            self._records_in_segment = 0
            self._handle = self.path.open("wb")
            self._write_header()
            self._sync()
        else:
            self._prepare_resume(resume_segment, resume_offset, resume_records)
        self.offset = self._handle.tell()

    # -- resume ---------------------------------------------------------------

    def _prepare_resume(
        self, segment: int, offset: int, num_records: Optional[int]
    ) -> None:
        compacted, closed, active_exists = _discover(self.path)
        if not (active_exists or closed or compacted):
            raise FleetLogError(
                f"cannot resume fleet log {self.path}: file does not exist"
            )
        if active_exists:
            probe: Path = self.path
        elif closed:
            probe = closed[min(closed)]
        else:
            probe = compacted  # type: ignore[assignment]
        existing = read_header(probe)
        if existing.seed != self.header.seed:
            raise FleetLogError(
                f"{self.path}: log header seed {existing.seed!r} does "
                f"not match the resuming run's seed {self.header.seed!r}"
            )
        if active_exists:
            active_index = read_header(self.path).segment
        else:
            active_index = (max(closed) + 1) if closed else 0
        if segment == active_index and active_exists:
            for index in sorted(closed):
                if index >= active_index:
                    closed[index].unlink()
            self._reopen_active(offset)
        elif segment in closed:
            # The checkpoint points into a closed segment: everything after
            # it is post-checkpoint work, so reinstate it as the active file
            # and drop the newer segments.
            if active_exists:
                self.path.unlink()
            for index in sorted(closed):
                if index > segment:
                    closed[index].unlink()
            os.replace(closed[segment], self.path)
            _fsync_dir(self.path.parent)
            self._reopen_active(offset)
        else:
            # The checkpointed segment was compacted away; the byte offset
            # is meaningless now, but the record count identifies the exact
            # prefix — rebuild the compact snapshot to hold precisely it.
            if num_records is None:
                raise FleetLogError(
                    f"{self.path}: segment {segment} no longer exists "
                    f"(compacted) and no record count was given to rebuild "
                    f"the prefix from"
                )
            log = read_log(self.path, max_records=num_records)
            if len(log.records) < num_records:
                raise FleetLogError(
                    f"{self.path} holds {len(log.records)} records but the "
                    f"resume expects {num_records}"
                )
            records = list(log.records[:num_records])
            new_index = active_index + 1
            snapshot_header = replace(
                self.header, schema=FLEET_LOG_SCHEMA, segment=0, base_records=0
            )
            target = compact_path(self.path)
            if records:
                _write_compact_file(target, snapshot_header, records)
            elif compacted is not None:
                target.unlink()
            if active_exists:
                self.path.unlink()
            for stale in closed.values():
                stale.unlink()
            _fsync_dir(self.path.parent)
            self.segment = new_index
            self._base_records = num_records
            self._records_in_segment = 0
            self._handle = self.path.open("wb")
            self._write_header()
            self._sync()

    def _reopen_active(self, offset: int) -> None:
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
        active_header = read_header(self.path)
        self.segment = active_header.segment
        self._base_records = active_header.base_records
        with self.path.open("rb") as handle:
            raw = handle.read()
        # Complete (newline-terminated) lines minus the header line.
        self._records_in_segment = max(raw.count(b"\n") - 1, 0)

    # -- writing --------------------------------------------------------------

    @property
    def total_records(self) -> int:
        """Records appended across every segment of this log."""
        return self._base_records + self._records_in_segment

    def _write_header(self) -> None:
        stamped = replace(
            self.header,
            schema=FLEET_LOG_SCHEMA,
            segment=self.segment,
            base_records=self._base_records,
        )
        self._handle.write((stamped.to_json() + "\n").encode("utf-8"))

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
            self._records_in_segment += 1
            self._unsynced_records += 1
            if self.faults is not None and self.faults.take_kill_point(
                record.index
            ):
                # Make the record durable first — the kill tests assert the
                # resumed run continues from *after* this record.
                self._handle.flush()
                os.fsync(self._handle.fileno())
                kill_self()
            if (
                self.rotate_every is not None
                and self._records_in_segment >= self.rotate_every
            ):
                self._rotate()
        if self._unsynced_records >= self.fsync_every_n:
            self._sync()
            self.offset = self._handle.tell()
        elif records:
            self._handle.flush()
        return self.offset

    def _rotate(self) -> None:
        """Close the active file into a numbered segment and start fresh."""
        self._sync()
        self._handle.close()
        os.replace(self.path, segment_path(self.path, self.segment))
        _fsync_dir(self.path.parent)
        self._base_records += self._records_in_segment
        self._records_in_segment = 0
        self.segment += 1
        self._handle = self.path.open("wb")
        self._write_header()
        self._sync()
        self.offset = self._handle.tell()
        if self.compact_after is not None:
            _, closed, _ = _discover(self.path)
            if len(closed) >= self.compact_after:
                compact_log(self.path)

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
    #: ``offsets[i]`` is the byte offset just *after* record ``i`` within
    #: the file that holds it — the value a checkpoint holding ``i + 1``
    #: records stores.  Records expanded from a census snapshot share the
    #: offset just past the snapshot line.
    offsets: Tuple[int, ...]
    #: Byte offset just after the header line of the last file read.
    header_end: int
    #: File names the log was assembled from, in read order.
    sources: Tuple[str, ...] = ()
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


def _parse_source(
    source: Path,
    is_last: bool,
    strict: bool,
    consumed: int,
) -> Tuple[FleetLogHeader, List[FleetSwarmRecord], List[int], int, int, int]:
    """Parse one log file.

    Returns ``(header, records, offsets, header_end, consumed, salvaged)``
    where ``consumed`` counts every record the file *accounted for*
    (including salvage-skipped lines), which is what segment-continuity
    checks compare against ``base_records``.
    """
    with source.open("rb") as handle:
        raw = handle.read()
    lines = raw.split(b"\n")
    complete = lines[:-1]
    salvaged = 0
    if lines[-1] and not is_last:
        # Only the active (last) file may carry a crash-truncated tail; a
        # closed segment was fsync'd whole before rotation.
        message = f"{source}: truncated line inside a closed segment (corrupt)"
        if strict:
            raise FleetLogError(message)
        warnings.warn(message + "; dropping it", stacklevel=3)
        salvaged += 1
    if not complete:
        raise FleetLogError(f"{source}: empty or headerless fleet log")
    position = 0
    header: Optional[FleetLogHeader] = None
    header_end = 0
    records: List[FleetSwarmRecord] = []
    offsets: List[int] = []
    for line_number, line in enumerate(complete, start=1):
        position += len(line) + 1
        try:
            payload = json.loads(line.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as error:
            # A partial write can only ever leave an *unterminated* tail
            # (handled above); a newline-terminated line that does not parse
            # is genuine corruption.
            if line_number == 1 or strict:
                raise FleetLogError(
                    f"{source}:{line_number}: corrupt fleet-log line: {error}"
                ) from error
            warnings.warn(
                f"{source}:{line_number}: skipping corrupt fleet-log line "
                f"({error})",
                stacklevel=3,
            )
            salvaged += 1
            consumed += 1
            continue
        if line_number == 1:
            header = FleetLogHeader.from_payload(payload, source)
            header_end = position
            continue
        kind = payload.get("kind")
        if kind == _CENSUS_KIND:
            if not _crc_ok(payload):
                message = (
                    f"{source}:{line_number}: census snapshot failed its "
                    f"CRC32 checksum — corrupt fleet-log line"
                )
                if strict:
                    raise FleetLogError(message)
                warnings.warn(message + "; its records are lost", stacklevel=3)
                salvaged += 1
                consumed += int(payload.get("num_records", 0) or 0)
                continue
            expanded = records_from_census(payload, source, line_number)
            records.extend(expanded)
            offsets.extend([position] * len(expanded))
            consumed += len(expanded)
            continue
        if not _crc_ok(payload):
            message = (
                f"{source}:{line_number}: record failed its CRC32 checksum "
                f"— corrupt fleet-log line"
            )
            if strict:
                raise FleetLogError(message)
            warnings.warn(message + "; skipping it", stacklevel=3)
            salvaged += 1
            consumed += 1
            continue
        records.append(record_from_payload(payload, source, line_number))
        offsets.append(position)
        consumed += 1
    if header is None:
        raise FleetLogError(f"{source}: empty or headerless fleet log")
    return header, records, offsets, header_end, consumed, salvaged


def read_log(
    path: Union[str, Path],
    max_records: Optional[int] = None,
    strict: bool = True,
) -> FleetLog:
    """Parse a (possibly segmented/compacted) fleet log.

    Reads the compact census snapshot (if any), then the closed segments
    in index order, then the active file, verifying every line's CRC32
    checksum and each segment's ``base_records`` continuity.  A last line
    of the *active* file without a trailing newline, or whose JSON is cut
    short, is the signature of a crash mid-append: it is discarded
    silently (the swarm it described re-runs deterministically on
    resume).  Anything malformed before the tail is genuine corruption
    and raises :class:`FleetLogError` — unless ``strict=False``, which
    *salvages* instead: checksum-failing or undecodable interior lines
    are skipped with a warning and the surviving records returned (the
    :class:`FleetLog` counts them in ``salvaged``).
    """
    target = Path(path)
    compacted, closed, active_exists = _discover(target)
    sources: List[Path] = []
    if compacted is not None:
        sources.append(compacted)
    sources.extend(closed[index] for index in sorted(closed))
    if active_exists or not sources:
        # A missing active file with no segments raises FileNotFoundError,
        # exactly like the unsegmented reader did.
        sources.append(target)
    header: Optional[FleetLogHeader] = None
    records: List[FleetSwarmRecord] = []
    offsets: List[int] = []
    header_end = 0
    consumed = 0
    salvaged = 0
    for position_in_chain, source in enumerate(sources):
        is_last = position_in_chain == len(sources) - 1
        (
            source_header,
            source_records,
            source_offsets,
            source_header_end,
            consumed_after,
            source_salvaged,
        ) = _parse_source(source, is_last, strict, consumed)
        if header is None:
            header = source_header
        elif source_header.seed != header.seed:
            raise FleetLogError(
                f"{source}: segment header seed {source_header.seed!r} does "
                f"not match the log's seed {header.seed!r}"
            )
        if source != compacted and source_header.base_records != consumed:
            message = (
                f"{source}: segment declares base_records="
                f"{source_header.base_records} but {consumed} records precede "
                f"it (missing or reordered segments)"
            )
            if strict:
                raise FleetLogError(message)
            warnings.warn(message, stacklevel=2)
        salvaged += source_salvaged
        records.extend(source_records)
        offsets.extend(source_offsets)
        header_end = source_header_end
        consumed = consumed_after
        if max_records is not None and len(records) >= max_records:
            records = records[:max_records]
            offsets = offsets[:max_records]
            break
    assert header is not None  # every parsed source has one
    return FleetLog(
        header=header,
        records=tuple(records),
        offsets=tuple(offsets),
        header_end=header_end,
        sources=tuple(source.name for source in sources),
        salvaged=salvaged,
    )


def _write_compact_file(
    target: Path, header: FleetLogHeader, records: List[FleetSwarmRecord]
) -> None:
    """Atomically (re)write the census snapshot file."""
    temp = target.with_name(target.name + ".tmp")
    with temp.open("wb") as handle:
        handle.write((header.to_json() + "\n").encode("utf-8"))
        handle.write((census_to_json(records) + "\n").encode("utf-8"))
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp, target)
    _fsync_dir(target.parent)


def compact_log(path: Union[str, Path]) -> int:
    """Merge a log's closed segments (and prior snapshot) into one census.

    Rewrites ``<log>.compact`` to hold every record of the existing
    snapshot plus all closed segments as one columnar census line, then
    removes the merged segment files.  Lossless and crash-atomic (temp
    file + fsync + ``os.replace`` + directory fsync): a crash at any
    point leaves either the old layout or the new one.  The active file
    is never touched.  Returns the number of records now in the snapshot
    (0 when there was nothing to compact).
    """
    target = Path(path)
    compacted, closed, _ = _discover(target)
    if not closed:
        return 0
    sources = ([compacted] if compacted is not None else []) + [
        closed[index] for index in sorted(closed)
    ]
    header: Optional[FleetLogHeader] = None
    records: List[FleetSwarmRecord] = []
    consumed = 0
    for source in sources:
        source_header, source_records, _offsets, _end, consumed, _salv = (
            _parse_source(source, is_last=False, strict=True, consumed=consumed)
        )
        if header is None:
            header = source_header
        if source != compacted and source_header.base_records != len(records):
            raise FleetLogError(
                f"{source}: segment declares base_records="
                f"{source_header.base_records} but {len(records)} records "
                f"precede it; refusing to compact a gapped log"
            )
        records.extend(source_records)
    assert header is not None
    snapshot_header = replace(
        header, schema=FLEET_LOG_SCHEMA, segment=0, base_records=0
    )
    _write_compact_file(compact_path(target), snapshot_header, records)
    for source in closed.values():
        source.unlink()
    _fsync_dir(target.parent)
    return len(records)


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
    "census_to_json",
    "compact_log",
    "compact_path",
    "read_header",
    "read_log",
    "record_from_payload",
    "record_to_json",
    "records_from_census",
    "segment_path",
    "tail_summary",
]
