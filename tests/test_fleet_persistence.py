"""JSONL fleet-log persistence tests.

Contracts:

* every completed swarm appends exactly one schema-versioned JSONL line;
  ``FleetResult.from_log`` replays the log into the *same* census the run
  streamed incrementally;
* a partially written last line (crash mid-append) is discarded, not fatal;
  corruption before the tail and schema-version mismatches raise a clear
  ``FleetLogError``;
* checkpoints hold only a byte offset into the log (no record list), and
  resuming truncates the log back to that offset so both always agree.
"""

import dataclasses
import json
import pickle
import zlib

import pytest

from repro.fleet import (
    FLEET_LOG_SCHEMA,
    FleetLogError,
    FleetLogHeader,
    FleetLogWriter,
    FleetResult,
    RandomSampler,
    ScenarioWeight,
    default_log_path,
    load_checkpoint,
    read_log,
    resume_fleet,
    run_fleet,
    tail_summary,
)
from repro.fleet.persistence import record_to_json
from repro.fleet.result import failure_record
from repro.fleet.spec import FleetSpec, materialize_tasks


def small_spec(num_swarms=8, **overrides) -> FleetSpec:
    defaults = dict(
        name="log-fleet",
        num_swarms=num_swarms,
        sampler=RandomSampler.of({"arrival_rate": (0.8, 3.0)}, num_pieces=5),
        scenario_mix=(
            ScenarioWeight.of(None, weight=2.0),
            ScenarioWeight.of("free-rider", weight=1.0, leech_fraction=0.7),
        ),
        horizon=6.0,
        max_events=150,
        backend="array",
        initial_club_size=10,
    )
    defaults.update(overrides)
    return FleetSpec(**defaults)


class TestStreamingLog:
    def test_one_line_per_swarm_plus_header(self, tmp_path):
        spec = small_spec(num_swarms=6)
        log = tmp_path / "fleet.jsonl"
        run_fleet(spec, seed=3, workers=1, log_path=log)
        lines = log.read_text().splitlines()
        assert len(lines) == 1 + 6
        header = json.loads(lines[0])
        assert header["kind"] == "fleet-log"
        assert header["schema"] == FLEET_LOG_SCHEMA
        assert header["spec_name"] == "log-fleet"
        assert all(json.loads(line)["kind"] == "swarm" for line in lines[1:])

    def test_from_log_equals_streamed_census(self, tmp_path):
        spec = small_spec(num_swarms=10)
        log = tmp_path / "fleet.jsonl"
        streamed = run_fleet(spec, seed=11, workers=2, log_path=log)
        rebuilt = FleetResult.from_log(log)
        assert rebuilt == streamed
        assert rebuilt.fingerprint() == streamed.fingerprint()

    def test_from_log_max_records_prefix(self, tmp_path):
        spec = small_spec(num_swarms=6)
        log = tmp_path / "fleet.jsonl"
        full = run_fleet(spec, seed=5, workers=1, log_path=log)
        prefix = FleetResult.from_log(log, max_records=4)
        assert len(prefix.records) == 4
        assert prefix.records == full.records[:4]

    def test_tail_summary_renders(self, tmp_path):
        spec = small_spec(num_swarms=4)
        log = tmp_path / "fleet.jsonl"
        run_fleet(spec, seed=0, workers=1, log_path=log)
        summary = tail_summary(log)
        assert "4/4 swarms logged" in summary
        assert "log-fleet" in summary

    def test_records_roundtrip_exactly(self, tmp_path):
        """JSON serialization must preserve every field bit-for-bit
        (floats via repr round-tripping), or resumed censuses would drift."""
        spec = small_spec(num_swarms=5)
        log = tmp_path / "fleet.jsonl"
        streamed = run_fleet(spec, seed=21, workers=1, log_path=log)
        rebuilt = read_log(log)
        assert list(rebuilt.records) == list(streamed.records)
        for ours, theirs in zip(rebuilt.records, streamed.records):
            assert ours.key() == theirs.key()

    def test_record_lines_match_the_asdict_form(self, tmp_path):
        """``record_to_json`` reads the fields directly; its lines must be
        byte-identical to the ``dataclasses.asdict`` form, for an ``ok``
        and a ``failed`` record, and still round-trip through the log."""
        spec = small_spec(num_swarms=2)
        ok = run_fleet(spec, seed=4).records[0]
        task = materialize_tasks(spec, 4)[1]
        failed = failure_record(task, spec, error="RuntimeError: boom", attempts=3)
        records = [ok, failed]
        for record in records:
            payload = {"kind": "swarm", **dataclasses.asdict(record)}
            payload["crc"] = zlib.crc32(
                json.dumps(payload, sort_keys=True).encode("utf-8")
            ) & 0xFFFFFFFF
            assert record_to_json(record) == json.dumps(payload, sort_keys=True)
        log = tmp_path / "fleet.jsonl"
        header = FleetLogHeader(
            schema=FLEET_LOG_SCHEMA, spec_name=spec.name, num_swarms=2, seed=4
        )
        with FleetLogWriter(log, header) as writer:
            writer.append(records)
        rebuilt = FleetResult.from_log(log)
        assert list(rebuilt.records) == records
        assert rebuilt.records[1].failed


class TestCrashRecovery:
    def test_truncated_tail_is_discarded(self, tmp_path):
        spec = small_spec(num_swarms=6)
        log = tmp_path / "fleet.jsonl"
        run_fleet(spec, seed=9, workers=1, log_path=log)
        intact = read_log(log)
        # Simulate a crash mid-append: a partial record with no newline.
        with log.open("ab") as handle:
            handle.write(b'{"kind": "swarm", "index": 6, "scena')
        recovered = read_log(log)
        assert recovered.records == intact.records
        assert FleetResult.from_log(log).records == list(intact.records)

    def test_corrupt_interior_line_raises(self, tmp_path):
        spec = small_spec(num_swarms=4)
        log = tmp_path / "fleet.jsonl"
        run_fleet(spec, seed=2, workers=1, log_path=log)
        lines = log.read_text().splitlines()
        lines[2] = lines[2][: len(lines[2]) // 2]  # mangle a middle record
        log.write_text("\n".join(lines) + "\n")
        with pytest.raises(FleetLogError, match="corrupt"):
            read_log(log)

    def test_schema_mismatch_raises_clear_error(self, tmp_path):
        log = tmp_path / "future.jsonl"
        header = {
            "kind": "fleet-log",
            "schema": FLEET_LOG_SCHEMA + 7,
            "spec_name": "x",
            "num_swarms": 1,
            "seed": 0,
        }
        log.write_text(json.dumps(header) + "\n")
        with pytest.raises(FleetLogError, match="schema"):
            read_log(log)

    def test_headerless_log_raises(self, tmp_path):
        log = tmp_path / "empty.jsonl"
        log.write_text("")
        with pytest.raises(FleetLogError, match="headerless"):
            read_log(log)

    def test_writer_resume_truncates_past_offset(self, tmp_path):
        spec = small_spec(num_swarms=6)
        log = tmp_path / "fleet.jsonl"
        full = run_fleet(spec, seed=4, workers=1, log_path=log)
        parsed = read_log(log)
        cut = parsed.offset_after(3)
        header = FleetLogHeader(
            schema=FLEET_LOG_SCHEMA,
            spec_name=spec.name,
            num_swarms=spec.num_swarms,
            seed=parsed.header.seed,
        )
        with FleetLogWriter(log, header, resume_offset=cut) as writer:
            assert writer.offset == cut
        reread = read_log(log)
        assert len(reread.records) == 3
        assert list(reread.records) == list(full.records[:3])

    def test_writer_resume_rejects_seed_mismatch(self, tmp_path):
        spec = small_spec(num_swarms=3)
        log = tmp_path / "fleet.jsonl"
        run_fleet(spec, seed=4, workers=1, log_path=log)
        header = FleetLogHeader(
            schema=FLEET_LOG_SCHEMA,
            spec_name=spec.name,
            num_swarms=spec.num_swarms,
            seed=999,
        )
        with pytest.raises(FleetLogError, match="seed"):
            FleetLogWriter(log, header, resume_offset=10)


class TestOffsetCheckpoints:
    def test_checkpoint_stores_offset_not_records(self, tmp_path):
        spec = small_spec(num_swarms=8)
        path = tmp_path / "fleet.ckpt"
        run_fleet(
            spec,
            seed=31,
            workers=1,
            checkpoint_path=path,
            stop_after_swarms=4,
        )
        checkpoint = load_checkpoint(path)
        assert not hasattr(checkpoint, "records")
        assert checkpoint.num_records == 4
        assert checkpoint.next_index == 4
        log = checkpoint.log_path(path)
        assert log == default_log_path(path)
        parsed = read_log(log, max_records=checkpoint.num_records)
        assert checkpoint.log_offset == parsed.offset_after(4)
        # The checkpoint is small: spec + seed + offsets, no record payload.
        assert path.stat().st_size < 4096

    def test_checkpoint_and_log_travel_together(self, tmp_path):
        """Moving the checkpoint+log directory keeps resume working (the
        log is addressed by sibling name, not absolute path)."""
        spec = small_spec(num_swarms=8)
        original = tmp_path / "a" / "fleet.ckpt"
        uninterrupted = run_fleet(spec, seed=13, workers=1)
        run_fleet(
            spec,
            seed=13,
            workers=1,
            checkpoint_path=original,
            stop_after_swarms=3,
        )
        moved = tmp_path / "b"
        moved.mkdir()
        for source in original.parent.iterdir():
            source.rename(moved / source.name)
        resumed = resume_fleet(moved / "fleet.ckpt", workers=1)
        assert resumed == uninterrupted

    def test_resume_reruns_records_logged_after_checkpoint(self, tmp_path):
        """Records appended to the log after the last checkpoint (crash
        between log append and checkpoint write) are truncated on resume
        and re-run to the identical census."""
        spec = small_spec(num_swarms=8)
        path = tmp_path / "fleet.ckpt"
        uninterrupted = run_fleet(spec, seed=17, workers=1)
        run_fleet(
            spec,
            seed=17,
            workers=1,
            checkpoint_path=path,
            stop_after_swarms=5,
        )
        # Rewind the checkpoint to 3 records while the log still holds 5,
        # simulating a crash after two un-checkpointed appends.
        checkpoint = load_checkpoint(path)
        log = checkpoint.log_path(path)
        parsed = read_log(log)
        rewound = pickle.loads(pickle.dumps(checkpoint))
        rewound.num_records = 3
        rewound.log_offset = parsed.offset_after(3)
        from repro.fleet import save_checkpoint

        save_checkpoint(path, rewound)
        resumed = resume_fleet(path, workers=1)
        assert resumed == uninterrupted
        assert len(read_log(log).records) == spec.num_swarms


class TestFsyncBatching:
    def test_batched_fsync_defers_offset_until_sync(self, tmp_path):
        from repro.fleet.persistence import FleetLogHeader, FleetLogWriter

        header = FleetLogHeader(
            schema=FLEET_LOG_SCHEMA, spec_name="batched", num_swarms=4, seed=1
        )
        spec = small_spec(num_swarms=4)
        records = run_fleet(spec, seed=5).records
        path = tmp_path / "batched.jsonl"
        with FleetLogWriter(path, header, fsync_every_n=3) as writer:
            start = writer.offset
            writer.append([records[0]])
            # One unsynced record: the safe-checkpoint offset has not moved,
            # but the bytes are flushed for tail -f.
            assert writer.offset == start
            assert path.stat().st_size > start
            writer.append(list(records[1:3]))  # threshold reached -> fsync
            assert writer.offset == path.stat().st_size
            writer.append([records[3]])
            assert writer.offset < path.stat().st_size
            assert writer.sync() == path.stat().st_size
        # close() syncs the remainder; the log parses fully either way.
        assert len(read_log(path).records) == 4

    def test_batched_log_bytes_identical_to_per_append(self, tmp_path):
        spec = small_spec(num_swarms=6)
        per_append = tmp_path / "per-append.jsonl"
        batched = tmp_path / "batched.jsonl"
        result_1 = run_fleet(spec, seed=9, log_path=per_append, fsync_every_n=1)
        result_n = run_fleet(spec, seed=9, log_path=batched, fsync_every_n=32)
        assert per_append.read_bytes() == batched.read_bytes()
        assert result_1 == result_n

    def test_fsync_every_n_validation(self, tmp_path):
        with pytest.raises(ValueError, match="fsync_every_n"):
            run_fleet(small_spec(), seed=1, fsync_every_n=0)


def _rewrite_header(log, **extra) -> int:
    """Add keys to a log's header line with a recomputed CRC32, as a log
    written before rotation was removed carries them; returns the number
    of bytes the header grew by."""
    lines = log.read_bytes().split(b"\n")
    payload = json.loads(lines[0])
    del payload["crc"]
    payload.update(extra)
    payload["crc"] = zlib.crc32(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ) & 0xFFFFFFFF
    old_length = len(lines[0])
    lines[0] = json.dumps(payload, sort_keys=True).encode("utf-8")
    log.write_bytes(b"\n".join(lines))
    return len(lines[0]) - old_length


class TestRotatedEraInputs:
    def test_rotated_segment_header_is_refused(self, tmp_path):
        log = tmp_path / "fleet.jsonl"
        run_fleet(small_spec(num_swarms=4), seed=6, workers=1, log_path=log)
        _rewrite_header(log, segment=2, base_records=30)
        with pytest.raises(FleetLogError, match="rotation was removed"):
            read_log(log)
        with pytest.raises(FleetLogError, match="rotation was removed"):
            FleetResult.from_log(log)

    def test_checkpoint_into_a_later_segment_is_refused(self, tmp_path):
        path = tmp_path / "fleet.ckpt"
        run_fleet(
            small_spec(), seed=6, workers=1, checkpoint_path=path,
            stop_after_swarms=3,
        )
        checkpoint = load_checkpoint(path)
        checkpoint.log_segment = 1
        path.write_bytes(pickle.dumps(checkpoint))
        with pytest.raises(FleetLogError, match="rotation was removed"):
            load_checkpoint(path)
        with pytest.raises(FleetLogError, match="rotation was removed"):
            resume_fleet(path, workers=1)

    def test_unrotated_log_with_segment_keys_resumes_exactly(self, tmp_path):
        """A checkpoint+log pair written while the header still carried
        ``segment: 0`` / ``base_records: 0`` resumes to the uninterrupted
        result, mid-swarm snapshot included."""
        spec = small_spec()
        uninterrupted = run_fleet(spec, seed=19, workers=1)
        path = tmp_path / "fleet.ckpt"
        run_fleet(
            spec, seed=19, workers=1, checkpoint_path=path,
            stop_after_swarms=5, suspend_after_events=30,
        )
        checkpoint = load_checkpoint(path)
        assert checkpoint.in_flight is not None
        log = checkpoint.log_path(path)
        checkpoint.log_offset += _rewrite_header(log, segment=0, base_records=0)
        path.write_bytes(pickle.dumps(checkpoint))
        resumed = resume_fleet(path, workers=1)
        assert resumed.fingerprint() == uninterrupted.fingerprint()
        assert FleetResult.from_log(log) == uninterrupted
        assert json.loads(log.read_text().splitlines()[0])["segment"] == 0
