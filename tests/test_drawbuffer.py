"""DrawBuffer edge cases: refills, block-size invariance, snapshot formats.

The blocked-draw contract (see ``repro.swarm.drawbuf``): draw number ``k``
of a simulation reads stream position ``k`` of the underlying PCG64
generator regardless of block size, so every block size yields bit-identical
trajectories; snapshots carry the un-consumed block remainder so mid-block
restores continue exactly; and snapshots, checkpoints and logs in formats
earlier builds wrote are rejected.
"""

import pickle

import numpy as np
import pytest

from repro.core.parameters import SystemParameters
from repro.core.state import SystemState
from repro.swarm.drawbuf import BLOCK_SIZE_ENV, DrawBuffer, default_block_size
from repro.swarm.swarm import make_simulator

BLOCK_SIZES = (1, 2, 4096)


def _params():
    return SystemParameters.flash_crowd(
        num_pieces=4, arrival_rate=2.0, seed_rate=1.0, seed_departure_rate=2.0
    )


class TestDrawBufferUnit:
    def test_stream_matches_scalar_generator_across_refills(self):
        """Blocked consumption reads the same stream as scalar random()."""
        scalar_rng = np.random.default_rng(3)
        reference = [scalar_rng.random() for _ in range(11)]
        for block_size in (1, 2, 3, 4096):
            buffer = DrawBuffer(np.random.default_rng(3), block_size)
            drawn = [buffer.next() for _ in range(11)]
            assert drawn == list(reference), block_size

    def test_uniform_matches_generator_uniform(self):
        buffer = DrawBuffer(np.random.default_rng(7), 4)
        expected = np.random.default_rng(7).uniform(0.0, 3.5)
        assert buffer.uniform(0.0, 3.5) == expected

    def test_exponential_is_inverse_transform(self):
        buffer = DrawBuffer(np.random.default_rng(11), 8)
        u = np.random.default_rng(11).random()
        assert buffer.exponential(2.0) == 2.0 * -np.log1p(-u)

    def test_integers_bounds_and_determinism(self):
        buffer = DrawBuffer(np.random.default_rng(5), 2)
        values = [buffer.integers(7) for _ in range(100)]
        assert all(0 <= v < 7 for v in values)
        assert buffer.integers(1) == 0
        ranged = DrawBuffer(np.random.default_rng(5), 2)
        assert [ranged.integers(10, 17) for _ in range(100)] == [
            10 + v for v in values
        ]

    def test_choice_weighted_matches_searchsorted(self):
        buffer = DrawBuffer(np.random.default_rng(9), 4)
        u = np.random.default_rng(9).random()
        cumulative = np.cumsum([0.1, 0.2, 0.7])
        expected = int(np.searchsorted(cumulative, cumulative[-1] * u, side="right"))
        assert buffer.choice(3, p=[0.1, 0.2, 0.7]) == expected

    def test_views_and_advance_track_scalar_positions(self):
        buffer = DrawBuffer(np.random.default_rng(1), 16)
        first = buffer.next()
        view = buffer.uniforms_view(4).copy()
        exp_view = buffer.exp_view(4).copy()
        assert np.array_equal(exp_view, -np.log1p(-view))
        buffer.advance(4)
        scalar = DrawBuffer(np.random.default_rng(1), 16)
        expected = [scalar.next() for _ in range(6)]
        assert [first, *view, buffer.next()] == expected

    def test_advance_past_block_rejected(self):
        buffer = DrawBuffer(np.random.default_rng(1), 4)
        buffer.next()
        with pytest.raises(ValueError, match="advance"):
            buffer.advance(4)

    def test_capture_restore_mid_block(self):
        buffer = DrawBuffer(np.random.default_rng(13), 8)
        for _ in range(3):
            buffer.next()
        state = pickle.loads(pickle.dumps(buffer.capture()))
        tail = [buffer.next() for _ in range(5)]
        clone = DrawBuffer(np.random.default_rng(13), 8)
        # Match the generator position (one block consumed), then restore.
        clone._refill()
        clone.restore(state)
        assert [clone.next() for _ in range(5)] == tail

    def test_block_size_validation(self):
        with pytest.raises(ValueError, match="block_size"):
            DrawBuffer(np.random.default_rng(0), 0)

    def test_default_block_size_env(self, monkeypatch):
        monkeypatch.setenv(BLOCK_SIZE_ENV, "17")
        assert default_block_size() == 17
        assert DrawBuffer(np.random.default_rng(0)).block_size == 17
        monkeypatch.setenv(BLOCK_SIZE_ENV, "0")
        with pytest.raises(ValueError, match=BLOCK_SIZE_ENV):
            default_block_size()
        monkeypatch.setenv(BLOCK_SIZE_ENV, "many")
        with pytest.raises(ValueError, match=BLOCK_SIZE_ENV):
            default_block_size()
        monkeypatch.delenv(BLOCK_SIZE_ENV)
        assert default_block_size() == 4096


class TestBlockSizeInvariance:
    """Block-boundary refills must be invisible in the trajectory."""

    @pytest.mark.parametrize("backend", ("object", "array"))
    def test_trajectories_identical_across_block_sizes(self, backend):
        results = {}
        for block_size in (1, 2, 3, 64, 4096):
            simulator = make_simulator(
                _params(), seed=29, backend=backend, draw_block_size=block_size
            )
            results[block_size] = simulator.run(
                8.0,
                initial_state=SystemState.one_club(4, 30),
                max_events=600,
            )
        reference = results[4096]
        for block_size, result in results.items():
            assert result.final_state == reference.final_state, block_size
            assert result.final_time == reference.final_time, block_size
            assert (
                result.metrics.population == reference.metrics.population
            ), block_size
            assert (
                result.metrics.wasted_contacts
                == reference.metrics.wasted_contacts
            ), block_size


class TestSnapshotMidBlock:
    """Checkpoint/restore mid-block continues bit-identically (ISSUE: block
    sizes 1, 2 and 4096)."""

    @pytest.mark.parametrize("block_size", BLOCK_SIZES)
    @pytest.mark.parametrize("backend", ("object", "array"))
    def test_restore_mid_block_continues_exactly(self, backend, block_size):
        kwargs = dict(seed=41, backend=backend, draw_block_size=block_size)
        initial = SystemState.one_club(4, 25)
        uninterrupted = make_simulator(_params(), **kwargs).run(
            9.0, initial_state=initial, max_events=500
        )
        first = make_simulator(_params(), **kwargs)
        segment = first.run(
            9.0,
            initial_state=initial,
            max_events=500,
            suspend_after_events=37,  # never a multiple of any block size
        )
        assert segment.suspended
        snapshot = pickle.loads(pickle.dumps(first.capture_state()))
        if block_size > 37:
            # The suspension really is mid-block: a remainder travels along.
            assert len(snapshot["draws"]["uniforms"]) > 0
        fresh = make_simulator(_params(), **kwargs)
        fresh.restore_state(snapshot)
        resumed = fresh.run(9.0, resume=True, max_events=500)
        assert resumed.final_state == uninterrupted.final_state
        assert resumed.final_time == uninterrupted.final_time
        assert resumed.metrics.population == uninterrupted.metrics.population
        assert (
            resumed.metrics.wasted_contacts
            == uninterrupted.metrics.wasted_contacts
        )

    @pytest.mark.parametrize("block_size", BLOCK_SIZES)
    def test_restore_into_other_block_size(self, block_size):
        """A snapshot replays its remainder, then refills at the restoring
        simulator's own block size — the trajectory must not care."""
        initial = SystemState.one_club(4, 25)
        donor = make_simulator(
            _params(), seed=43, backend="array", draw_block_size=block_size
        )
        donor.run(9.0, initial_state=initial, max_events=500, suspend_after_events=37)
        snapshot = donor.capture_state()
        reference = donor.run(9.0, resume=True, max_events=500)
        other = make_simulator(
            _params(), seed=43, backend="array", draw_block_size=512
        )
        other.restore_state(snapshot)
        resumed = other.run(9.0, resume=True, max_events=500)
        assert resumed.final_state == reference.final_state
        assert resumed.final_time == reference.final_time


class TestLegacySnapshotFormats:
    """Only the current snapshot, checkpoint and log formats load; formats
    earlier builds wrote are rejected with a pointed error."""

    @staticmethod
    def _small_fleet_spec():
        from repro.fleet import FixedSampler, FleetSpec

        return FleetSpec(
            name="legacy-formats",
            num_swarms=6,
            sampler=FixedSampler.of(
                num_pieces=4,
                arrival_rate=2.0,
                seed_rate=1.0,
                peer_rate=1.0,
                seed_departure_rate=2.0,
            ),
            horizon=6.0,
            max_events=120,
            backend="array",
            initial_club_size=10,
        )

    @pytest.mark.parametrize("backend", ("object", "array"))
    def test_format_1_snapshot_rejected(self, backend):
        """A pre-buffer snapshot: format 1, no ``draws`` entry."""
        simulator = make_simulator(_params(), seed=47, backend=backend)
        simulator.run(
            9.0,
            initial_state=SystemState.one_club(4, 25),
            max_events=500,
            suspend_after_events=37,
        )
        snapshot = simulator.capture_state()
        del snapshot["draws"]
        snapshot["format"] = 1
        fresh = make_simulator(_params(), seed=0, backend=backend)
        with pytest.raises(ValueError, match="format"):
            fresh.restore_state(snapshot)

    def test_unknown_format_still_rejected(self):
        simulator = make_simulator(_params(), seed=1)
        snapshot = simulator.capture_state()
        snapshot["format"] = 999
        with pytest.raises(ValueError, match="format"):
            simulator.restore_state(snapshot)

    def test_format_2_fleet_checkpoint_rejected(self, tmp_path):
        """A format-2 pickle: no ``log_segment`` field, ``format == 2``."""
        from repro.fleet import load_checkpoint
        from repro.fleet.checkpoint import FleetCheckpoint

        checkpoint = FleetCheckpoint(
            spec=self._small_fleet_spec(),
            seed=21,
            num_records=0,
            log_name="fleet.ckpt.jsonl",
            log_offset=0,
            format=2,
        )
        del checkpoint.__dict__["log_segment"]
        path = tmp_path / "fleet.ckpt"
        path.write_bytes(pickle.dumps(checkpoint))
        with pytest.raises(ValueError, match="format"):
            load_checkpoint(path)

    def _fleet_log_lines(self, tmp_path):
        from repro.fleet import run_fleet

        path = tmp_path / "fleet.jsonl"
        run_fleet(self._small_fleet_spec(), seed=21, log_path=path)
        return path, path.read_text().splitlines(keepends=True)

    def test_schema_1_log_header_rejected(self, tmp_path):
        """A schema-1 header: ``schema == 1`` and no checksum."""
        import json

        from repro.fleet import FleetLogError, read_log

        path, lines = self._fleet_log_lines(tmp_path)
        header = json.loads(lines[0])
        del header["crc"]
        header["schema"] = 1
        lines[0] = json.dumps(header, sort_keys=True) + "\n"
        path.write_text("".join(lines))
        with pytest.raises(FleetLogError, match="schema"):
            read_log(path)

    def test_record_without_crc_is_corrupt(self, tmp_path):
        """A schema-2 record line that lost its ``crc`` key fails strict
        reads and is skipped, not accepted, by salvage mode."""
        import json

        from repro.fleet import FleetLogError, read_log

        path, lines = self._fleet_log_lines(tmp_path)
        intact = read_log(path)
        record = json.loads(lines[2])
        del record["crc"]
        lines[2] = json.dumps(record, sort_keys=True) + "\n"
        path.write_text("".join(lines))
        with pytest.raises(FleetLogError, match="corrupt"):
            read_log(path)
        with pytest.warns(UserWarning, match="corrupt"):
            salvaged = read_log(path, strict=False)
        assert salvaged.salvaged == 1
        assert salvaged.records == intact.records[:1] + intact.records[2:]


class TestRestoreIntoUsedSimulator:
    @pytest.mark.parametrize("scenario_name", ("free-rider", "heterogeneous-classes"))
    def test_same_simulator_restore_matches_fresh(self, scenario_name):
        """Restoring a snapshot into a simulator that kept running after the
        capture must continue exactly like restoring into a fresh one — in
        particular the array kernel's cached per-class ticker arrays must
        not survive the restore (regression: stale ``_ticker_cache``)."""
        from repro.core.scenario import make_scenario

        scenario = make_scenario(scenario_name)
        kwargs = dict(seed=2, backend="array", scenario=scenario)
        simulator = make_simulator(scenario.params, **kwargs)
        segment = simulator.run(
            40.0,
            initial_state=SystemState.one_club(scenario.params.num_pieces, 40),
            max_events=2000,
            suspend_after_events=300,
        )
        assert segment.suspended
        snapshot = pickle.loads(pickle.dumps(simulator.capture_state()))
        # Keep running past the capture point, so the batch stage rebuilds
        # its caches against post-snapshot membership before the restore.
        simulator.run(40.0, resume=True, max_events=2000)
        fresh = make_simulator(scenario.params, **kwargs)
        fresh.restore_state(snapshot)
        fresh_result = fresh.run(40.0, resume=True, max_events=2000)
        simulator.restore_state(snapshot)
        # The cached per-class ticker arrays reflect continuation-end
        # membership, not the restored membership: restore must have
        # invalidated them (this is what guarantees the trajectory
        # equality below for *every* workload, not just this one).
        cache = simulator._ticker_cache
        assert cache is None or cache["version"] != simulator._membership_version
        reused_result = simulator.run(40.0, resume=True, max_events=2000)
        assert reused_result.final_state == fresh_result.final_state
        assert reused_result.final_time == fresh_result.final_time
        assert (
            reused_result.metrics.population == fresh_result.metrics.population
        )
