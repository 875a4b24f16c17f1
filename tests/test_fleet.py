"""Fleet subsystem tests: samplers, determinism, sharding, checkpoint/resume.

The headline contracts:

* task materialization is a pure function of ``(spec, seed)``;
* the fleet outcome is identical at any worker count and chunking;
* killing a fleet (at a swarm boundary or mid-swarm, via the kernel
  snapshot) and resuming from the checkpoint — since PR 4 an offset into
  the streaming JSONL fleet log plus the snapshot, see
  ``tests/test_fleet_persistence.py`` for the log layer itself —
  reproduces the *exact* ``FleetResult`` of an uninterrupted run — the
  acceptance criterion, at ``workers=1`` and ``workers=4`` on a 200-swarm
  mixed-scenario fleet.
"""

import numpy as np
import pytest

from repro.experiments.fleet import run_fleet_phase_diagram
from repro.fleet import (
    FixedSampler,
    FleetResult,
    FleetScheduler,
    FleetSpec,
    GridSampler,
    RandomSampler,
    ScenarioWeight,
    load_checkpoint,
    materialize_tasks,
    resume_fleet,
    run_fleet,
)

MIXED = (
    ScenarioWeight.of(None, weight=2.0),
    ScenarioWeight.of("flash-crowd", weight=1.0, surge_start=1.0, surge_end=4.0),
    ScenarioWeight.of("free-rider", weight=1.0, leech_fraction=0.7),
)


def small_spec(num_swarms=16, **overrides) -> FleetSpec:
    defaults = dict(
        name="test-fleet",
        num_swarms=num_swarms,
        sampler=RandomSampler.of({"arrival_rate": (0.8, 3.0)}, num_pieces=5),
        scenario_mix=MIXED,
        horizon=6.0,
        max_events=200,
        backend="array",
        initial_club_size=10,
    )
    defaults.update(overrides)
    return FleetSpec(**defaults)


class TestSamplers:
    def test_fixed_sampler_constant(self):
        sampler = FixedSampler.of(arrival_rate=2.5, seed_rate=0.5)
        rng = np.random.default_rng(0)
        assert sampler.draw(0, rng) == sampler.draw(7, rng)
        assert sampler.draw(3, rng) == {"arrival_rate": 2.5, "seed_rate": 0.5}

    def test_fixed_sampler_rejects_unknown_field(self):
        with pytest.raises(ValueError, match="unknown parameter field"):
            FixedSampler.of(bogus=1.0)

    def test_grid_sampler_cycles_cells(self):
        sampler = GridSampler.of(
            {"arrival_rate": (1.0, 2.0), "seed_rate": (0.5, 1.5, 2.5)},
            num_pieces=4,
        )
        assert sampler.grid_size == 6
        rng = np.random.default_rng(0)
        cells = [tuple(sorted(sampler.cell(i).items())) for i in range(6)]
        assert len(set(cells)) == 6  # all cells distinct
        assert sampler.cell(0) == sampler.cell(6)  # cycles
        draw = sampler.draw(0, rng)
        assert draw["num_pieces"] == 4  # base merged in

    def test_grid_sampler_row_major_order(self):
        sampler = GridSampler.of(
            {"arrival_rate": (1.0, 2.0), "seed_rate": (0.5, 1.5)}
        )
        assert sampler.cell(0) == {"arrival_rate": 1.0, "seed_rate": 0.5}
        assert sampler.cell(1) == {"arrival_rate": 1.0, "seed_rate": 1.5}
        assert sampler.cell(2) == {"arrival_rate": 2.0, "seed_rate": 0.5}

    def test_random_sampler_deterministic_per_stream(self):
        sampler = RandomSampler.of({"arrival_rate": (1.0, 3.0)})
        a = sampler.draw(0, np.random.default_rng(42))
        b = sampler.draw(0, np.random.default_rng(42))
        assert a == b
        assert 1.0 <= a["arrival_rate"] <= 3.0

    def test_random_sampler_rejects_num_pieces(self):
        with pytest.raises(ValueError, match="num_pieces"):
            RandomSampler.of({"num_pieces": (3, 6)})


class TestMaterialization:
    def test_tasks_are_deterministic(self):
        spec = small_spec()
        first = materialize_tasks(spec, 42)
        second = materialize_tasks(spec, 42)
        assert [t.params for t in first] == [t.params for t in second]
        assert [t.scenario_label for t in first] == [
            t.scenario_label for t in second
        ]
        for a, b in zip(first, second):
            assert a.seed.entropy == b.seed.entropy
            assert a.seed.spawn_key == b.seed.spawn_key

    def test_different_seeds_differ(self):
        spec = small_spec()
        first = materialize_tasks(spec, 1)
        second = materialize_tasks(spec, 2)
        assert [t.params for t in first] != [t.params for t in second]

    def test_mix_produces_all_labels(self):
        labels = {t.scenario_label for t in materialize_tasks(small_spec(32), 0)}
        assert labels == {"plain", "flash-crowd", "free-rider"}

    def test_empty_mix_is_plain(self):
        spec = small_spec(scenario_mix=())
        tasks = materialize_tasks(spec, 0)
        assert all(t.scenario is None for t in tasks)
        assert all(t.scenario_label == "plain" for t in tasks)

    def test_plain_mix_entry_applies_overrides(self):
        """ScenarioWeight(None, ...) overrides reach base_params too."""
        spec = small_spec(
            sampler=FixedSampler.of(num_pieces=5),
            scenario_mix=(ScenarioWeight.of(None, seed_rate=5.0),),
        )
        tasks = materialize_tasks(spec, 0)
        assert all(t.params.seed_rate == 5.0 for t in tasks)
        # Sampler draws win over mix overrides on conflicts.
        spec = small_spec(
            sampler=FixedSampler.of(num_pieces=5, seed_rate=2.0),
            scenario_mix=(ScenarioWeight.of(None, seed_rate=5.0),),
        )
        assert materialize_tasks(spec, 0)[0].params.seed_rate == 2.0

    def test_seed_sequence_master_seed_is_not_mutated(self):
        """Materializing twice from the same SeedSequence yields the same
        fleet (the caller's object must not be spawned from directly)."""
        spec = small_spec(num_swarms=6)
        root = np.random.SeedSequence(42)
        first = materialize_tasks(spec, root)
        second = materialize_tasks(spec, root)
        assert [t.params for t in first] == [t.params for t in second]
        assert [t.seed.spawn_key for t in first] == [
            t.seed.spawn_key for t in second
        ]
        assert root.n_children_spawned == 0

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="num_swarms"):
            small_spec(num_swarms=0)
        with pytest.raises(ValueError, match="backend"):
            small_spec(backend="gpu")
        with pytest.raises(ValueError, match="weight"):
            ScenarioWeight.of("flash-crowd", weight=0.0)


class TestFleetExecution:
    def test_result_streams_in_order(self):
        spec = small_spec(num_swarms=6)
        result = run_fleet(spec, seed=3, workers=1)
        assert result.complete
        assert [r.index for r in result.records] == list(range(6))
        assert result.total_events == sum(r.events for r in result.records)
        assert 0.0 <= result.prevalence() <= 1.0
        assert sum(result.confusion.values()) == 6
        assert sum(c.swarms for c in result.per_scenario.values()) == 6

    def test_worker_count_invariance(self):
        spec = small_spec(num_swarms=12)
        serial = run_fleet(spec, seed=9, workers=1)
        pooled = run_fleet(spec, seed=9, workers=3, chunk_size=2)
        assert serial == pooled
        assert serial.fingerprint() == pooled.fingerprint()

    def test_object_backend_matches_array(self):
        spec_a = small_spec(num_swarms=6)
        spec_o = small_spec(num_swarms=6, backend="object")
        a = run_fleet(spec_a, seed=4, workers=1)
        o = run_fleet(spec_o, seed=4, workers=1)
        # Identical trajectories, record for record (backend equivalence
        # lifted to fleet level).
        assert [r.key() for r in a.records] == [r.key() for r in o.records]

    def test_report_renders(self):
        result = run_fleet(small_spec(num_swarms=8), seed=5, workers=1)
        report = result.report()
        assert "one-club prevalence" in report
        assert "free-rider" in report or "plain" in report
        assert "Theorem-1 verdict vs. empirical outcome" in report

    def test_records_enforce_order(self):
        result = FleetResult(spec_name="x", num_swarms=2)
        good = run_fleet(small_spec(num_swarms=2), seed=0, workers=1).records
        with pytest.raises(ValueError, match="index order"):
            result.add(good[1])


class TestCheckpointResume:
    def test_mid_swarm_suspension_lands_in_checkpoint(self, tmp_path):
        spec = small_spec(num_swarms=8)
        path = tmp_path / "fleet.ckpt"
        partial = run_fleet(
            spec,
            seed=21,
            workers=1,
            checkpoint_path=path,
            stop_after_swarms=3,
            suspend_after_events=40,
        )
        assert not partial.complete
        assert len(partial.records) == 3
        checkpoint = load_checkpoint(path)
        assert checkpoint.next_index == 3
        assert checkpoint.in_flight is not None
        index, snapshot = checkpoint.in_flight
        assert index == 3
        assert snapshot["run"]["active"]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_smoke_checkpoint_resume_equality(self, tmp_path, workers):
        """CI fleet smoke: kill a 2-worker mixed fleet mid-run (mid-swarm),
        resume from the checkpoint, and demand exact aggregate equality."""
        spec = small_spec(num_swarms=14)
        uninterrupted = run_fleet(spec, seed=31, workers=workers)
        path = tmp_path / "fleet.ckpt"
        run_fleet(
            spec,
            seed=31,
            workers=workers,
            checkpoint_path=path,
            stop_after_swarms=5,
            suspend_after_events=30,
        )
        resumed = resume_fleet(path, workers=workers)
        assert resumed.complete
        assert resumed == uninterrupted
        assert resumed.fingerprint() == uninterrupted.fingerprint()

    @pytest.mark.parametrize(
        "master_seed",
        [
            np.random.SeedSequence(42),
            None,
            "generator",
        ],
        ids=["seed-sequence", "none", "generator"],
    )
    def test_non_int_master_seeds_resume_exactly(self, tmp_path, master_seed):
        """SeedSequence / None / Generator master seeds are normalized to a
        pure token up front, so kill+resume still reproduces the exact
        uninterrupted FleetResult (regression: spawning from the caller's
        SeedSequence used to shift every post-resume swarm)."""
        if master_seed == "generator":
            master_seed = np.random.default_rng(3)
        spec = small_spec(num_swarms=8)
        path = tmp_path / "fleet.ckpt"
        partial = run_fleet(
            spec,
            seed=master_seed,
            workers=1,
            checkpoint_path=path,
            stop_after_swarms=3,
            suspend_after_events=30,
        )
        assert len(partial.records) == 3
        resumed = resume_fleet(path, workers=1)
        # Replaying the checkpoint's normalized token reproduces the fleet.
        token = load_checkpoint(path).seed
        replay = run_fleet(spec, seed=token, workers=1)
        assert resumed == replay

    def test_resume_rejects_mismatched_spec(self, tmp_path):
        path = tmp_path / "fleet.ckpt"
        run_fleet(
            small_spec(num_swarms=4),
            seed=0,
            workers=1,
            checkpoint_path=path,
            stop_after_swarms=2,
        )
        other = FleetScheduler(small_spec(num_swarms=5), workers=1)
        with pytest.raises(ValueError, match="spec"):
            other.resume(path)

    def test_acceptance_200_swarms_mixed_resume_at_1_and_4_workers(self, tmp_path):
        """ISSUE acceptance: a 200-swarm mixed-scenario fleet on the array
        backend, killed and resumed from a checkpoint, reproduces the exact
        FleetResult of an uninterrupted run at workers=1 and workers=4."""
        spec = small_spec(
            num_swarms=200,
            horizon=4.0,
            max_events=120,
            initial_club_size=8,
        )
        uninterrupted = run_fleet(spec, seed=77, workers=1)
        assert uninterrupted.complete and len(uninterrupted.records) == 200
        for workers in (1, 4):
            path = tmp_path / f"fleet-w{workers}.ckpt"
            partial = run_fleet(
                spec,
                seed=77,
                workers=workers,
                checkpoint_path=path,
                stop_after_swarms=83,
                suspend_after_events=50,
            )
            assert not partial.complete
            resumed = resume_fleet(path, workers=workers)
            assert resumed == uninterrupted, f"workers={workers}"


class TestPhaseDiagram:
    def test_phase_diagram_grid(self):
        diagram = run_fleet_phase_diagram(
            arrival_rates=(0.8, 4.0),
            seed_rates=(0.5,),
            swarms_per_cell=2,
            horizon=20.0,
            max_events=2000,
            workers=1,
            seed=13,
        )
        assert len(diagram.cells) == 2
        for cell in diagram.cells.values():
            assert cell.swarms == 2
            assert 0.0 <= cell.captured_fraction <= 1.0
        assert diagram.cell(0.8, 0.5).theory == "stable"
        assert diagram.cell(4.0, 0.5).theory == "unstable"
        report = diagram.report()
        assert "Us \\ lambda" in report
        assert "Per-scenario capture census" in report
        assert diagram.fleet.complete
