"""Adaptive fleet driver tests: acquisition, determinism, resume, acceptance.

The headline contracts (ISSUE 4):

* the driver is a pure function of ``(spec, seed)``: identical sampled-point
  trail and boundary estimate at ``workers=1`` and ``workers=4``;
* killing a tiny-budget adaptive run mid-round (with a mid-swarm kernel
  snapshot) and resuming from the JSONL log + snapshot reproduces the exact
  uninterrupted boundary estimate — the CI smoke step (``-k smoke``);
* with a budget equal to the uniform grid's swarm count, the adaptive run
  achieves a *tighter* boundary (lower mean Beta-posterior variance in
  boundary cells) than ``run_fleet_phase_diagram`` on the same seed.
"""

import numpy as np
import pytest

from repro.experiments.fleet import (
    run_adaptive_phase_diagram,
    run_fleet_phase_diagram,
)
from repro.fleet import (
    AdaptiveFleetDriver,
    AdaptiveFleetSpec,
    CaptureGrid,
    CellKey,
    FleetResult,
    FleetScheduler,
    FleetSpec,
    RandomSampler,
    ScenarioWeight,
    load_checkpoint,
    resume_adaptive_fleet,
    run_adaptive_fleet,
    run_fleet,
)
from repro.fleet.adaptive import _allocate, _replay_state


def tiny_spec(**overrides) -> AdaptiveFleetSpec:
    defaults = dict(
        name="tiny-adaptive",
        arrival_rates=(0.8, 1.6, 2.4),
        seed_rates=(0.5,),
        scenario_mix=(
            ScenarioWeight.of(None, weight=2.0),
            ScenarioWeight.of("free-rider", weight=1.0, leech_fraction=0.6),
        ),
        num_pieces=5,
        swarm_budget=18,
        round_size=6,
        horizon=6.0,
        max_events=150,
        initial_club_size=10,
        backend="array",
    )
    defaults.update(overrides)
    return AdaptiveFleetSpec(**defaults)


def fixed_spec(**overrides) -> FleetSpec:
    defaults = dict(
        name="fixed",
        num_swarms=4,
        sampler=RandomSampler.of({"arrival_rate": (0.8, 2.0)}, num_pieces=5),
        horizon=4.0,
        max_events=100,
    )
    defaults.update(overrides)
    return FleetSpec(**defaults)


#: Per driver: (spec factory, run entry point, driver class).
DRIVERS = {
    "fixed": (fixed_spec, run_fleet, FleetScheduler),
    "adaptive": (tiny_spec, run_adaptive_fleet, AdaptiveFleetDriver),
}


class TestSpec:
    def test_candidate_set_is_strata_times_grid(self):
        spec = tiny_spec()
        assert spec.grid_shape == (2, 3, 1)
        assert len(spec.cells) == 6
        assert spec.cells[0] == CellKey(0, 0, 0)
        lam, us, label = spec.cell_point(CellKey(1, 2, 0))
        assert (lam, us, label) == (2.4, 0.5, "free-rider")

    def test_empty_mix_is_one_plain_stratum(self):
        spec = tiny_spec(scenario_mix=())
        assert [entry.label for entry in spec.strata] == ["plain"]
        assert spec.grid_shape[0] == 1

    def test_validation(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            tiny_spec(arrival_rates=(1.0, 1.0))
        with pytest.raises(ValueError, match="swarm_budget"):
            tiny_spec(swarm_budget=0)
        with pytest.raises(ValueError, match="round_size"):
            tiny_spec(round_size=0)
        with pytest.raises(ValueError, match="boundary_band"):
            tiny_spec(boundary_band=(0.9, 0.2))
        with pytest.raises(ValueError, match="variance_tol"):
            tiny_spec(variance_tol=0.0)


class TestAllocation:
    def test_flat_scores_round_robin(self):
        order = _allocate(np.ones(4), 8)
        assert order == (0, 1, 2, 3, 0, 1, 2, 3)

    def test_high_scores_win_proportionally(self):
        order = _allocate(np.array([4.0, 1.0, 1.0]), 6)
        assert order.count(0) == 4
        assert order.count(1) == 1 and order.count(2) == 1

    def test_deterministic(self):
        scores = np.array([0.3, 0.1, 0.7, 0.7])
        assert _allocate(scores, 11) == _allocate(scores.copy(), 11)


class TestDeterminism:
    def test_workers_1_vs_4_identical_trail_and_boundary(self):
        """ISSUE acceptance: same (spec, seed) ⇒ identical sampled-point
        trail and boundary estimate at workers=1 and workers=4."""
        spec = tiny_spec(swarm_budget=24, round_size=8)
        serial = run_adaptive_fleet(spec, seed=42, workers=1)
        pooled = run_adaptive_fleet(spec, seed=42, workers=4, chunk_size=2)
        assert serial.trail() == pooled.trail()
        assert serial.boundary_estimate() == pooled.boundary_estimate()
        assert serial.fingerprint() == pooled.fingerprint()
        assert serial.fleet == pooled.fleet

    def test_seed_changes_trail(self):
        spec = tiny_spec()
        a = run_adaptive_fleet(spec, seed=1, workers=1)
        b = run_adaptive_fleet(spec, seed=2, workers=1)
        assert a.fleet.records != b.fleet.records

    def test_assignments_pair_records(self):
        spec = tiny_spec()
        result = run_adaptive_fleet(spec, seed=7, workers=1)
        assert len(result.cell_assignments) == len(result.fleet.records)
        # Every record's (λ, U_s) matches its assigned cell.
        for cell, record in zip(result.cell_assignments, result.fleet.records):
            lam, us, label = spec.cell_point(cell)
            assert record.scenario == label
            assert record.seed_rate == us

    def test_replay_state_reconstructs_rounds(self):
        spec = tiny_spec()
        result = run_adaptive_fleet(spec, seed=7, workers=1)
        state, pending = _replay_state(spec, result.fleet.records)
        assert pending is None
        assert tuple(state.trail) == result.rounds
        assert state.stopped is None  # stop fires on the *next* next_round()
        assert state.next_round() is None
        assert state.stopped == result.stopped


class TestStoppingRule:
    def test_budget_stop_consumes_budget_exactly(self):
        spec = tiny_spec(swarm_budget=10, round_size=4)
        result = run_adaptive_fleet(spec, seed=3, workers=1)
        assert result.stopped == "swarm-budget"
        assert len(result.fleet.records) == 10  # 4 + 4 + truncated 2
        assert [len(r.cells) for r in result.rounds] == [4, 4, 2]

    def test_event_budget_stops_between_rounds(self):
        spec = tiny_spec(swarm_budget=1000, event_budget=400, round_size=4)
        result = run_adaptive_fleet(spec, seed=3, workers=1)
        assert result.stopped == "event-budget"
        events_before_last = sum(
            record.events for record in result.fleet.records[: -len(result.rounds[-1].cells)]
        )
        assert events_before_last < 400 <= result.fleet.total_events

    def test_boundary_stable_stop(self):
        """A loose tolerance stops the run before the budget is spent."""
        spec = tiny_spec(
            swarm_budget=200,
            round_size=6,
            variance_tol=0.05,
            min_rounds=1,
            patience=2,
        )
        result = run_adaptive_fleet(spec, seed=5, workers=1)
        assert result.stopped == "boundary-stable"
        assert len(result.fleet.records) < 200
        # The last `patience` rounds had a stable boundary under tolerance.
        tail = result.rounds[-spec.patience :]
        assert all(r.mean_boundary_variance <= 0.05 for r in tail)


class TestResume:
    @pytest.mark.parametrize("workers", [2])
    def test_smoke_kill_midround_resume_equality(self, tmp_path, workers):
        """CI adaptive smoke: tiny-budget driver over 2 workers, killed
        mid-round (with a mid-swarm kernel snapshot), resumed from the
        JSONL log + snapshot; the resumed boundary estimate must equal the
        uninterrupted one."""
        spec = tiny_spec(swarm_budget=18, round_size=6)
        uninterrupted = run_adaptive_fleet(spec, seed=31, workers=workers)
        path = tmp_path / "adaptive.ckpt"
        partial = run_adaptive_fleet(
            spec,
            seed=31,
            workers=workers,
            checkpoint_path=path,
            stop_after_swarms=8,  # mid-round: 6 + 2
            suspend_after_events=40,
        )
        assert not partial.complete
        checkpoint = load_checkpoint(path)
        assert checkpoint.in_flight is not None or len(partial.fleet.records) > 8
        resumed = resume_adaptive_fleet(path, workers=workers)
        assert resumed.complete
        assert resumed.boundary_estimate() == uninterrupted.boundary_estimate()
        assert resumed.trail() == uninterrupted.trail()
        assert resumed.fingerprint() == uninterrupted.fingerprint()
        assert resumed.fleet == uninterrupted.fleet
        # The log now carries every swarm of the completed run.
        census = FleetResult.from_log(checkpoint.log_path(path))
        assert census == resumed.fleet

    def test_kill_at_round_boundary_resumes(self, tmp_path):
        """A kill landing exactly on a round boundary (the suspended swarm
        is the first of a freshly allocated round) resumes identically."""
        spec = tiny_spec(swarm_budget=18, round_size=6)
        uninterrupted = run_adaptive_fleet(spec, seed=8, workers=1)
        path = tmp_path / "adaptive.ckpt"
        run_adaptive_fleet(
            spec,
            seed=8,
            workers=1,
            checkpoint_path=path,
            stop_after_swarms=6,
            suspend_after_events=40,
        )
        resumed = resume_adaptive_fleet(path, workers=1)
        assert resumed.fingerprint() == uninterrupted.fingerprint()

    def test_kill_without_suspension_resumes(self, tmp_path):
        spec = tiny_spec()
        uninterrupted = run_adaptive_fleet(spec, seed=12, workers=1)
        path = tmp_path / "adaptive.ckpt"
        run_adaptive_fleet(
            spec, seed=12, workers=1, checkpoint_path=path, stop_after_swarms=7
        )
        resumed = resume_adaptive_fleet(path, workers=1)
        assert resumed.fingerprint() == uninterrupted.fingerprint()

    @pytest.mark.parametrize(
        "written, resumed, match",
        [
            ("fixed", "adaptive", "adaptive"),
            (
                "adaptive",
                "fixed",
                "spec type AdaptiveFleetSpec, which FleetScheduler cannot run",
            ),
        ],
        ids=["fixed", "adaptive"],
    )
    def test_resume_rejects_the_other_fleet_type(
        self, tmp_path, written, resumed, match
    ):
        """Each driver refuses the other's checkpoint with a ValueError."""
        make_spec, run, _ = DRIVERS[written]
        path = tmp_path / "fleet.ckpt"
        run(make_spec(), seed=0, workers=1, checkpoint_path=path, stop_after_swarms=2)
        with pytest.raises(ValueError, match=match):
            DRIVERS[resumed][2].from_checkpoint(path)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(stop_after_swarms=2), "checkpoint"),
            (dict(suspend_after_events=10), "requires stop_after_swarms"),
        ],
        ids=["stop", "suspend"],
    )
    @pytest.mark.parametrize("driver", ["fixed", "adaptive"])
    def test_stop_requires_checkpoint_path(self, driver, kwargs, match):
        make_spec, run, _ = DRIVERS[driver]
        with pytest.raises(ValueError, match=match):
            run(make_spec(), seed=0, **kwargs)


@pytest.fixture
def persistence_trace(monkeypatch):
    """Record every log append (``A<records>``) and checkpoint write
    (``C<records>``, ``*`` when it carries an in-flight snapshot), in order."""
    from repro.fleet import scheduler
    from repro.fleet.persistence import FleetLogWriter

    trace = []
    append, save = FleetLogWriter.append, scheduler.save_checkpoint

    def traced_append(writer, records):
        trace.append(f"A{len(records)}")
        return append(writer, records)

    def traced_save(path, checkpoint, **kwargs):
        flag = "*" if checkpoint.in_flight is not None else ""
        trace.append(f"C{checkpoint.num_records}{flag}")
        return save(path, checkpoint, **kwargs)

    monkeypatch.setattr(FleetLogWriter, "append", traced_append)
    monkeypatch.setattr(scheduler, "save_checkpoint", traced_save)
    return trace


class TestPersistenceSequence:
    """Both drivers' log appends and checkpoint writes, in order, across a
    mid-round kill with a mid-swarm snapshot and its resume.  Fault plans
    key on checkpoint-write ordinals, so this sequence is part of the
    contract."""

    @pytest.mark.parametrize(
        "driver, spec_overrides, stop, expected_run, expected_resume",
        [
            (
                "fixed",
                dict(num_swarms=6, initial_club_size=10, max_events=200),
                3,
                "C0 A2 C2 A1 C3 C3*",
                "A1 C4 A2 C6 C6",
            ),
            (
                "adaptive",
                dict(swarm_budget=12, round_size=6),
                8,
                "C0 A2 C2 A2 C4 A2 C6 C6 A2 C8 C8*",
                "A1 C9 A2 C11 A1 C12 C12 C12",
            ),
        ],
        ids=["fixed", "adaptive"],
    )
    def test_kill_and_resume_sequence(
        self,
        tmp_path,
        persistence_trace,
        driver,
        spec_overrides,
        stop,
        expected_run,
        expected_resume,
    ):
        make_spec, run, driver_class = DRIVERS[driver]
        path = tmp_path / "fleet.ckpt"
        run(
            make_spec(**spec_overrides),
            seed=3,
            workers=1,
            chunk_size=2,
            checkpoint_path=path,
            stop_after_swarms=stop,
            suspend_after_events=5,
        )
        assert " ".join(persistence_trace) == expected_run
        persistence_trace.clear()
        driver_class.from_checkpoint(path, workers=1, chunk_size=2).resume()
        assert " ".join(persistence_trace) == expected_resume


class TestAcceptanceVsUniformGrid:
    ARRIVALS = (0.4, 1.0, 1.6, 2.2)
    SEEDS = (0.8, 1.6)
    PER_CELL = 8

    def test_adaptive_tighter_than_uniform_at_equal_budget(self):
        """ISSUE acceptance: with a budget matching the uniform grid's swarm
        count, the adaptive driver yields a lower mean Beta-posterior
        variance in boundary cells than the uniform phase diagram on the
        same seed."""
        budget = len(self.ARRIVALS) * len(self.SEEDS) * self.PER_CELL
        uniform = run_fleet_phase_diagram(
            arrival_rates=self.ARRIVALS,
            seed_rates=self.SEEDS,
            swarms_per_cell=self.PER_CELL,
            scenario_mix=None,
            horizon=40.0,
            max_events=4_000,
            initial_club_size=20,
            workers=1,
            seed=16,
        )
        uniform_grid = CaptureGrid.from_records(
            uniform.fleet.records, self.ARRIVALS, self.SEEDS
        )
        adaptive = run_adaptive_phase_diagram(
            arrival_rates=self.ARRIVALS,
            seed_rates=self.SEEDS,
            swarm_budget=budget,
            round_size=8,
            boundary_boost=8.0,
            scenario_mix=None,
            horizon=40.0,
            max_events=4_000,
            initial_club_size=20,
            workers=1,
            seed=16,
        )
        assert len(adaptive.fleet.records) == budget  # equal spend
        # Adaptive shifts replications toward its boundary cells ...
        boundary = adaptive.grid.boundary_cells()
        adaptive_trials = sum(int(adaptive.grid.trials[c]) for c in boundary)
        uniform_trials = sum(int(uniform_grid.trials[c]) for c in boundary)
        assert adaptive_trials > uniform_trials
        # ... and its boundary posterior is tighter than the uniform one.
        assert (
            adaptive.mean_boundary_variance()
            < uniform_grid.mean_boundary_variance()
        )

    def test_report_renders(self):
        result = run_adaptive_fleet(tiny_spec(), seed=4, workers=1)
        report = result.report()
        assert "Posterior capture probability" in report
        assert "Estimated capture-onset boundary" in report
        assert "Acquisition trail" in report
        assert "one-club prevalence" in report
