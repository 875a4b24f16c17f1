"""Stacked mega-kernel tests: bit-identity, fleet fingerprints, resume.

The headline contract of :class:`repro.swarm.stacked.StackedSwarmKernel`:
every lane's trajectory — metrics stream, sample grid, final state,
snapshots — is **bit-identical** to a solo :class:`ArraySwarmKernel` run on
the same seed, for every scenario shape the solo kernel supports.  On top
of that, the fleet layer's ``stacked=True`` path must reproduce the exact
per-swarm :class:`FleetResult` fingerprint at any worker count, through
kill + resume, and even when a run suspended by one path is resumed by the
other (snapshots are the ordinary per-swarm format-2 payloads).
"""

import numpy as np
import pytest

from repro.core.parameters import SystemParameters
from repro.core.scenario import make_scenario
from repro.core.state import SystemState
from repro.core.types import PieceSet
from repro.fleet import (
    FixedSampler,
    FleetScheduler,
    FleetSpec,
    RandomSampler,
    ScenarioWeight,
    resume_fleet,
    run_fleet,
)
from repro.swarm import ArraySwarmKernel, StackedSwarmKernel

HORIZON = 4.0
INTERVAL = 0.2


def mk_params(lam=6.0, num_pieces=10):
    return SystemParameters(
        num_pieces=num_pieces,
        seed_rate=1.0,
        peer_rate=1.0,
        seed_departure_rate=0.5,
        arrival_rates={PieceSet.empty(num_pieces): lam},
    )


def mk_scenario(kind, **overrides):
    kwargs = dict(
        num_pieces=10,
        arrival_rate=6.0,
        seed_rate=1.0,
        peer_rate=1.0,
        seed_departure_rate=0.5,
    )
    kwargs.update(overrides)
    return make_scenario(kind, **kwargs)


def lane_specs():
    """(params, scenario, seed) triples covering every solo scenario shape."""
    plain = mk_params()
    flash = mk_scenario("flash-crowd", surge_start=1.0, surge_end=3.0)
    rider = mk_scenario("free-rider", leech_fraction=0.5)
    hetero = mk_scenario("heterogeneous-classes")
    outage = mk_scenario("seed-outage", outage_start=1.0, outage_end=2.0)
    return [
        (plain, None, 101),
        (flash.params, flash, 202),
        (rider.params, rider, 303),
        (hetero.params, hetero, 404),
        (outage.params, outage, 505),
        (plain, None, 606),
    ]


def metrics_tuple(metrics):
    return (
        tuple(metrics.sample_times),
        tuple(metrics.population),
        tuple(metrics.num_seeds),
        tuple(metrics.one_club_size),
        tuple(metrics.min_piece_count),
        metrics.wasted_contacts,
        metrics.thinned_events,
        tuple(metrics.sojourn_times),
        tuple(metrics.download_times),
    )


def result_tuple(result):
    return (
        metrics_tuple(result.metrics),
        result.final_time,
        result.final_population,
        result.horizon_reached,
        result.suspended,
        result.events_executed,
        tuple(
            sorted((str(k), v) for k, v in result.final_state._counts.items())
        ),
    )


def solo_results(specs, init, **run_kwargs):
    results = []
    for params, scenario, seed in specs:
        kernel = ArraySwarmKernel(
            params, scenario=scenario, seed=np.random.default_rng(seed)
        )
        results.append(
            kernel.run(
                HORIZON,
                initial_state=init,
                sample_interval=INTERVAL,
                **run_kwargs,
            )
        )
    return results


def stacked_results(specs, init, **run_kwargs):
    stack = StackedSwarmKernel()
    for params, scenario, seed in specs:
        stack.add_lane(params, seed=np.random.default_rng(seed), scenario=scenario)
    return stack, stack.run_all(
        HORIZON,
        initial_states=[init] * len(specs),
        sample_interval=INTERVAL,
        **run_kwargs,
    )


class TestLaneBitIdentity:
    def test_mixed_lanes_match_solo_runs(self):
        """Plain / flash-crowd / free-rider / hetero-classes / seed-outage
        lanes all reproduce their solo trajectories bit for bit."""
        specs = lane_specs()
        init = SystemState.one_club(10, 200)
        solos = solo_results(specs, init)
        _, stacked = stacked_results(specs, init)
        for index, (solo, lane) in enumerate(zip(solos, stacked)):
            assert result_tuple(solo) == result_tuple(lane), f"lane {index}"

    def test_event_cap_matches_solo(self):
        specs = lane_specs()[:3]
        init = SystemState.one_club(10, 500)
        solos = solo_results(specs, init, max_events=250)
        _, stacked = stacked_results(specs, init, max_events=250)
        for solo, lane in zip(solos, stacked):
            assert result_tuple(solo) == result_tuple(lane)
            assert lane.events_executed == 250

    def test_suspend_capture_resume_in_new_stack(self):
        """Suspend every lane mid-run, snapshot, restore into a *new* stack;
        the continued trajectories equal uninterrupted solo resumes."""
        specs = lane_specs()[:3]
        init = SystemState.one_club(10, 200)
        solo_resumed = []
        for params, scenario, seed in specs:
            kernel = ArraySwarmKernel(
                params, scenario=scenario, seed=np.random.default_rng(seed)
            )
            first = kernel.run(
                HORIZON,
                initial_state=init,
                sample_interval=INTERVAL,
                suspend_after_events=150,
            )
            assert first.suspended
            solo_resumed.append(kernel.run(HORIZON, resume=True))
        stack, mid = stacked_results(specs, init, suspend_after_events=150)
        assert all(result.suspended for result in mid)
        snapshots = [stack.lane(i).capture_state() for i in range(len(specs))]
        stack2 = StackedSwarmKernel()
        for (params, scenario, seed), snapshot in zip(specs, snapshots):
            stack2.add_lane(
                params,
                seed=np.random.default_rng(seed),
                scenario=scenario,
                snapshot=snapshot,
            )
        resumed = stack2.run_all(HORIZON, sample_interval=INTERVAL)
        for solo, lane in zip(solo_resumed, resumed):
            assert result_tuple(solo) == result_tuple(lane)

    def test_solo_snapshot_restores_into_stacked_lane(self):
        """Snapshots interoperate: a solo-suspended swarm resumed inside a
        stack equals the solo resume (and vice versa is covered above)."""
        params = mk_params()
        init = SystemState.one_club(10, 200)
        kernel = ArraySwarmKernel(params, seed=np.random.default_rng(77))
        first = kernel.run(
            HORIZON,
            initial_state=init,
            sample_interval=INTERVAL,
            suspend_after_events=100,
        )
        assert first.suspended
        snapshot = kernel.capture_state()
        stack = StackedSwarmKernel()
        stack.add_lane(
            params, seed=np.random.default_rng(77), snapshot=snapshot
        )
        stacked = stack.run_all(HORIZON, sample_interval=INTERVAL)
        solo = ArraySwarmKernel(params, seed=np.random.default_rng(77))
        solo.restore_state(snapshot)
        resumed = solo.run(HORIZON, resume=True)
        assert result_tuple(resumed) == result_tuple(stacked[0])

    def test_resume_without_interval_keeps_the_suspended_grid(self):
        """A restored lane resumed with ``sample_interval`` omitted records
        on the suspended run's grid, as the solo ``run(resume=True)`` does,
        not on a fresh ``horizon / 200`` one."""
        params = mk_params()
        init = SystemState.one_club(10, 200)
        kernel = ArraySwarmKernel(params, seed=np.random.default_rng(77))
        kernel.run(
            HORIZON,
            initial_state=init,
            sample_interval=INTERVAL,
            suspend_after_events=100,
        )
        stack = StackedSwarmKernel()
        stack.add_lane(
            params, seed=np.random.default_rng(77), snapshot=kernel.capture_state()
        )
        (stacked,) = stack.run_all(HORIZON)
        uninterrupted = ArraySwarmKernel(
            params, seed=np.random.default_rng(77)
        ).run(HORIZON, initial_state=init, sample_interval=INTERVAL)
        assert result_tuple(stacked) == result_tuple(uninterrupted)

    def test_initial_state_for_a_restored_lane_is_rejected(self):
        """Like the solo ``run(initial_state=..., resume=True)``, an
        ``initial_states`` entry for a lane that resumes is an error."""
        params = mk_params()
        init = SystemState.one_club(10, 200)
        kernel = ArraySwarmKernel(params, seed=np.random.default_rng(77))
        kernel.run(
            HORIZON,
            initial_state=init,
            sample_interval=INTERVAL,
            suspend_after_events=100,
        )
        stack = StackedSwarmKernel()
        stack.add_lane(
            params, seed=np.random.default_rng(77), snapshot=kernel.capture_state()
        )
        with pytest.raises(ValueError, match="initial_state cannot be combined"):
            stack.run_all(HORIZON, initial_states=[init])

    def test_block_size_one_uses_solo_fallback(self, monkeypatch):
        """``DRAW_BLOCK_SIZE=1`` (the CI determinism pin) still produces the
        solo trajectories — tiny blocks take the per-lane fallback path."""
        monkeypatch.setenv("DRAW_BLOCK_SIZE", "1")
        specs = lane_specs()[:3]
        init = SystemState.one_club(10, 100)
        solos = solo_results(specs, init)
        _, stacked = stacked_results(specs, init)
        for solo, lane in zip(solos, stacked):
            assert result_tuple(solo) == result_tuple(lane)

    def test_small_blocks_stress_refill_boundaries(self, monkeypatch):
        """A 16-draw block forces refills inside batched windows; lanes must
        still match the solo runs at the same block size."""
        monkeypatch.setenv("DRAW_BLOCK_SIZE", "16")
        specs = lane_specs()[:3]
        init = SystemState.one_club(10, 100)
        solos = solo_results(specs, init)
        _, stacked = stacked_results(specs, init)
        for solo, lane in zip(solos, stacked):
            assert result_tuple(solo) == result_tuple(lane)


MIXED = (
    ScenarioWeight.of(None, weight=2.0),
    ScenarioWeight.of("flash-crowd", weight=1.0, surge_start=1.0, surge_end=4.0),
    ScenarioWeight.of("free-rider", weight=1.0, leech_fraction=0.7),
)


def small_spec(num_swarms=24, **overrides) -> FleetSpec:
    defaults = dict(
        name="stacked-test-fleet",
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


class TestStackedFleet:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_fingerprint_matches_per_swarm(self, workers):
        """The acceptance property: ``run_fleet(stacked=True)`` produces the
        exact per-swarm fingerprint at any worker count."""
        spec = small_spec()
        per_swarm = run_fleet(spec, seed=42, workers=1)
        stacked = run_fleet(spec, seed=42, workers=workers, stacked=True)
        assert stacked.complete
        assert stacked.fingerprint() == per_swarm.fingerprint()

    def test_smoke_stacked_kill_resume_equality(self, tmp_path):
        """CI stacked-fleet smoke: kill a 2-worker mixed stacked fleet
        mid-chunk (mid-swarm, via the kernel snapshot), resume through the
        stacked path, and require the exact uninterrupted aggregate."""
        spec = small_spec()
        baseline = run_fleet(spec, seed=7, workers=1)
        checkpoint = tmp_path / "stacked-fleet.ckpt"
        partial = run_fleet(
            spec,
            seed=7,
            workers=2,
            stacked=True,
            checkpoint_path=checkpoint,
            stop_after_swarms=11,
            suspend_after_events=60,
        )
        assert not partial.complete
        resumed = resume_fleet(checkpoint, workers=2, stacked=True)
        assert resumed.complete
        assert resumed.fingerprint() == baseline.fingerprint()

    def test_cross_path_suspend_resume(self, tmp_path):
        """A fleet suspended by the stacked path resumes bit-identically
        through the per-swarm path, and the other way around."""
        spec = small_spec(num_swarms=16)
        baseline = run_fleet(spec, seed=3, workers=1)
        for suspend_with, resume_with in ((True, False), (False, True)):
            checkpoint = tmp_path / f"cross-{suspend_with}.ckpt"
            run_fleet(
                spec,
                seed=3,
                workers=1,
                stacked=suspend_with,
                checkpoint_path=checkpoint,
                stop_after_swarms=6,
                suspend_after_events=50,
            )
            resumed = resume_fleet(checkpoint, workers=1, stacked=resume_with)
            assert resumed.fingerprint() == baseline.fingerprint()

    def test_stacked_default_chunks_are_larger(self):
        """The stacked path defaults to fewer, larger chunks per worker."""
        spec = small_spec(num_swarms=200)
        per_swarm = FleetScheduler(spec, workers=2)
        stacked = FleetScheduler(spec, workers=2, stacked=True)
        assert stacked.chunk_size > per_swarm.chunk_size


class TestStackedValidation:
    def test_object_backend_rejected(self):
        spec = small_spec(backend="object")
        with pytest.raises(ValueError, match="array"):
            FleetScheduler(spec, stacked=True)

    def test_k_above_64_names_the_swarm(self):
        spec = small_spec(
            num_swarms=4,
            sampler=FixedSampler.of(arrival_rate=2.0, num_pieces=65),
            scenario_mix=(),
        )
        with pytest.raises(ValueError, match=r"swarm 0 .*num_pieces=65"):
            run_fleet(spec, seed=1, stacked=True)
