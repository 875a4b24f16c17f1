"""Topology overlays: spec validation, determinism, flash-exit, fleet smoke.

The determinism battery mirrors the repo-wide contract for every new
stochastic feature: object/array bit-identity under a shared seed,
``DRAW_BLOCK_SIZE=1`` vs. default equality, mid-run suspend → pickle →
restore exactness (adjacency included), and stacked-lane == solo.
"""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.scenario import base_params, make_scenario
from repro.core.stability import analyze
from repro.core.state import SystemState
from repro.fleet import resume_fleet, run_fleet
from repro.fleet.spec import FleetSpec, FixedSampler, ScenarioWeight
from repro.swarm.stacked import StackedSwarmKernel
from repro.swarm.swarm import make_simulator, run_swarm
from repro.swarm.topology import (
    TOPOLOGY_KINDS,
    OverlayState,
    TopologySpec,
    build_overlay,
)

OVERLAY_KINDS = tuple(k for k in TOPOLOGY_KINDS if k != "complete")


def metrics_tuple(result):
    m = result.metrics
    return (
        m.sample_times,
        m.population,
        m.num_seeds,
        m.one_club_size,
        m.min_piece_count,
        m.total_arrivals,
        m.total_departures,
        m.total_downloads,
        m.total_seed_uploads,
        m.wasted_contacts,
        m.thinned_events,
        m.neighbor_useful_ticks,
        m.neighbor_useless_ticks,
        m.culled_peers,
        m.sojourn_times,
        m.download_times,
        result.final_time,
        result.final_population,
        result.events_executed,
    )


def overlay_scenarios():
    """One scenario per overlay family (module-level so hypothesis can
    sample prebuilt specs without re-running factories per example)."""
    specs = [
        make_scenario("sparse-overlay"),
        make_scenario("sparse-overlay", topology="k-regular", degree=4),
        make_scenario("sparse-overlay", topology="scale-free", degree=4),
        make_scenario("sparse-overlay", topology="tracker", degree=6),
        make_scenario("partitioned", num_components=3),
        make_scenario("flash-exit", exit_time=8.0, exit_fraction=0.5),
        make_scenario(
            "flash-exit", exit_time=8.0, exit_fraction=0.5, topology="tracker"
        ),
    ]
    # Heterogeneous classes + overlay: exercises the per-class ticker walk
    # combined with the adjacency gather in the batch stage.
    specs.append(
        dataclasses.replace(
            make_scenario("free-rider", leech_fraction=0.4),
            topology=TopologySpec(kind="random-regular", degree=5),
        )
    )
    return specs


OVERLAY_SCENARIOS = overlay_scenarios()


class TestTopologySpec:
    def test_defaults_are_complete(self):
        spec = TopologySpec()
        assert spec.is_complete
        assert build_overlay(spec) is None
        assert build_overlay(None) is None

    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            TopologySpec(kind="small-world")
        with pytest.raises(ValueError, match="degree"):
            TopologySpec(kind="tracker", degree=0)
        with pytest.raises(ValueError, match="max_degree"):
            TopologySpec(kind="tracker", degree=8, max_degree=4)
        with pytest.raises(ValueError, match="bridge_prob"):
            TopologySpec(kind="partitioned", bridge_prob=1.5)
        with pytest.raises(ValueError, match="num_components"):
            TopologySpec(kind="partitioned", num_components=0)

    def test_frozen_hashable_picklable(self):
        spec = TopologySpec(kind="tracker", degree=6)
        assert pickle.loads(pickle.dumps(spec)) == spec
        assert hash(spec) == hash(TopologySpec(kind="tracker", degree=6))
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.degree = 3

    def test_overlay_state_rejects_complete(self):
        with pytest.raises(ValueError, match="complete"):
            OverlayState(TopologySpec())

    def test_complete_topology_is_legacy_identical(self):
        """A ``complete`` TopologySpec on a scenario is the legacy path:
        bit-identical to running with no topology at all."""
        plain = make_scenario("flash-crowd")
        complete = dataclasses.replace(plain, topology=TopologySpec())
        assert not complete.has_overlay
        for backend in ("object", "array"):
            a = run_swarm(
                plain.params, horizon=12.0, seed=5, scenario=plain,
                backend=backend, max_events=2000,
            )
            b = run_swarm(
                complete.params, horizon=12.0, seed=5, scenario=complete,
                backend=backend, max_events=2000,
            )
            assert metrics_tuple(a) == metrics_tuple(b)


class TestScenarioFactories:
    def test_registered(self):
        from repro.core.scenario import registered_scenarios

        names = registered_scenarios()
        for name in ("sparse-overlay", "partitioned", "flash-exit"):
            assert name in names

    def test_sparse_overlay_fields(self):
        spec = make_scenario("sparse-overlay", topology="tracker", degree=5)
        assert spec.has_overlay
        assert spec.topology.kind == "tracker"
        assert spec.topology.degree == 5
        assert "tracker" in spec.describe()

    def test_complete_request_degenerates_to_none(self):
        spec = make_scenario("sparse-overlay", topology="complete")
        assert spec.topology is None
        assert not spec.has_overlay

    def test_flash_exit_fields(self):
        spec = make_scenario("flash-exit", exit_time=30.0, exit_fraction=0.25)
        assert spec.has_cull
        assert spec.cull_time == 30.0
        assert spec.cull_fraction == 0.25
        assert "flash exit" in spec.describe()

    def test_cull_validation(self):
        with pytest.raises(ValueError, match="cull_fraction"):
            make_scenario("flash-exit", exit_time=30.0, exit_fraction=1.5)
        with pytest.raises(ValueError, match="exit_time|cull_time"):
            make_scenario("flash-exit", exit_time=-1.0)


class TestOverlayBackendEquivalence:
    """Bit-identity of the two backends on every overlay scenario family."""

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        st.sampled_from(OVERLAY_SCENARIOS),
        st.integers(0, 2**31 - 1),
    )
    def test_backends_bit_identical_on_overlays(self, scenario, seed):
        runs = {
            backend: run_swarm(
                scenario.params,
                horizon=6.0,
                seed=seed,
                scenario=scenario,
                backend=backend,
                max_events=300,
            )
            for backend in ("object", "array")
        }
        assert metrics_tuple(runs["object"]) == metrics_tuple(runs["array"])

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(st.sampled_from(OVERLAY_SCENARIOS), st.integers(0, 2**31 - 1))
    def test_backends_agree_from_seeded_one_club(self, scenario, seed):
        initial = SystemState.one_club(scenario.params.num_pieces, 20)
        runs = [
            run_swarm(
                scenario.params,
                horizon=5.0,
                seed=seed,
                scenario=scenario,
                backend=backend,
                initial_state=initial,
                max_events=300,
            )
            for backend in ("object", "array")
        ]
        assert metrics_tuple(runs[0]) == metrics_tuple(runs[1])

    @pytest.mark.parametrize("backend", ["object", "array"])
    def test_block_size_invariance(self, backend):
        for scenario in OVERLAY_SCENARIOS:
            small = make_simulator(
                scenario.params,
                seed=np.random.default_rng(3),
                backend=backend,
                scenario=scenario,
                draw_block_size=1,
            )
            default = make_simulator(
                scenario.params,
                seed=np.random.default_rng(3),
                backend=backend,
                scenario=scenario,
            )
            assert metrics_tuple(small.run(15.0)) == metrics_tuple(
                default.run(15.0)
            )


class TestOverlayCheckpoint:
    @pytest.mark.parametrize("backend", ["object", "array"])
    def test_suspend_pickle_restore_is_exact(self, backend):
        for scenario in OVERLAY_SCENARIOS:
            full = make_simulator(
                scenario.params,
                seed=np.random.default_rng(5),
                backend=backend,
                scenario=scenario,
            )
            reference = metrics_tuple(full.run(20.0))
            part = make_simulator(
                scenario.params,
                seed=np.random.default_rng(5),
                backend=backend,
                scenario=scenario,
            )
            part.run(20.0, suspend_after_events=150)
            snapshot = pickle.loads(pickle.dumps(part.capture_state()))
            fresh = make_simulator(
                scenario.params,
                seed=np.random.default_rng(999),
                backend=backend,
                scenario=scenario,
            )
            fresh.restore_state(snapshot)
            assert metrics_tuple(fresh.run(20.0, resume=True)) == reference

    def test_restore_rejects_topology_mismatch(self):
        scenario = make_scenario("sparse-overlay")
        sim = make_simulator(
            base_params(),
            seed=np.random.default_rng(1),
            backend="array",
            scenario=scenario,
        )
        sim.run(5.0, suspend_after_events=50)
        snapshot = sim.capture_state()
        plain = make_simulator(
            base_params(), seed=np.random.default_rng(1), backend="array"
        )
        with pytest.raises(ValueError, match="overlay"):
            plain.restore_state(snapshot)


class TestStackedOverlay:
    def test_stacked_lanes_equal_solo_on_overlays(self):
        for scenario in OVERLAY_SCENARIOS:
            stack = StackedSwarmKernel()
            seeds = list(range(21, 33))  # > 1 lane per point: clones too
            for seed in seeds:
                stack.add_lane(
                    scenario.params,
                    seed=np.random.default_rng(seed),
                    scenario=scenario,
                )
            stacked = stack.run_all(18.0)
            for index, seed in enumerate(seeds):
                solo = make_simulator(
                    scenario.params,
                    seed=np.random.default_rng(seed),
                    backend="array",
                    scenario=scenario,
                )
                assert metrics_tuple(stacked[index]) == metrics_tuple(
                    solo.run(18.0)
                ), (scenario.name, seed)

    def test_stacked_mixed_overlay_and_plain_lanes(self):
        """Overlay lanes take the per-lane batch route while plain lanes
        keep the cross-lane window classification — in the same stack."""
        overlay = make_scenario("sparse-overlay", topology="tracker")
        stack = StackedSwarmKernel()
        configs = [(overlay, 41), (None, 42), (overlay, 43), (None, 44)]
        for scenario, seed in configs:
            stack.add_lane(
                base_params() if scenario is None else scenario.params,
                seed=np.random.default_rng(seed),
                scenario=scenario,
            )
        stacked = stack.run_all(18.0)
        for index, (scenario, seed) in enumerate(configs):
            solo = make_simulator(
                base_params() if scenario is None else scenario.params,
                seed=np.random.default_rng(seed),
                backend="array",
                scenario=scenario,
            )
            assert metrics_tuple(stacked[index]) == metrics_tuple(
                solo.run(18.0)
            )


class TestFlashExitScenario:
    def _run(self, scenario, seed, horizon=60.0):
        return run_swarm(
            scenario.params,
            horizon=horizon,
            seed=seed,
            scenario=scenario,
            backend="array",
            max_population=8000,
        )

    @pytest.mark.parametrize("topology", [None, "tracker"])
    def test_stable_swarm_recovers_from_cull(self, topology):
        """With a positive Theorem-1 margin the swarm re-fills after the
        cull: the population returns to the pre-cull steady state."""
        scenario = make_scenario(
            "flash-exit", exit_time=30.0, exit_fraction=0.7, topology=topology
        )
        assert analyze(scenario.params).verdict.value == "stable"
        recovered = 0
        for seed in (1, 2, 3):
            result = self._run(scenario, seed)
            metrics = result.metrics
            assert metrics.culled_peers > 0
            times = np.asarray(metrics.sample_times)
            population = np.asarray(metrics.population, dtype=float)
            before = population[(times > 15.0) & (times < 30.0)].mean()
            tail = population[times > 50.0].mean()
            if tail > 0.5 * before:
                recovered += 1
        assert recovered >= 2

    def test_unstable_swarm_keeps_growing_past_cull(self):
        """With a negative margin the cull only dents the linear growth:
        the final population clearly exceeds the pre-cull level."""
        scenario = make_scenario(
            "flash-exit", exit_time=30.0, exit_fraction=0.7, arrival_rate=4.0
        )
        assert analyze(scenario.params).verdict.value == "unstable"
        grew = 0
        for seed in (1, 2, 3):
            result = self._run(scenario, seed)
            metrics = result.metrics
            assert metrics.culled_peers > 0
            times = np.asarray(metrics.sample_times)
            population = np.asarray(metrics.population, dtype=float)
            before = population[(times > 15.0) & (times < 30.0)].mean()
            if population[-1] > before:
                grew += 1
        assert grew >= 2

    def test_cull_after_horizon_never_fires(self):
        scenario = make_scenario("flash-exit", exit_time=500.0)
        result = self._run(scenario, 3, horizon=20.0)
        assert result.metrics.culled_peers == 0

    def test_step_fires_cull_exactly_once(self):
        scenario = make_scenario("flash-exit", exit_time=0.5, exit_fraction=1.0)
        sim = make_simulator(
            scenario.params,
            seed=np.random.default_rng(0),
            backend="object",
            scenario=scenario,
        )
        club = SystemState.one_club(scenario.params.num_pieces, 10)
        # One event per resumed segment, up to the first one past t = 2.
        events = 1
        result = sim.run(4.0, initial_state=club, suspend_after_events=events)
        while result.suspended and sim.now < 2.0:
            events += 1
            result = sim.run(4.0, resume=True, suspend_after_events=events)
        culled = sim.metrics.culled_peers
        assert culled >= 10  # the initial club plus any pre-cull arrivals
        while result.suspended:
            events += 1
            result = sim.run(4.0, resume=True, suspend_after_events=events)
        assert sim.metrics.culled_peers == culled


class TestOverlayFleetSmoke:
    def _spec(self):
        return FleetSpec(
            name="overlay-smoke",
            num_swarms=6,
            sampler=FixedSampler.of(arrival_rate=1.2, seed_rate=1.0),
            scenario_mix=(
                ScenarioWeight.of("sparse-overlay", topology="tracker", degree=6),
                ScenarioWeight.of("partitioned", weight=0.5),
            ),
            horizon=25.0,
            max_events=4000,
            backend="array",
            initial_club_size=15,
        )

    def test_overlay_fleet_smoke_kill_midrun_and_resume(self, tmp_path):
        """An overlay fleet killed mid-run resumes to the exact census, and
        the fingerprint is identical at any worker count."""
        spec = self._spec()
        uninterrupted = run_fleet(spec, seed=19, workers=1)
        path = tmp_path / "overlay.ckpt"
        run_fleet(
            spec,
            seed=19,
            workers=1,
            checkpoint_path=path,
            stop_after_swarms=3,
        )
        resumed = resume_fleet(path, workers=2)
        assert resumed.fingerprint() == uninterrupted.fingerprint()
        assert resumed == uninterrupted
        two_workers = run_fleet(spec, seed=19, workers=2)
        assert two_workers.fingerprint() == uninterrupted.fingerprint()

    def test_overlay_fleet_smoke_stacked_matches_per_swarm(self):
        spec = self._spec()
        per_swarm = run_fleet(spec, seed=23, workers=1)
        stacked = run_fleet(spec, seed=23, workers=1, stacked=True)
        assert stacked.fingerprint() == per_swarm.fingerprint()

    def test_overlay_fleet_smoke_suspend_mid_chunk(self, tmp_path):
        """Kill *inside* a swarm (event-bounded suspension) and resume."""
        spec = self._spec()
        uninterrupted = run_fleet(spec, seed=29, workers=1)
        path = tmp_path / "overlay-mid.ckpt"
        run_fleet(
            spec,
            seed=29,
            workers=1,
            checkpoint_path=path,
            stop_after_swarms=2,
            suspend_after_events=500,
        )
        resumed = resume_fleet(path, workers=1)
        assert resumed == uninterrupted
