"""Checkpoint round-trips: snapshot -> restore -> continue is bit-identical.

The contract under test (see ``_SwarmEventLoop`` in ``repro.swarm.swarm``):
suspending a run after ``k`` events, capturing the simulator state,
restoring it into a *fresh* simulator built with the same constructor
arguments, and resuming must reproduce the exact trajectory — every metrics
series, the final state, the final clock — of an uninterrupted run, on both
backends, on plain parameters and on scenarios with real Poisson thinning.
"""

import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.parameters import SystemParameters
from repro.core.scenario import make_scenario
from repro.core.state import SystemState
from repro.swarm.gossip import CensusSpec
from repro.swarm.swarm import make_simulator, run_swarm

BACKENDS = ("object", "array")


def _assert_same_outcome(resumed, uninterrupted):
    assert resumed.final_state == uninterrupted.final_state
    assert resumed.final_time == uninterrupted.final_time
    assert resumed.final_population == uninterrupted.final_population
    assert resumed.horizon_reached == uninterrupted.horizon_reached
    assert resumed.events_executed == uninterrupted.events_executed
    for series in (
        "sample_times",
        "population",
        "num_seeds",
        "one_club_size",
        "min_piece_count",
        "sojourn_times",
        "download_times",
    ):
        assert getattr(resumed.metrics, series) == getattr(
            uninterrupted.metrics, series
        ), series
    assert resumed.metrics.total_arrivals == uninterrupted.metrics.total_arrivals
    assert resumed.metrics.total_downloads == uninterrupted.metrics.total_downloads
    assert resumed.metrics.wasted_contacts == uninterrupted.metrics.wasted_contacts
    assert resumed.metrics.thinned_events == uninterrupted.metrics.thinned_events


def _same_state(a, b) -> bool:
    """Structural equality of two ``capture_state`` payloads (NaN == NaN)."""
    if isinstance(a, np.ndarray):
        return (
            isinstance(b, np.ndarray)
            and a.dtype == b.dtype
            and np.array_equal(a, b, equal_nan=True)
        )
    if isinstance(a, dict):
        return (
            isinstance(b, dict)
            and list(a) == list(b)
            and all(_same_state(a[key], b[key]) for key in a)
        )
    if isinstance(a, (list, tuple)):
        return (
            type(a) is type(b)
            and len(a) == len(b)
            and all(_same_state(x, y) for x, y in zip(a, b))
        )
    if hasattr(a, "__dict__"):
        return type(a) is type(b) and _same_state(vars(a), vars(b))
    if isinstance(a, float) and a != a:
        return isinstance(b, float) and b != b
    return a == b


def _round_trip(params, backend, seed, suspend_after, scenario=None, club=10):
    """Uninterrupted run vs. suspend -> pickle -> restore -> resume."""
    kwargs = dict(seed=seed, backend=backend, scenario=scenario)
    initial = SystemState.one_club(params.num_pieces, club)
    uninterrupted = make_simulator(params, **kwargs).run(
        12.0, initial_state=initial, max_events=800
    )
    first = make_simulator(params, **kwargs)
    segment = first.run(
        12.0,
        initial_state=initial,
        max_events=800,
        suspend_after_events=suspend_after,
    )
    if not segment.suspended:
        # The run ended (horizon or cap) before the suspension point; the
        # segment already is the whole run.
        _assert_same_outcome(segment, uninterrupted)
        return None
    assert not segment.horizon_reached
    # The suspended segment must not have flushed trailing samples.
    assert len(segment.metrics.sample_times) <= len(
        uninterrupted.metrics.sample_times
    )
    snapshot = pickle.loads(pickle.dumps(first.capture_state()))
    fresh = make_simulator(params, **kwargs)
    fresh.restore_state(snapshot)
    resumed = fresh.run(12.0, resume=True, max_events=800)
    _assert_same_outcome(resumed, uninterrupted)
    return snapshot


class TestCheckpointRoundTrip:
    @settings(
        max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        st.integers(0, 2**31 - 1),
        st.integers(1, 300),
        st.sampled_from(BACKENDS),
        st.sampled_from([2, 4, 7]),
    )
    def test_plain_parameters_round_trip(self, seed, suspend_after, backend, k):
        params = SystemParameters.flash_crowd(
            num_pieces=k, arrival_rate=2.0, seed_rate=1.0, seed_departure_rate=2.0
        )
        _round_trip(params, backend, seed, suspend_after)

    @settings(
        max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        st.integers(0, 2**31 - 1),
        st.integers(1, 300),
        st.sampled_from(BACKENDS),
    )
    def test_thinned_schedule_round_trip(self, seed, suspend_after, backend):
        """A flash-crowd pulse keeps Poisson thinning on the hot path, so the
        snapshot also has to preserve the thinning RNG consumption."""
        scenario = make_scenario("flash-crowd", surge_start=1.0, surge_end=6.0)
        _round_trip(
            scenario.params, backend, seed, suspend_after, scenario=scenario
        )

    @settings(
        max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        st.integers(0, 2**31 - 1),
        st.integers(1, 300),
        st.sampled_from(BACKENDS),
    )
    def test_heterogeneous_scenario_round_trip(self, seed, suspend_after, backend):
        """Per-class member/seed/sped lists must survive the snapshot."""
        scenario = make_scenario("free-rider", leech_fraction=0.5)
        _round_trip(
            scenario.params, backend, seed, suspend_after, scenario=scenario
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_snapshot_is_reusable(self, backend, flash_crowd_stable):
        """Restoring the same snapshot twice yields the same continuation."""
        sim = make_simulator(flash_crowd_stable, seed=5, backend=backend)
        sim.run(10.0, suspend_after_events=20, max_events=500)
        snapshot = sim.capture_state()
        outcomes = []
        for _ in range(2):
            fresh = make_simulator(flash_crowd_stable, seed=99, backend=backend)
            fresh.restore_state(snapshot)
            outcomes.append(fresh.run(10.0, resume=True, max_events=500))
        _assert_same_outcome(outcomes[0], outcomes[1])

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_suspension_can_repeat(self, backend, flash_crowd_stable):
        """Multiple suspend/resume segments still match one straight run."""
        kwargs = dict(seed=17, backend=backend)
        uninterrupted = make_simulator(flash_crowd_stable, **kwargs).run(
            10.0, max_events=400
        )
        sim = make_simulator(flash_crowd_stable, **kwargs)
        result = sim.run(10.0, suspend_after_events=40, max_events=400)
        for bound in (120, 250):
            if not result.suspended:
                break
            result = sim.run(
                10.0, resume=True, suspend_after_events=bound, max_events=400
            )
        if result.suspended:
            result = sim.run(10.0, resume=True, max_events=400)
        _assert_same_outcome(result, uninterrupted)


class TestSnapshotValidation:
    def test_backend_mismatch_rejected(self, flash_crowd_stable):
        snapshot = make_simulator(
            flash_crowd_stable, seed=1, backend="object"
        ).capture_state()
        kernel = make_simulator(flash_crowd_stable, seed=1, backend="array")
        with pytest.raises(ValueError, match="backend"):
            kernel.restore_state(snapshot)

    def test_num_pieces_mismatch_rejected(self, flash_crowd_stable):
        snapshot = make_simulator(flash_crowd_stable, seed=1).capture_state()
        other = SystemParameters.flash_crowd(
            num_pieces=5, arrival_rate=1.0, seed_rate=2.0
        )
        with pytest.raises(ValueError, match="K="):
            make_simulator(other, seed=1).restore_state(snapshot)

    def test_scenario_mismatch_rejected(self):
        scenario = make_scenario("flash-crowd")
        snapshot = make_simulator(
            scenario.params, seed=1, scenario=scenario
        ).capture_state()
        with pytest.raises(ValueError, match="scenario"):
            make_simulator(scenario.params, seed=1).restore_state(snapshot)

    def test_format_mismatch_rejected(self, flash_crowd_stable):
        sim = make_simulator(flash_crowd_stable, seed=1)
        snapshot = sim.capture_state()
        snapshot["format"] = 999
        with pytest.raises(ValueError, match="format"):
            sim.restore_state(snapshot)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "source_kwargs, target_kwargs, match",
        [
            # Overlay snapshot into a same-named scenario without topology.
            ({}, {"topology": "complete"}, "overlay"),
            # Gossip knobs differ; the overlay part alone would restore.
            (
                {"census": CensusSpec.gossip(exchange_rate=0.5)},
                {"census": CensusSpec.gossip(exchange_rate=0.9)},
                "gossip",
            ),
        ],
    )
    def test_rejected_restore_leaves_simulator_untouched(
        self, backend, source_kwargs, target_kwargs, match
    ):
        source = make_scenario("sparse-overlay", **source_kwargs)
        target = make_scenario("sparse-overlay", **target_kwargs)
        club = SystemState.one_club(source.params.num_pieces, 5)
        donor = make_simulator(
            source.params, seed=2, backend=backend, scenario=source
        )
        donor.run(10.0, initial_state=club, suspend_after_events=22)
        snapshot = donor.capture_state()

        def build():
            sim = make_simulator(
                target.params, seed=9, backend=backend, scenario=target
            )
            sim.run(10.0, initial_state=club, suspend_after_events=33)
            return sim

        sim = build()
        before = sim.capture_state()
        with pytest.raises(ValueError, match=match):
            sim.restore_state(snapshot)
        assert _same_state(sim.capture_state(), before)
        # The rejected simulator still continues its own run exactly.
        _assert_same_outcome(
            sim.run(10.0, resume=True), build().run(10.0, resume=True)
        )

    def test_resume_requires_suspended_run(self, flash_crowd_stable):
        sim = make_simulator(flash_crowd_stable, seed=1)
        with pytest.raises(RuntimeError, match="resume"):
            sim.run(5.0, resume=True)
        sim.run(5.0, max_events=50)  # completes (or caps) -> not resumable
        with pytest.raises(RuntimeError, match="resume"):
            sim.run(5.0, resume=True)

    def test_resume_horizon_must_match(self, flash_crowd_stable):
        sim = make_simulator(flash_crowd_stable, seed=1)
        sim.run(5.0, suspend_after_events=5)
        with pytest.raises(ValueError, match="horizon"):
            sim.run(6.0, resume=True)

    def test_run_swarm_defaults_unaffected(self, flash_crowd_stable):
        """The legacy one-shot entry point never reports a suspension."""
        result = run_swarm(flash_crowd_stable, horizon=4.0, seed=3, max_events=100)
        assert not result.suspended
        assert result.events_executed <= 100
