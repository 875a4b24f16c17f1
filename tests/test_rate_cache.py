"""The event-rate cache of the shared driver never goes stale.

``_SwarmEventLoop`` keeps the four event rates, their partial sums and the
inter-event scale in a cache that is rebuilt only when ``_rates_dirty`` is
set, and every rate-moving mutator must set it.  These tests walk real
trajectories one event at a time — through the production ``run`` loop
(suspend after every event, resume), the stacked round loop and across
restores and flash-exit culls — and check after every event that a *clean*
cache holds exactly (``==``, not approximately) what a fresh
``_event_rates()`` computes.  A mutator that forgets the flag leaves a clean
but stale cache behind and fails here.
"""

import pickle

import numpy as np
import pytest

from repro.core.scenario import make_scenario, registered_scenarios
from repro.core.state import SystemState
from repro.swarm.stacked import StackedSwarmKernel
from repro.swarm.swarm import make_simulator

BACKENDS = ("object", "array")
HORIZON = 40.0


def _check_cache(sim) -> bool:
    """Assert a clean cache equals a fresh computation; True if it was clean."""
    if sim._rates_dirty:
        return False
    fresh = sim._event_rates()
    assert sim._rates == fresh
    total = sum(fresh)
    assert sim._rate_total == total
    assert sim._rate_r01 == fresh[0] + fresh[1]
    assert sim._rate_r012 == fresh[0] + fresh[1] + fresh[2]
    if total > 0:
        assert sim._rate_scale == 1.0 / total
    return True


def _step_run_loop(sim, events, initial_state=None):
    """Advance ``sim`` one event per ``run`` segment, checking each event.

    Returns the number of events after which the cache was clean.
    """
    clean = 0
    result = sim.run(
        HORIZON, initial_state=initial_state, suspend_after_events=1
    )
    clean += _check_cache(sim)
    count = 1
    while result.suspended and count < events:
        count += 1
        result = sim.run(HORIZON, resume=True, suspend_after_events=count)
        clean += _check_cache(sim)
    return clean


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", registered_scenarios())
def test_cache_matches_fresh_rates_every_event(name, backend):
    scenario = make_scenario(name)
    sim = make_simulator(
        scenario.params, seed=11, backend=backend, scenario=scenario
    )
    club = SystemState.one_club(scenario.params.num_pieces, 12)
    clean = _step_run_loop(sim, 300, initial_state=club)
    # Most events (wasted ticks, non-completing transfers) leave the cache
    # clean, so the check above is not vacuous.
    assert clean > 50


@pytest.mark.parametrize("backend", BACKENDS)
def test_cache_tracks_retry_speedup_lists(backend, flash_crowd_stable):
    # retry_speedup > 1 turns failed ticks into sped-up list mutations.
    sim = make_simulator(
        flash_crowd_stable, seed=5, backend=backend, retry_speedup=3.0
    )
    club = SystemState.one_club(flash_crowd_stable.num_pieces, 10)
    sped_list = "_sped_ids" if backend == "object" else "_sped"
    result = sim.run(HORIZON, initial_state=club, suspend_after_events=1)
    count, clean, sped_seen = 1, 0, 0
    while result.suspended and count < 300:
        count += 1
        result = sim.run(HORIZON, resume=True, suspend_after_events=count)
        clean += _check_cache(sim)
        sped_seen += bool(getattr(sim, sped_list))
    # Failed ticks mutate the sped-up lists often, so fewer events are clean.
    assert clean > 20
    assert sped_seen > 10


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", ["heterogeneous-classes", "sparse-overlay", None])
def test_cache_after_restore(name, backend, flash_crowd_stable):
    if name is None:
        scenario, params = None, flash_crowd_stable
    else:
        scenario = make_scenario(name)
        params = scenario.params
    kwargs = dict(seed=21, backend=backend, scenario=scenario)
    club = SystemState.one_club(params.num_pieces, 10)
    first = make_simulator(params, **kwargs)
    first.run(HORIZON, initial_state=club, suspend_after_events=120)
    snapshot = pickle.loads(pickle.dumps(first.capture_state()))
    # Restore into a simulator whose own clean cache describes a different
    # population: the restore must invalidate it.
    fresh = make_simulator(params, **kwargs)
    fresh.run(HORIZON, initial_state=SystemState.one_club(params.num_pieces, 3),
              max_events=5)
    fresh.restore_state(snapshot)
    assert fresh._rates_dirty
    clean = 0
    count = 120
    result = None
    while count < 320 and (result is None or result.suspended):
        count += 1
        result = fresh.run(HORIZON, resume=True, suspend_after_events=count)
        clean += _check_cache(fresh)
    assert clean > 30


@pytest.mark.parametrize("backend", BACKENDS)
def test_cache_across_flash_exit_cull(backend):
    scenario = make_scenario("flash-exit", exit_time=3.0, exit_fraction=0.6)
    sim = make_simulator(
        scenario.params, seed=8, backend=backend, scenario=scenario
    )
    club = SystemState.one_club(scenario.params.num_pieces, 15)
    result = sim.run(HORIZON, initial_state=club, suspend_after_events=1)
    count = 1
    culled_at = None
    while result.suspended and count < 400:
        count += 1
        before = sim.metrics.culled_peers
        result = sim.run(HORIZON, resume=True, suspend_after_events=count)
        if sim.metrics.culled_peers > before:
            culled_at = count
            # The cull removed peers: the cache must not survive it.
            assert sim._rates_dirty
        _check_cache(sim)
    assert culled_at is not None


def test_stacked_lanes_read_a_valid_cache():
    names = ["flash-crowd", "heterogeneous-classes", "seed-outage", "flash-exit"]
    stack = StackedSwarmKernel()
    scenarios = [make_scenario(name) for name in names]
    for index, scenario in enumerate(scenarios):
        stack.add_lane(
            scenario.params,
            seed=np.random.default_rng(100 + index),
            scenario=scenario,
        )
    initial = [SystemState.one_club(s.params.num_pieces, 12) for s in scenarios]
    results = stack.run_all(
        HORIZON, initial_states=initial, suspend_after_events=1
    )
    clean = 0
    count = 1
    # Stop before any lane finishes: a finished lane would start a new run.
    while all(r.suspended for r in results) and count < 250:
        count += 1
        results = stack.run_all(HORIZON, suspend_after_events=count)
        for slot in range(stack.num_lanes):
            clean += _check_cache(stack.lane(slot))
    assert clean > 100
