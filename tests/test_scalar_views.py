"""The scalar path's memoryviews: kept out of snapshots, never stale.

The draw buffer serves scalar draws, and the array kernel reads and writes
every per-row column, through zero-copy memoryviews over the numpy arrays
that stay the one store.  A memoryview cannot be pickled, so none may reach
a snapshot; and a view still bound to an array that has since been replaced
reads old values and drops writes, so every rebinding of a column must
rebind its view.  These tests pin both:

* a snapshot taken mid-block, after a run, pickles on both backends and
  resumes the uninterrupted trajectory;
* a kernel that outgrows a 16-row column, flat or with peer classes, one
  restored from a snapshot larger than its columns, and stacked lanes whose
  shared mask sheet is reallocated, keep every view on its live column and
  stay bit-identical to the reference runs.

The file also runs under ``DRAW_BLOCK_SIZE=1`` in CI.
"""

import pickle

import numpy as np
import pytest

from repro.core.parameters import SystemParameters
from repro.core.scenario import make_scenario
from repro.core.state import SystemState
from repro.swarm import ArraySwarmKernel, StackedSwarmKernel
from repro.swarm.swarm import make_simulator

#: The ``trial-stable`` point (λ = 50 below the threshold 60): most
#: contacts move a piece, so the scalar path does most of the work.
STABLE = SystemParameters.flash_crowd(
    10, arrival_rate=50.0, seed_rate=30.0, peer_rate=1.0, seed_departure_rate=2.0
)
#: The ``trial-captured`` rates: from a one-club most ticks are wasted, so
#: stacked lanes file windows that read the shared mask sheet.
CAPTURED = SystemParameters.flash_crowd(
    10, arrival_rate=50.0, seed_rate=10.0, peer_rate=1.0, seed_departure_rate=2.0
)
SEED = 7
HORIZON = 40.0
INTERVAL = 0.5
EVENTS = 6_000
SMALL = 16

#: The scalar path's view of each per-row column; classed runs add
#: ``CLASSED_VIEWS``.
VIEWS = {
    "_mask_view": "_masks",
    "_arrival_time_view": "_arrival_time",
    "_completed_at_view": "_completed_at",
    "_arrived_with_rare_view": "_arrived_with_rare",
    "_infected_view": "_infected",
    "_was_one_club_view": "_was_one_club",
    "_seed_slot_view": "_seed_slot",
    "_sped_slot_view": "_sped_slot",
}
CLASSED_VIEWS = {
    "_class_idx_view": "_class_idx",
    "_member_slot_view": "_member_slot",
}


def _assert_same_run(result, reference):
    assert result.final_state == reference.final_state
    assert result.final_time == reference.final_time
    assert result.final_population == reference.final_population
    assert result.events_executed == reference.events_executed
    assert result.horizon_reached == reference.horizon_reached
    assert result.metrics == reference.metrics


def _assert_view_is_live(kernel):
    """Every scalar view of the kernel aliases its current column."""
    views = dict(VIEWS)
    if kernel._classes is not None:
        views.update(CLASSED_VIEWS)
    for view_name, column_name in views.items():
        view, column = getattr(kernel, view_name), getattr(kernel, column_name)
        assert view.obj is column, view_name
        assert np.array_equal(np.asarray(view), column, equal_nan=True), view_name


@pytest.mark.parametrize("backend", ["object", "array"])
def test_snapshot_pickles_mid_block(backend):
    reference = make_simulator(STABLE, seed=SEED, backend=backend).run(
        HORIZON, sample_interval=INTERVAL, max_events=EVENTS
    )
    simulator = make_simulator(STABLE, seed=SEED, backend=backend)
    first = simulator.run(
        HORIZON,
        sample_interval=INTERVAL,
        max_events=EVENTS,
        suspend_after_events=EVENTS // 2,
    )
    assert first.suspended
    draws = simulator.draws
    if draws.block_size > 1:
        assert 0 < draws.remaining() < draws.block_size, "not mid-block"
    payload = pickle.dumps(simulator.capture_state())
    fresh = make_simulator(STABLE, seed=SEED + 1, backend=backend)
    fresh.restore_state(pickle.loads(payload))
    _assert_same_run(fresh.run(HORIZON, resume=True, max_events=EVENTS), reference)
    # The suspended simulator's own views survived the capture, too.
    _assert_same_run(
        simulator.run(HORIZON, resume=True, max_events=EVENTS), reference
    )


#: A flat run and a classed one (free riders: two peer classes, so the
#: class and member-slot columns are live too): (params, scenario).
GROWTH_POINTS = {
    "flat": (STABLE, None),
    "classed": (None, make_scenario("free-rider", num_pieces=10, arrival_rate=50.0,
                                    seed_rate=30.0)),
}


def _growth_point(point):
    params, scenario = GROWTH_POINTS[point]
    return (params if scenario is None else scenario.params), scenario


@pytest.mark.parametrize("point", sorted(GROWTH_POINTS))
def test_grown_kernel_keeps_its_views(point):
    params, scenario = _growth_point(point)
    reference = make_simulator(
        params, seed=SEED, backend="object", scenario=scenario
    ).run(HORIZON, sample_interval=INTERVAL, max_events=EVENTS)
    kernel = ArraySwarmKernel(
        params, seed=SEED, scenario=scenario, initial_capacity=SMALL
    )
    result = kernel.run(HORIZON, sample_interval=INTERVAL, max_events=EVENTS)
    assert len(kernel._masks) > SMALL, "the column never grew"
    assert (kernel._classes is not None) == (scenario is not None)
    _assert_view_is_live(kernel)
    _assert_same_run(result, reference)


@pytest.mark.parametrize("point", sorted(GROWTH_POINTS))
def test_restored_kernel_keeps_its_views(point):
    """A snapshot with more rows than the restoring kernel's columns grows
    them inside the restore; the views follow, and the run resumes."""
    params, scenario = _growth_point(point)
    reference = make_simulator(
        params, seed=SEED, backend="array", scenario=scenario
    ).run(HORIZON, sample_interval=INTERVAL, max_events=EVENTS)
    source = make_simulator(params, seed=SEED, backend="array", scenario=scenario)
    source.run(
        HORIZON,
        sample_interval=INTERVAL,
        max_events=EVENTS,
        suspend_after_events=EVENTS // 2,
    )
    assert source.population > SMALL, "the snapshot fits the small columns"
    kernel = ArraySwarmKernel(
        params, seed=SEED + 1, scenario=scenario, initial_capacity=SMALL
    )
    kernel.restore_state(pickle.loads(pickle.dumps(source.capture_state())))
    assert len(kernel._masks) > SMALL, "the restore never grew the columns"
    _assert_view_is_live(kernel)
    _assert_same_run(kernel.run(HORIZON, resume=True, max_events=EVENTS), reference)
    _assert_view_is_live(kernel)


def test_stacked_sheet_reallocation_keeps_lane_views():
    seeds = (11, 12, 13)
    initial = SystemState.one_club(10, 100)
    run_kwargs = dict(sample_interval=INTERVAL, max_events=EVENTS // 2)
    solos = [
        ArraySwarmKernel(
            CAPTURED, seed=np.random.default_rng(seed), initial_capacity=SMALL
        ).run(HORIZON, initial_state=initial, **run_kwargs)
        for seed in seeds
    ]
    stack = StackedSwarmKernel()
    for seed in seeds:
        stack.add_lane(
            CAPTURED, seed=np.random.default_rng(seed), initial_capacity=SMALL
        )
    sheet_size = len(stack._sheet)
    lanes = stack.run_all(
        HORIZON, initial_states=[initial] * len(seeds), **run_kwargs
    )
    assert len(stack._sheet) > sheet_size, "the sheet was never reallocated"
    for slot, (solo, lane) in enumerate(zip(solos, lanes)):
        kernel = stack.lane(slot)
        _assert_view_is_live(kernel)
        assert np.shares_memory(kernel._masks, stack._sheet)
        _assert_same_run(lane, solo)
