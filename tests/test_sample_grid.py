"""Every sampled row holds the model state of its gap.

The sample grid is recorded in bulk, one frozen row per gap between events
(``_SwarmEventLoop._record_until``).  These tests step each run one event at
a time with ``suspend_after_events=k, resume=True`` and check each row
appended during segment ``k + 1`` against the state read directly after
segment ``k``: population, seeds, one-club size, min piece count, the
Figure-2 group counts and, under a gossip census, the census error and the
staleness at the row's time.  After each segment the rows must be exactly
the grid points before the clock, so no row is recorded late (with a later
state) or early.  Rows of the trailing flush must hold the final state, and
the sample times must be the repeated-addition grid.

Group counts are read from the peers of an object-backend twin stepped in
lockstep (the array kernel keeps no peer objects; the two backends are
trajectory-identical from one seed).
"""

import copy

import pytest

from repro.core.scenario import make_scenario, registered_scenarios
from repro.core.state import SystemState
from repro.swarm.groups import PeerGroup, group_counts
from repro.swarm.stacked import StackedSwarmKernel
from repro.swarm.swarm import BACKENDS, make_simulator


def _grid(horizon, interval):
    times, time = [], 0.0
    while time <= horizon:
        times.append(time)
        time += interval
    return times


INTERVAL = 0.7
#: The last point of the repeated-addition grid below 40 (about 39.9), so
#: the final row falls on the horizon itself.  Long enough to pass the seed
#: outage (t=20) and the flash exit.
HORIZON = _grid(40.0, INTERVAL)[-1]
#: The flash exit fires just after a grid point, so that row falls in the
#: gap the cull closes and must hold the state before the cull.
EXIT_TIME = _grid(30.0, INTERVAL)[-1] + 1e-6
SEED = 11
#: Events stepped before the trailing flush of the ``flush`` runs.
FLUSH_AFTER = 150

SPECS = {name: make_scenario(name) for name in registered_scenarios()}
SPECS["flash-exit"] = make_scenario("flash-exit", exit_time=EXIT_TIME)
SPECS["flash-crowd+gossip"] = make_scenario("flash-crowd", census="gossip")

GROUP_ORDER = (
    PeerGroup.NORMAL_YOUNG,
    PeerGroup.INFECTED,
    PeerGroup.GIFTED,
    PeerGroup.ONE_CLUB,
    PeerGroup.FORMER_ONE_CLUB,
)


def _read_state(simulator, twin):
    """The state as it stands now, as a map from a grid time to the row
    that time should get."""
    counts = simulator.current_state().piece_counts()
    groups = group_counts(twin.peers(), rare_piece=twin.rare_piece)
    fixed = (
        simulator.population,
        simulator.num_seeds,
        simulator.one_club_size(),
        min(counts.values()),
        tuple(groups[group] for group in GROUP_ORDER),
    )
    gossip = copy.deepcopy(simulator._gossip)
    if gossip is None:
        return lambda time: (time,) + fixed + (None, None)
    error = gossip.mean_error(counts, simulator.population)
    return lambda time: (time,) + fixed + (error, gossip.mean_staleness(time))


def _recorded_row(metrics, index):
    snapshot = metrics.group_snapshots[index]
    assert snapshot.time == metrics.sample_times[index]
    gossip = bool(metrics.census_error)
    return (
        metrics.sample_times[index],
        metrics.population[index],
        metrics.num_seeds[index],
        metrics.one_club_size[index],
        metrics.min_piece_count[index],
        (
            snapshot.normal_young,
            snapshot.infected,
            snapshot.gifted,
            snapshot.one_club,
            snapshot.former_one_club,
        ),
        metrics.census_error[index] if gossip else None,
        metrics.census_staleness[index] if gossip else None,
    )


def _check_rows(metrics, start, expected):
    """Rows from ``start`` on must equal ``expected(time)``; returns the
    row count."""
    for index in range(start, len(metrics.sample_times)):
        time = metrics.sample_times[index]
        assert _recorded_row(metrics, index) == expected(time), (index, time)
    return len(metrics.sample_times)


@pytest.mark.parametrize("end", ["horizon", "flush"])
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(SPECS))
def test_rows_hold_the_state_of_their_gap(name, backend, end):
    spec = SPECS[name]
    simulator = make_simulator(
        spec.params, seed=SEED, backend=backend, scenario=spec, track_groups=True
    )
    twin = simulator
    if backend != "object":
        twin = make_simulator(spec.params, seed=SEED, scenario=spec)
    steppers = [simulator] if twin is simulator else [simulator, twin]

    def run(**kwargs):
        return [stepper.run(HORIZON, **kwargs) for stepper in steppers][0]

    result = run(
        initial_state=SystemState.one_club(spec.params.num_pieces, 12),
        sample_interval=INTERVAL,
        suspend_after_events=0,
    )
    grid = _grid(HORIZON, INTERVAL)
    rows = 0
    while result.suspended and not (
        end == "flush" and result.events_executed == FLUSH_AFTER
    ):
        expected = _read_state(simulator, twin)
        result = run(resume=True, suspend_after_events=result.events_executed + 1)
        rows = _check_rows(simulator.metrics, rows, expected)
        if result.suspended:
            assert rows == sum(1 for time in grid if time < simulator.now)
    if end == "flush":
        assert result.suspended, "the run ended before its trailing flush"
        result = run(resume=True, max_events=FLUSH_AFTER)
        assert not result.suspended
        rows = _check_rows(simulator.metrics, rows, _read_state(simulator, twin))
    else:
        assert result.horizon_reached
    assert simulator.metrics.sample_times == grid
    assert twin.metrics.population == simulator.metrics.population


def test_stacked_lanes_record_the_grid_up_to_their_clock():
    """A stacked lane suspended after a window of wasted ticks has recorded
    every grid point before its clock, as the solo loop would have, so its
    snapshot carries the same rows."""
    segment = 61
    stack = StackedSwarmKernel()
    specs = [SPECS[name] for name in sorted(SPECS)]
    for spec in specs:
        stack.add_lane(spec.params, seed=SEED, scenario=spec)
    grid = _grid(HORIZON, INTERVAL)
    results = stack.run_all(
        HORIZON,
        initial_states=[
            SystemState.one_club(spec.params.num_pieces, 40) for spec in specs
        ],
        sample_interval=INTERVAL,
        suspend_after_events=segment,
    )
    for bound in range(2 * segment, 9 * segment, segment):
        for slot, result in enumerate(results):
            lane = stack.lane(slot)
            assert result.suspended
            assert lane.metrics.sample_times == [t for t in grid if t < lane.now]
        results = stack.run_all(HORIZON, suspend_after_events=bound)
