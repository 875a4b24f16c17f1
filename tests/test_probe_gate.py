"""The array kernel's batch stage: its yield gate and its walk-then-escalate
classification.

The gate tests run on the stable side of the Theorem-1 boundary.
The point is the ``trial-stable`` workload's: a K=10 flash crowd with
λ = 50 < U_s / (1 − µ/γ) = 60, started empty.  Most contacts move a piece
there, so the array kernel's batch probe keeps failing and its yield gate
backs off and re-engages hundreds of times within the ~30k events run here —
unlike the small captured swarms of the other equivalence tests.

The gate only decides whether a batch-stage entry probes; a skipped entry
hands its events to the scalar loop, which consumes the same draws.  These
tests pin that: object and array runs agree, a suspend → pickle → restore in
either gate state continues the uninterrupted trajectory, and the gate never
reaches a snapshot.

The walk tests run small captured swarms (K=5, λ = 3.2 above the threshold
U_s / (1 − µ/γ) = 1, from a 100-peer one-club) with uniform contacts, peer
classes and an overlay.  Runs of wasted ticks there are mostly short, so
most batches end inside the stage's scalar walk and some fill its window and
escalate to the array classification; both must leave the trajectory as the
object backend draws it.  The vector ticker pick of the escalated path is
checked against the scalar segment pick the walk shares with the dispatch.

The same walk runs on two scheduled captured points (flash crowd, seed
outage), where thinning-rejected candidates interrupt the runs of wasted
ticks; the stage leaves them to the scalar loop and batches wasted ticks
only.

The file also runs under ``DRAW_BLOCK_SIZE=1`` in CI, where the reference
runs use scalar draws.
"""

import pickle

import numpy as np
import pytest

from repro.core.parameters import SystemParameters
from repro.core.scenario import base_params, make_scenario
from repro.core.state import SystemState
from repro.swarm.drawbuf import DEFAULT_BLOCK_SIZE
from repro.swarm.swarm import _pick_from_segments, make_simulator

STABLE = SystemParameters.flash_crowd(
    10, arrival_rate=50.0, seed_rate=30.0, peer_rate=1.0, seed_departure_rate=2.0
)
#: The ``trial-captured`` rates (U_s = 10, threshold 20 < λ): the other
#: side of the boundary, where most contacts are wasted and batched.
CAPTURED = SystemParameters.flash_crowd(
    10, arrival_rate=50.0, seed_rate=10.0, peer_rate=1.0, seed_departure_rate=2.0
)
SEED = 7
HORIZON = 200.0
INTERVAL = 0.5
EVENTS = 30_000

#: Where the gate-state searches start: past the ramp-up from empty, so the
#: gate has been through back-off cycles already.
SEARCH_FROM = 5_000


def _assert_same_run(result, reference):
    assert result.final_state == reference.final_state
    assert result.final_time == reference.final_time
    assert result.final_population == reference.final_population
    assert result.events_executed == reference.events_executed
    assert result.horizon_reached == reference.horizon_reached
    assert result.metrics == reference.metrics


def _gated_kernel(params=STABLE):
    """An array kernel on full draw blocks, so the batch stage can probe
    (under ``DRAW_BLOCK_SIZE=1`` there is never a block to probe)."""
    return make_simulator(
        params, seed=SEED, backend="array", draw_block_size=DEFAULT_BLOCK_SIZE
    )


def _suspend_when(predicate):
    """A gated kernel suspended at the first event boundary past
    ``SEARCH_FROM`` where ``predicate(kernel)`` holds."""
    kernel = _gated_kernel()
    result = kernel.run(
        HORIZON,
        sample_interval=INTERVAL,
        max_events=EVENTS,
        suspend_after_events=SEARCH_FROM,
    )
    while not predicate(kernel):
        assert result.suspended, "the gate state never occurred"
        result = kernel.run(
            HORIZON,
            resume=True,
            max_events=EVENTS,
            suspend_after_events=result.events_executed + 1,
        )
    assert result.suspended
    return kernel


def _backed_off(kernel):
    return kernel._probe_skip > 0


def _engaged(kernel):
    # Re-engaged after at least one back-off: the next entry probes.
    return kernel._probe_skip == 0 and kernel.probes_skipped > 0


GATE_STATES = {"backed-off": _backed_off, "engaged": _engaged}


@pytest.fixture(scope="module")
def reference():
    """Uninterrupted runs of both backends at the default block size."""
    return {
        backend: make_simulator(STABLE, seed=SEED, backend=backend).run(
            HORIZON, sample_interval=INTERVAL, max_events=EVENTS
        )
        for backend in ("object", "array")
    }


def test_backends_agree_on_the_stable_point(reference):
    result = reference["array"]
    assert not result.horizon_reached
    assert result.events_executed == EVENTS
    # Stable regime: most contacts transfer a piece.
    assert result.metrics.total_downloads > 2 * result.metrics.wasted_contacts
    _assert_same_run(result, reference["object"])


def test_gate_cycles_without_changing_the_trajectory(reference):
    kernel = _gated_kernel()
    result = kernel.run(HORIZON, sample_interval=INTERVAL, max_events=EVENTS)
    _assert_same_run(result, reference["object"])
    # Hundreds of back-off / re-engage cycles, most entries skipped, and
    # failed probes (yield below two events) still apply what they found.
    assert kernel.probes_run > 200
    assert kernel.probes_skipped > 20 * kernel.probes_run
    assert 0 < kernel.events_batched < kernel.probes_run


@pytest.mark.parametrize("state", sorted(GATE_STATES))
def test_round_trip_in_either_gate_state(reference, state):
    kernel = _suspend_when(GATE_STATES[state])
    snapshot = pickle.loads(pickle.dumps(kernel.capture_state()))
    fresh = make_simulator(STABLE, seed=SEED + 1, backend="array")
    fresh.restore_state(snapshot)
    resumed = fresh.run(HORIZON, resume=True, max_events=EVENTS)
    _assert_same_run(resumed, reference["object"])
    # The suspended kernel itself continues identically as well.
    continued = kernel.run(HORIZON, resume=True, max_events=EVENTS)
    _assert_same_run(continued, reference["object"])


def test_gate_state_stays_out_of_snapshots():
    kernel = _suspend_when(_backed_off)
    assert kernel.probes_run and kernel.probes_skipped
    captured = pickle.dumps(kernel.capture_state())
    kernel._reset_probe_gate()
    assert pickle.dumps(kernel.capture_state()) == captured
    assert b"probe" not in captured
    assert b"events_batched" not in captured


def test_gate_stays_out_of_the_way_when_captured():
    """From a 2000-peer one-club nearly every wasted tick is still batched:
    a batch that stops at a transfer does not back the gate off."""
    initial = SystemState.one_club(10, 2_000)
    run_kwargs = dict(
        initial_state=initial, sample_interval=INTERVAL, max_events=EVENTS
    )
    reference = make_simulator(CAPTURED, seed=SEED, backend="object").run(
        HORIZON, **run_kwargs
    )
    kernel = _gated_kernel(CAPTURED)
    result = kernel.run(HORIZON, **run_kwargs)
    _assert_same_run(result, reference)
    assert result.metrics.wasted_contacts > 0.8 * EVENTS
    assert kernel.events_batched > 0.9 * result.metrics.wasted_contacts


# -- the scalar walk and its escalation ----------------------------------------

WALK_RATES = dict(num_pieces=5, arrival_rate=3.2, seed_rate=0.5)
WALK_CLUB = 100
WALK_EVENTS = 5_000
WALK_HORIZON = 60.0

#: Captured points with uniform contacts, peer classes (the segment pick)
#: and an overlay (the neighbor-row target): (params, scenario).
WALK_POINTS = {
    "homogeneous": (base_params(**WALK_RATES), None),
    "free-rider": (None, make_scenario("free-rider", **WALK_RATES)),
    "sparse-overlay": (None, make_scenario("sparse-overlay", **WALK_RATES)),
}
#: Captured points under a rate schedule: thinning-rejected candidates break
#: the runs of wasted ticks and take the scalar path.
THINNED_POINTS = {
    name: (None, make_scenario(name, **WALK_RATES))
    for name in ("flash-crowd", "seed-outage")
}


def _walk_run(point, backend):
    """One run of a walk point; for the array backend also the number of
    batches that ended inside the walk and of probes that escalated."""
    params, scenario = {**WALK_POINTS, **THINNED_POINTS}[point]
    params = params if scenario is None else scenario.params
    kwargs = {"draw_block_size": DEFAULT_BLOCK_SIZE} if backend == "array" else {}
    simulator = make_simulator(
        params, seed=SEED, backend=backend, scenario=scenario, **kwargs
    )
    batches = {"walk": 0, "escalated": 0}
    if backend == "array":
        stage = simulator._batch_stage

        def counted(*args):
            probes, escalated = simulator.probes_run, simulator.probes_escalated
            applied = stage(*args)
            if simulator.probes_escalated > escalated:
                batches["escalated"] += 1
            elif simulator.probes_run > probes and applied:
                batches["walk"] += 1
            return applied

        simulator._batch_stage = counted
    result = simulator.run(
        WALK_HORIZON,
        initial_state=SystemState.one_club(WALK_RATES["num_pieces"], WALK_CLUB),
        sample_interval=INTERVAL,
        max_events=WALK_EVENTS,
    )
    return simulator, result, batches


@pytest.mark.parametrize("point", sorted(WALK_POINTS))
def test_walk_and_escalation_keep_the_trajectory(point):
    _, reference, _ = _walk_run(point, "object")
    kernel, result, batches = _walk_run(point, "array")
    _assert_same_run(result, reference)
    assert result.metrics.wasted_contacts > 0.8 * WALK_EVENTS
    assert batches["walk"] > 0
    assert batches["escalated"] > 0
    assert batches["escalated"] == kernel.probes_escalated


@pytest.mark.parametrize("point", sorted(THINNED_POINTS))
def test_thinned_candidates_take_the_scalar_path(point):
    """Under a schedule the batch stage still batches wasted ticks only:
    the thinned candidates between its runs are the scalar loop's."""
    _, reference, _ = _walk_run(point, "object")
    kernel, result, batches = _walk_run(point, "array")
    _assert_same_run(result, reference)
    assert result.metrics.thinned_events > 0
    assert batches["walk"] > 0
    assert batches["escalated"] > 0
    assert kernel.events_batched <= result.metrics.wasted_contacts


def test_batch_stage_counts_are_pinned():
    """The stage's deterministic counters on one fixed point, as the
    numpy-probe stage counted them: a change to the gate, the walk or the
    escalation shows up here as a count change."""
    kernel, result, _ = _walk_run("homogeneous", "array")
    assert result.events_executed == WALK_EVENTS
    assert (kernel.probes_run, kernel.probes_skipped, kernel.events_batched) == (
        591,
        554,
        4_225,
    )


def test_segment_pick_matches_the_vector_ticker():
    """``_batch_hetero_tickers`` (the escalated path) picks, uniform for
    uniform, the row the scalar segment pick does (the walk and the
    dispatch), including on and next to the segment boundaries."""
    _, scenario = WALK_POINTS["free-rider"]
    kernel = make_simulator(scenario.params, seed=SEED, backend="array", scenario=scenario)
    kernel.run(
        WALK_HORIZON,
        initial_state=SystemState.one_club(WALK_RATES["num_pieces"], WALK_CLUB),
        max_events=2_000,
    )
    segments = kernel._ticker_segments()
    assert len(segments) == 2, "both classes need members"
    boundaries = kernel._ticker_tables()["boundaries"]
    on_boundary = boundaries[:-1] / boundaries[-1]
    uniforms = np.concatenate(
        (
            np.random.default_rng(SEED).random(4_000),
            [0.0, np.nextafter(1.0, 0.0)],
            on_boundary,
            np.nextafter(on_boundary, 0.0),
            np.nextafter(on_boundary, 1.0),
        )
    )
    vector = kernel._batch_hetero_tickers(uniforms).tolist()
    scalar = [_pick_from_segments(segments, u) for u in uniforms.tolist()]
    assert vector == scalar


def test_segment_pick_sums_left_to_right():
    """The pick's total and bounds are left-to-right float sums, the same
    doubles as the ``cumsum`` tables of the vector ticker.  Here the two
    small widths vanish one at a time into 1.0 but not together, so a
    compensated total (``sum()`` on Python >= 3.12) would send the
    largest uniform to the last segment instead of the first."""
    small = 0.75 * 2.0**-53
    segments = [(1.0, [0]), (small, [1]), (small, [2])]
    assert np.cumsum([1.0, small, small])[-1] == 1.0
    assert _pick_from_segments(segments, np.nextafter(1.0, 0.0)) == 0
