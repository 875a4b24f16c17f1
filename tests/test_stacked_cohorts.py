"""Ragged-stack property tests for the stacked kernel's round loop.

Each round advances every active lane on its own and then classifies the
wasted-tick windows of all lanes together, so the loop's trickiest shapes
are *ragged* stacks: lanes that retire mid-round (event cap, absorption,
horizon) while others keep going, lanes whose piece counts and populations
differ wildly (heterogeneous window widths and ticker-table shapes), and
the degenerate 1-lane stack, which must collapse to exactly the solo
kernel's trajectory.  ``tests/test_stacked.py`` pins the headline
bit-identity contract; this file stresses the cross-lane machinery itself.
Chunk-size invariance of the fleet entry points rides along: sharding is
pure bookkeeping, so fingerprints cannot depend on it.
"""

import numpy as np
import pytest

from repro.core.parameters import SystemParameters
from repro.core.state import SystemState
from repro.core.types import PieceSet
from repro.fleet import (
    FixedSampler,
    FleetSpec,
    ScenarioWeight,
    run_fleet,
)
from repro.fleet.adaptive import AdaptiveFleetSpec, run_adaptive_fleet
from repro.swarm import ArraySwarmKernel, StackedSwarmKernel

HORIZON = 4.0
INTERVAL = 0.2


def mk_params(lam=6.0, num_pieces=10, **overrides):
    kwargs = dict(
        num_pieces=num_pieces,
        seed_rate=1.0,
        peer_rate=1.0,
        seed_departure_rate=0.5,
        arrival_rates={PieceSet.empty(num_pieces): lam},
    )
    kwargs.update(overrides)
    return SystemParameters(**kwargs)


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


def run_both(lanes, **run_kwargs):
    """Run (params, seed, initial_state) lanes solo and stacked; return both."""
    solos = []
    for params, seed, init in lanes:
        kernel = ArraySwarmKernel(params, seed=np.random.default_rng(seed))
        solos.append(
            kernel.run(
                HORIZON,
                initial_state=init,
                sample_interval=INTERVAL,
                **run_kwargs,
            )
        )
    stack = StackedSwarmKernel()
    for params, seed, _init in lanes:
        stack.add_lane(params, seed=np.random.default_rng(seed))
    stacked = stack.run_all(
        HORIZON,
        initial_states=[init for _params, _seed, init in lanes],
        sample_interval=INTERVAL,
        **run_kwargs,
    )
    return solos, stacked


class TestRaggedStacks:
    def test_single_lane_stack_equals_solo(self):
        """The degenerate 1-lane stack is the solo kernel, round loop and all."""
        lanes = [(mk_params(), 11, SystemState.one_club(10, 150))]
        solos, stacked = run_both(lanes)
        assert result_tuple(solos[0]) == result_tuple(stacked[0])

    def test_lanes_retire_at_different_rounds(self):
        """Lanes finishing at very different event counts — early absorption
        of a tiny no-arrival swarm, a hot lane hitting the event cap, a calm
        lane running to the horizon — stay bit-identical to solo while the
        survivors keep dispatching through the rounds the retirees left."""
        lanes = [
            # Tiny population, negligible arrivals: absorbs almost at once.
            (mk_params(lam=0.01), 21, SystemState.one_club(10, 4)),
            # Hot swarm: hits the shared event cap long before the horizon.
            (mk_params(lam=25.0), 22, SystemState.one_club(10, 400)),
            (mk_params(lam=6.0), 23, SystemState.one_club(10, 80)),
            (mk_params(lam=0.5), 24, SystemState.one_club(10, 12)),
        ]
        solos, stacked = run_both(lanes, max_events=300)
        for index, (solo, lane) in enumerate(zip(solos, stacked)):
            assert result_tuple(solo) == result_tuple(lane), f"lane {index}"
        # The stack really was ragged: retirement times differ across lanes.
        assert len({lane.events_executed for lane in stacked}) > 1
        assert len({lane.final_time for lane in stacked}) > 1

    def test_heterogeneous_piece_counts_and_populations(self):
        """Lanes with different K (including K > 16, the census bincount
        cutover) and very different population sizes share one stack."""
        lanes = [
            (mk_params(num_pieces=3), 31, SystemState.one_club(3, 20)),
            (mk_params(num_pieces=5, lam=12.0), 32, SystemState.one_club(5, 250)),
            (mk_params(num_pieces=16), 33, SystemState.one_club(16, 60)),
            (mk_params(num_pieces=33, lam=2.0), 34, SystemState.one_club(33, 15)),
        ]
        solos, stacked = run_both(lanes, max_events=400)
        for index, (solo, lane) in enumerate(zip(solos, stacked)):
            assert result_tuple(solo) == result_tuple(lane), f"lane {index}"


def fleet_spec(num_swarms=9) -> FleetSpec:
    return FleetSpec(
        name="chunk-invariance",
        num_swarms=num_swarms,
        sampler=FixedSampler.of(
            num_pieces=6,
            arrival_rate=5.0,
            seed_rate=1.0,
            peer_rate=1.0,
            seed_departure_rate=1.0,
        ),
        scenario_mix=(
            ScenarioWeight.of(None, weight=1.0),
            ScenarioWeight.of("free-rider", weight=1.0, leech_fraction=0.5),
        ),
        horizon=3.0,
        max_events=200,
        backend="array",
        initial_club_size=25,
    )


class TestChunkSizeInvariance:
    @pytest.mark.parametrize("stacked", [False, True])
    def test_run_fleet_fingerprint_chunk_invariant(self, stacked):
        """Sharding is pure bookkeeping: any explicit ``chunk_size`` yields
        the exact fingerprint of the heuristic default, on both paths."""
        spec = fleet_spec()
        reference = run_fleet(spec, seed=13, stacked=stacked).fingerprint()
        for chunk_size in (1, 4, 100):
            result = run_fleet(
                spec, seed=13, stacked=stacked, chunk_size=chunk_size
            )
            assert result.fingerprint() == reference, f"chunk_size={chunk_size}"

    def test_run_adaptive_fleet_fingerprint_chunk_invariant(self):
        spec = AdaptiveFleetSpec.of(
            "chunk-invariance-adaptive",
            arrival_rates=(0.5, 2.0, 6.0),
            seed_rates=(0.5, 2.0),
            num_pieces=4,
            swarm_budget=16,
            round_size=8,
            horizon=3.0,
            max_events=200,
            initial_club_size=12,
        )
        reference = run_adaptive_fleet(spec, seed=13).fingerprint()
        for chunk_size in (1, 3, 50):
            result = run_adaptive_fleet(spec, seed=13, chunk_size=chunk_size)
            assert result.fingerprint() == reference, f"chunk_size={chunk_size}"

    def test_chunk_size_validation(self):
        with pytest.raises(ValueError, match="chunk_size"):
            run_fleet(fleet_spec(), seed=13, chunk_size=0)
        with pytest.raises(ValueError, match="chunk_size"):
            run_adaptive_fleet(
                AdaptiveFleetSpec.of(
                    "bad-chunk",
                    arrival_rates=(1.0,),
                    seed_rates=(1.0,),
                    swarm_budget=2,
                ),
                chunk_size=-1,
            )
