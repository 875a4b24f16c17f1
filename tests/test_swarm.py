"""Unit and behavioural tests for the peer-level swarm simulator."""

import math

import numpy as np
import pytest

from repro.core.parameters import SystemParameters
from repro.core.state import SystemState
from repro.core.types import PieceSet
from repro.fleet import AdaptiveFleetSpec, FleetSpec
from repro.swarm.metrics import SwarmMetrics
from repro.swarm.network_coding import CodedArrivalSpec, CodedSwarmSimulator
from repro.swarm.policies import RarestFirstSelection
from repro.swarm.swarm import BACKENDS, SwarmSimulator, run_swarm


class TestMechanics:
    def test_population_bookkeeping(self, flash_crowd_stable):
        simulator = SwarmSimulator(flash_crowd_stable, seed=0)
        result = simulator.run(horizon=30.0)
        metrics = result.metrics
        assert metrics.total_arrivals >= metrics.total_departures
        assert result.final_population == metrics.total_arrivals - metrics.total_departures
        assert result.final_state.total_peers == result.final_population

    def test_seeded_initial_population(self, flash_crowd_stable):
        initial = SystemState.one_club(3, 25)
        simulator = SwarmSimulator(flash_crowd_stable, seed=1)
        simulator.seed_population(initial)
        assert simulator.population == 25
        assert simulator.one_club_size() == 25
        assert simulator.metrics.total_arrivals == 0

    def test_current_state_counts_types(self, flash_crowd_stable):
        simulator = SwarmSimulator(flash_crowd_stable, seed=2)
        simulator.seed_population(
            SystemState({PieceSet((1,), 3): 2, PieceSet((2, 3), 3): 3}, 3)
        )
        state = simulator.current_state()
        assert state.count(PieceSet((1,), 3)) == 2
        assert state.count(PieceSet((2, 3), 3)) == 3

    def test_departed_peers_leave_the_population(self):
        """With gamma = inf every completed peer leaves immediately."""
        params = SystemParameters.flash_crowd(2, arrival_rate=1.0, seed_rate=3.0)
        result = run_swarm(params, horizon=80.0, seed=3)
        for peer_type, _count in result.final_state.items():
            assert not peer_type.is_complete

    def test_peer_seeds_dwell_when_gamma_finite(self, example1_params):
        simulator = SwarmSimulator(example1_params, seed=4)
        result = simulator.run(horizon=100.0)
        # Some samples should have recorded dwelling peer seeds.
        assert max(result.metrics.num_seeds) >= 1

    def test_sojourn_times_positive(self, flash_crowd_stable):
        result = run_swarm(flash_crowd_stable, horizon=60.0, seed=5)
        assert all(t >= 0 for t in result.metrics.sojourn_times)
        assert result.metrics.mean_download_time() > 0

    def test_max_population_cap_stops_run(self, flash_crowd_unstable):
        result = run_swarm(
            flash_crowd_unstable, horizon=10_000.0, seed=6, max_population=200
        )
        assert not result.horizon_reached
        assert result.final_population >= 200

    def test_max_events_cap(self, flash_crowd_stable):
        result = run_swarm(flash_crowd_stable, horizon=10_000.0, seed=7, max_events=50)
        assert not result.horizon_reached

    def test_invalid_horizon(self, flash_crowd_stable):
        simulator = SwarmSimulator(flash_crowd_stable, seed=8)
        with pytest.raises(ValueError):
            simulator.run(horizon=0.0)

    def test_invalid_retry_speedup(self, flash_crowd_stable):
        with pytest.raises(ValueError):
            SwarmSimulator(flash_crowd_stable, retry_speedup=0.5)

    def test_invalid_rare_piece(self, flash_crowd_stable):
        with pytest.raises(ValueError):
            SwarmSimulator(flash_crowd_stable, rare_piece=7)

    def test_reproducibility(self, flash_crowd_stable):
        first = run_swarm(flash_crowd_stable, horizon=40.0, seed=99)
        second = run_swarm(flash_crowd_stable, horizon=40.0, seed=99)
        assert first.metrics.population == second.metrics.population
        assert first.metrics.total_downloads == second.metrics.total_downloads

    def test_different_seeds_differ(self, flash_crowd_stable):
        first = run_swarm(flash_crowd_stable, horizon=40.0, seed=1)
        second = run_swarm(flash_crowd_stable, horizon=40.0, seed=2)
        assert first.metrics.population != second.metrics.population


#: Grid inputs that would hang a run (a zero, negative or infinite walk)
#: or leave it without a single sample (a NaN horizon).
BAD_GRIDS = [
    pytest.param({"horizon": 10.0, "sample_interval": 0.0}, id="interval-zero"),
    pytest.param({"horizon": 10.0, "sample_interval": -1.0}, id="interval-negative"),
    pytest.param(
        {"horizon": 10.0, "sample_interval": math.inf}, id="interval-infinite"
    ),
    pytest.param({"horizon": 10.0, "sample_interval": math.nan}, id="interval-nan"),
    pytest.param({"horizon": math.inf}, id="horizon-infinite"),
    pytest.param({"horizon": math.nan}, id="horizon-nan"),
    pytest.param({"horizon": -1.0}, id="horizon-negative"),
]


class TestSampleGridValidation:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("grid", BAD_GRIDS)
    def test_run_rejects_the_grid(self, flash_crowd_stable, backend, grid):
        with pytest.raises(ValueError, match="finite and positive"):
            run_swarm(
                flash_crowd_stable, seed=0, backend=backend, max_events=500, **grid
            )

    @pytest.mark.parametrize("grid", BAD_GRIDS)
    def test_fleet_specs_reject_the_grid(self, grid):
        with pytest.raises(ValueError, match="finite and positive"):
            FleetSpec(name="bad-grid", num_swarms=2, **grid)
        with pytest.raises(ValueError, match="finite and positive"):
            AdaptiveFleetSpec.of("bad-grid", (1.0, 2.0), (1.0, 2.0), **grid)

    @pytest.mark.parametrize("grid", BAD_GRIDS)
    def test_coded_run_rejects_the_grid(self, grid):
        simulator = CodedSwarmSimulator(2, 5, [CodedArrivalSpec(1.0)], seed=0)
        with pytest.raises(ValueError, match="finite and positive"):
            simulator.run(max_events=500, **grid)


class TestSamplingAndMetrics:
    def test_sample_grid_regular(self, flash_crowd_stable):
        result = run_swarm(
            flash_crowd_stable, horizon=50.0, seed=0, sample_interval=5.0
        )
        times = result.metrics.times_array()
        assert times.size == 11
        assert np.allclose(np.diff(times), 5.0)

    def test_group_tracking_optional(self, flash_crowd_stable):
        with_groups = SwarmSimulator(flash_crowd_stable, seed=1, track_groups=True)
        result = with_groups.run(horizon=20.0)
        assert len(result.metrics.group_snapshots) == len(result.metrics.sample_times)
        without = SwarmSimulator(flash_crowd_stable, seed=1)
        assert without.run(horizon=20.0).metrics.group_snapshots == []

    def test_group_totals_match_population(self, flash_crowd_stable):
        simulator = SwarmSimulator(flash_crowd_stable, seed=2, track_groups=True)
        result = simulator.run(horizon=30.0)
        for snapshot, population in zip(
            result.metrics.group_snapshots, result.metrics.population
        ):
            assert snapshot.total == population

    def test_metrics_summary_keys(self, flash_crowd_stable):
        summary = run_swarm(flash_crowd_stable, horizon=20.0, seed=3).metrics.summary()
        for key in (
            "final_population",
            "mean_population",
            "population_slope",
            "total_downloads",
            "mean_sojourn_time",
        ):
            assert key in summary

    def test_metrics_empty(self):
        metrics = SwarmMetrics()
        assert metrics.final_population == 0
        assert metrics.population_slope() == 0.0
        assert math.isnan(metrics.mean_sojourn_time())
        assert metrics.fraction_time_empty() == 0.0


class TestBehaviour:
    def test_stable_system_stays_small(self, flash_crowd_stable):
        result = run_swarm(flash_crowd_stable, horizon=300.0, seed=10)
        assert result.metrics.peak_population < 80
        assert abs(result.metrics.population_slope()) < 0.1

    def test_unstable_system_grows_linearly(self, flash_crowd_unstable):
        result = run_swarm(flash_crowd_unstable, horizon=150.0, seed=11)
        # Growth rate approx lambda - Us = 4 peers per unit time.
        slope = result.metrics.population_slope()
        assert slope > 2.0
        assert result.final_population > 300

    def test_missing_piece_becomes_rare_in_unstable_system(self, flash_crowd_unstable):
        result = run_swarm(flash_crowd_unstable, horizon=120.0, seed=12)
        metrics = result.metrics
        # Which piece the one club forms around is trajectory-dependent, so
        # check the club with respect to each piece and take the largest.
        club_sizes = [
            result.final_state.one_club_size(piece) for piece in (1, 2, 3)
        ]
        # The one club dominates: min piece count stays far below the population.
        assert max(club_sizes) > 0.5 * metrics.population[-1]
        assert metrics.min_piece_count[-1] < 0.2 * metrics.population[-1]

    def test_one_club_drains_in_stable_system(self, flash_crowd_stable):
        initial = SystemState.one_club(3, 50)
        result = run_swarm(
            flash_crowd_stable, horizon=200.0, seed=13, initial_state=initial
        )
        assert result.metrics.one_club_size[-1] < 15

    def test_example1_mean_sojourn_reasonable(self):
        """Example 1 far inside stability: mean sojourn ~ download + dwell time."""
        params = SystemParameters.single_piece(
            arrival_rate=0.5, seed_rate=4.0, peer_rate=1.0, seed_departure_rate=1.0
        )
        result = run_swarm(params, horizon=400.0, seed=14)
        assert result.metrics.mean_sojourn_time() > 1.0  # at least the dwell time

    def test_dwell_time_stabilises_otherwise_unstable_system(self):
        """gamma <= mu rescues a system that is unstable with gamma = inf."""
        base = SystemParameters.flash_crowd(
            3, arrival_rate=2.0, seed_rate=0.3, peer_rate=1.0
        )
        unstable = run_swarm(base, horizon=150.0, seed=18, max_population=2000)
        stable = run_swarm(
            base.with_departure_rate(0.8), horizon=150.0, seed=18, max_population=2000
        )
        assert unstable.final_population > 5 * max(stable.final_population, 1)

    def test_rarest_first_policy_runs(self, flash_crowd_stable):
        result = run_swarm(
            flash_crowd_stable, horizon=100.0, seed=16, policy=RarestFirstSelection()
        )
        assert result.metrics.total_downloads > 0
        assert result.metrics.peak_population < 100

    def test_retry_speedup_accepted_and_runs(self, flash_crowd_stable):
        result = run_swarm(flash_crowd_stable, horizon=50.0, seed=17, retry_speedup=5.0)
        assert result.metrics.total_downloads > 0

    def test_gifted_arrivals_carry_pieces(self, gifted_params):
        simulator = SwarmSimulator(gifted_params, seed=18)
        result = simulator.run(horizon=50.0)
        # Some arrivals hold piece 1 on arrival, so piece 1 is never globally rare
        # for long; total downloads should also be positive.
        assert result.metrics.total_downloads > 0
