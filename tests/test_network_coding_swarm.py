"""Tests for the network-coded swarm simulator (Theorem 15)."""

import bisect
import math

import pytest

from repro.swarm.network_coding import (
    CodedArrivalSpec,
    CodedSwarmSimulator,
    gifted_fraction_arrivals,
)


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            CodedSwarmSimulator(0, 5, [CodedArrivalSpec(1.0)])
        with pytest.raises(ValueError):
            CodedSwarmSimulator(4, 4, [CodedArrivalSpec(1.0)])  # not prime
        with pytest.raises(ValueError):
            CodedSwarmSimulator(4, 5, [CodedArrivalSpec(0.0)])
        with pytest.raises(ValueError):
            CodedSwarmSimulator(4, 5, [CodedArrivalSpec(1.0)], peer_rate=0.0)
        with pytest.raises(ValueError):
            CodedSwarmSimulator(4, 5, [CodedArrivalSpec(1.0)], seed_rate=-1.0)

    def test_arrival_spec_validation(self):
        with pytest.raises(ValueError):
            CodedArrivalSpec(rate=-1.0)
        with pytest.raises(ValueError):
            CodedArrivalSpec(rate=1.0, num_coded_pieces=-1)

    def test_gifted_fraction_arrivals_split(self):
        empty, gifted = gifted_fraction_arrivals(4.0, 0.25)
        assert empty.rate == pytest.approx(3.0)
        assert gifted.rate == pytest.approx(1.0)
        assert gifted.num_coded_pieces == 1
        with pytest.raises(ValueError):
            gifted_fraction_arrivals(1.0, 1.5)


class TestDynamics:
    def test_seed_driven_swarm_completes_peers(self):
        """With a fixed seed, empty-handed peers complete and depart."""
        simulator = CodedSwarmSimulator(
            num_pieces=4,
            field_size=5,
            arrivals=[CodedArrivalSpec(rate=0.5, num_coded_pieces=0)],
            seed_rate=3.0,
            seed=0,
        )
        result = simulator.run(horizon=120.0)
        assert result.metrics.total_departures > 10
        assert result.final_population < 30

    def test_population_bookkeeping(self):
        simulator = CodedSwarmSimulator(
            num_pieces=4,
            field_size=3,
            arrivals=[CodedArrivalSpec(rate=1.0, num_coded_pieces=1)],
            seed_rate=1.0,
            seed=1,
        )
        result = simulator.run(horizon=60.0)
        metrics = result.metrics
        assert result.final_population == metrics.total_arrivals - metrics.total_departures

    def test_peer_seeds_dwell_with_finite_gamma(self):
        simulator = CodedSwarmSimulator(
            num_pieces=3,
            field_size=3,
            arrivals=[CodedArrivalSpec(rate=0.5, num_coded_pieces=0)],
            seed_rate=3.0,
            seed_departure_rate=0.5,
            seed=2,
        )
        result = simulator.run(horizon=80.0)
        assert max(result.metrics.num_seeds) >= 1

    def test_reproducibility(self):
        def run(seed):
            simulator = CodedSwarmSimulator(
                num_pieces=4,
                field_size=5,
                arrivals=gifted_fraction_arrivals(1.5, 0.5),
                seed=seed,
            )
            return simulator.run(horizon=50.0).metrics.population

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_high_gifted_fraction_is_stable(self):
        """Above the Theorem-15 threshold the coded swarm stays small."""
        simulator = CodedSwarmSimulator(
            num_pieces=6,
            field_size=5,
            arrivals=gifted_fraction_arrivals(2.0, 0.6),
            seed=3,
        )
        result = simulator.run(horizon=150.0, max_population=2000)
        assert result.final_population < 60

    def test_low_gifted_fraction_grows(self):
        """Well below the threshold the coded swarm accumulates peers."""
        simulator = CodedSwarmSimulator(
            num_pieces=6,
            field_size=5,
            arrivals=gifted_fraction_arrivals(2.0, 0.02),
            seed=4,
        )
        result = simulator.run(horizon=150.0, max_population=2000)
        assert result.final_population > 120

    def test_min_dimension_tracks_syndrome(self):
        simulator = CodedSwarmSimulator(
            num_pieces=5,
            field_size=3,
            arrivals=gifted_fraction_arrivals(2.0, 0.02),
            seed=5,
        )
        result = simulator.run(horizon=100.0, max_population=2000)
        # Peers pile up one innovation short (or less); the minimum dimension
        # among stuck peers stays below K.
        assert result.final_min_dimension < 5

    def test_invalid_horizon(self):
        simulator = CodedSwarmSimulator(
            num_pieces=3, field_size=3, arrivals=[CodedArrivalSpec(1.0)], seed=6
        )
        with pytest.raises(ValueError):
            simulator.run(horizon=-1.0)


class TestSampleGrid:
    """Every sampled row holds the state of its gap between events.

    A twin from the same seed is stepped one event at a time with
    ``step()``, which draws exactly what ``run`` draws per event; the state
    is read between steps with the public accessors.  The row at grid time
    ``t`` must hold the state after every event at or before ``t`` (after
    the capped event count for the trailing flush of a capped run).
    """

    HORIZON = 30.0
    INTERVAL = 0.7
    CAP = 120

    @staticmethod
    def _simulator():
        return CodedSwarmSimulator(
            num_pieces=4,
            field_size=3,
            arrivals=gifted_fraction_arrivals(2.0, 0.2),
            seed_rate=0.5,
            seed_departure_rate=0.8,
            seed=12,
        )

    @pytest.mark.parametrize("end", ["horizon", "flush"])
    def test_rows_hold_the_state_of_their_gap(self, end):
        max_events = self.CAP if end == "flush" else None
        result = self._simulator().run(
            self.HORIZON, sample_interval=self.INTERVAL, max_events=max_events
        )
        assert result.horizon_reached == (end == "horizon")

        twin = self._simulator()
        clocks, states = [], []
        while True:
            clocks.append(twin._time)
            states.append(
                (
                    twin.population,
                    twin.num_seeds,
                    twin.one_club_size(),
                    twin.min_dimension(),
                )
            )
            if twin._time > self.HORIZON or (end == "flush" and len(states) > self.CAP):
                break
            if not twin.step():
                clocks.append(math.inf)
                break

        metrics = result.metrics
        grid, time = [], 0.0
        while time <= self.HORIZON:
            grid.append(time)
            time += self.INTERVAL
        assert metrics.sample_times == grid
        for index, time in enumerate(grid):
            segment = bisect.bisect_right(clocks, time) - 1
            if max_events is not None:
                segment = min(segment, max_events)
            row = (
                metrics.population[index],
                metrics.num_seeds[index],
                metrics.one_club_size[index],
                metrics.min_piece_count[index],
            )
            assert row == states[segment], (index, time)
        assert len(set(metrics.population)) > 3
