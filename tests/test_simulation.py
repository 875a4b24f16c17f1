"""Unit tests for the simulation substrates (rng, processes, ctmc)."""

import math

import numpy as np
import pytest

from repro.simulation.ctmc import GenericCtmcSimulator, MarkovChainSimulator
from repro.simulation.processes import CompoundPoissonProcess, kingman_exceedance_bound
from repro.simulation.rng import (
    exponential,
    make_rng,
    poisson_arrival_times,
    spawn_generators,
)
from repro.core.parameters import SystemParameters
from repro.core.state import SystemState


class TestRng:
    def test_make_rng_from_int_is_deterministic(self):
        a = make_rng(42).integers(0, 1000, size=5)
        b = make_rng(42).integers(0, 1000, size=5)
        assert np.array_equal(a, b)

    def test_make_rng_passthrough(self):
        rng = np.random.default_rng(1)
        assert make_rng(rng) is rng

    def test_spawn_generators_independent_and_reproducible(self):
        first = [g.integers(0, 10**6) for g in spawn_generators(7, 3)]
        second = [g.integers(0, 10**6) for g in spawn_generators(7, 3)]
        assert first == second
        assert len(set(first)) == 3

    def test_spawn_generators_count_validation(self):
        with pytest.raises(ValueError):
            spawn_generators(1, -1)
        assert spawn_generators(1, 0) == []

    def test_exponential_zero_rate_is_infinite(self, rng):
        assert math.isinf(exponential(rng, 0.0))
        with pytest.raises(ValueError):
            exponential(rng, -1.0)

    def test_exponential_mean(self, rng):
        samples = [exponential(rng, 4.0) for _ in range(4000)]
        assert np.mean(samples) == pytest.approx(0.25, rel=0.1)

    def test_poisson_arrival_times_sorted_within_horizon(self, rng):
        times = poisson_arrival_times(rng, rate=3.0, horizon=50.0)
        assert (np.diff(times) >= 0).all()
        assert times.min() >= 0 and times.max() <= 50.0

    def test_poisson_arrival_count_mean(self, rng):
        counts = [poisson_arrival_times(rng, 2.0, 10.0).size for _ in range(300)]
        assert np.mean(counts) == pytest.approx(20.0, rel=0.1)

    def test_poisson_zero_rate(self, rng):
        assert poisson_arrival_times(rng, 0.0, 10.0).size == 0


class TestProcesses:
    def test_compound_poisson_cumulative(self, rng):
        process = CompoundPoissonProcess.with_constant_batches(rate=2.0, batch=3.0)
        sample = process.sample(horizon=100.0, seed=rng)
        cumulative = sample.cumulative_at([0.0, 50.0, 100.0])
        assert cumulative[0] == 0.0
        assert cumulative[-1] == pytest.approx(sample.total)
        assert (np.diff(cumulative) >= 0).all()

    def test_compound_poisson_mean_rate(self):
        process = CompoundPoissonProcess.with_constant_batches(rate=2.0, batch=3.0)
        assert process.mean_rate() == pytest.approx(6.0)

    def test_kingman_bound_properties(self):
        bound = kingman_exceedance_bound(1.0, 2.0, 6.0, offset=20.0, slope=3.0)
        assert 0 <= bound <= 1
        # Larger offset gives a smaller bound.
        tighter = kingman_exceedance_bound(1.0, 2.0, 6.0, offset=40.0, slope=3.0)
        assert tighter <= bound
        # Slope below the drift makes the bound vacuous.
        assert kingman_exceedance_bound(1.0, 2.0, 6.0, offset=20.0, slope=1.0) == 1.0

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            CompoundPoissonProcess(-1.0, lambda rng, n: np.ones(n))


class TestGenericCtmc:
    def test_two_state_chain_occupancy(self):
        """A symmetric two-state chain spends about half its time in each state."""
        transitions = {0: [(1.0, 1)], 1: [(1.0, 0)]}
        simulator = GenericCtmcSimulator(lambda s: transitions[s], observe=float)
        trajectory = simulator.run(0, horizon=2000.0, seed=3, sample_interval=1.0)
        assert trajectory.sample_values().mean() == pytest.approx(0.5, abs=0.05)

    def test_absorbing_state_stops_jumps(self):
        transitions = {0: [(1.0, 1)], 1: []}
        simulator = GenericCtmcSimulator(lambda s: transitions[s])
        trajectory = simulator.run(0, horizon=100.0, seed=1)
        assert trajectory.final_state == 1
        assert trajectory.total_jumps == 1

    def test_stop_condition(self):
        transitions = {i: [(1.0, i + 1)] for i in range(100)}
        simulator = GenericCtmcSimulator(lambda s: transitions.get(s, []))
        trajectory = simulator.run(
            0, horizon=1e6, seed=2, stop_condition=lambda s: s >= 5
        )
        assert trajectory.final_state == 5

    def test_max_jumps_cap(self):
        transitions = {0: [(1.0, 0)]}
        simulator = GenericCtmcSimulator(lambda s: transitions[s])
        trajectory = simulator.run(0, horizon=1e9, seed=4, max_jumps=10)
        assert trajectory.total_jumps == 10

    def test_invalid_horizon(self):
        simulator = GenericCtmcSimulator(lambda s: [])
        with pytest.raises(ValueError):
            simulator.run(0, horizon=0.0)

    def test_record_jumps(self):
        transitions = {0: [(1.0, 1)], 1: [(1.0, 0)]}
        simulator = GenericCtmcSimulator(lambda s: transitions[s])
        trajectory = simulator.run(0, horizon=10.0, seed=5, record_jumps=True)
        assert len(trajectory.jumps) == trajectory.total_jumps


class TestMarkovChainSimulator:
    def test_population_observable(self, flash_crowd_stable):
        simulator = MarkovChainSimulator(flash_crowd_stable)
        trajectory = simulator.run(horizon=100.0, seed=0)
        values = trajectory.sample_values()
        assert values.min() >= 0
        assert trajectory.final_state.total_peers >= 0

    def test_stable_system_stays_bounded(self, flash_crowd_stable):
        simulator = MarkovChainSimulator(flash_crowd_stable)
        trajectory = simulator.run(horizon=300.0, seed=1)
        assert trajectory.sample_values().max() < 60

    def test_unstable_system_grows(self, flash_crowd_unstable):
        simulator = MarkovChainSimulator(flash_crowd_unstable)
        trajectory = simulator.run(horizon=150.0, seed=2)
        values = trajectory.sample_values()
        assert values[-1] > 100
        # Roughly linear growth at rate close to lambda - Us.
        slope = values[-1] / trajectory.sample_times()[-1]
        assert slope == pytest.approx(4.0, rel=0.4)

    def test_custom_observable(self, flash_crowd_unstable):
        simulator = MarkovChainSimulator(flash_crowd_unstable)
        trajectory = simulator.run(
            horizon=80.0,
            seed=3,
            observe=lambda state: float(state.one_club_size()),
        )
        assert trajectory.sample_values().max() >= 0

    def test_custom_initial_state(self, flash_crowd_stable):
        start = SystemState.one_club(3, 30)
        simulator = MarkovChainSimulator(flash_crowd_stable)
        trajectory = simulator.run(initial_state=start, horizon=5.0, seed=4)
        assert trajectory.initial_state == start
