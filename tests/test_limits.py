"""Tests for the mu = infinity watched process and the fluid limit."""

import math
import signal

import numpy as np
import pytest

from repro.core.parameters import SystemParameters
from repro.core.types import PieceSet
from repro.limits.fluid import FluidModel
from repro.limits.mu_infinity import (
    MuInfinityChain,
    finite_mu_symmetric_chain_simulation,
    negative_binomial_pmf,
)


class TestMuInfinityChain:
    def test_validation(self):
        with pytest.raises(ValueError):
            MuInfinityChain(num_pieces=1, arrival_rate_per_piece=1.0)
        with pytest.raises(ValueError):
            MuInfinityChain(num_pieces=3, arrival_rate_per_piece=0.0)

    def test_negative_binomial_pmf_sums_to_one(self):
        total = sum(negative_binomial_pmf(3, k) for k in range(200))
        assert total == pytest.approx(1.0, abs=1e-9)
        with pytest.raises(ValueError):
            negative_binomial_pmf(0, 1)

    def test_total_rate_from_any_state_is_arrival_rate(self):
        """Only arrivals trigger transitions of the watched process."""
        chain = MuInfinityChain(num_pieces=3, arrival_rate_per_piece=1.5)
        for state in ((0, 0), (1, 1), (4, 1), (4, 2), (30, 2)):
            total = sum(rate for rate, _ in chain.transitions(state))
            assert total == pytest.approx(chain.total_arrival_rate, rel=1e-6)

    def test_lower_layer_transitions(self):
        chain = MuInfinityChain(num_pieces=4, arrival_rate_per_piece=1.0)
        options = dict()
        for rate, target in chain.transitions((5, 2)):
            options[target] = options.get(target, 0.0) + rate
        assert options[(6, 2)] == pytest.approx(2.0)  # arrival with a held piece
        assert options[(6, 3)] == pytest.approx(2.0)  # arrival with a new piece

    def test_empty_state_transition(self):
        chain = MuInfinityChain(num_pieces=3, arrival_rate_per_piece=2.0)
        options = chain.transitions((0, 0))
        assert options == [(6.0, (1, 1))]

    def test_invalid_state_rejected(self):
        chain = MuInfinityChain(num_pieces=3, arrival_rate_per_piece=1.0)
        with pytest.raises(ValueError):
            chain.transitions((3, 5))

    def test_top_layer_outcomes_population_bounds(self):
        chain = MuInfinityChain(num_pieces=3, arrival_rate_per_piece=1.0)
        for rate, (population, pieces) in chain.transitions((6, 2)):
            assert rate > 0
            assert 1 <= population <= 7
            assert 1 <= pieces <= 2

    def test_top_layer_drift_is_zero(self):
        for num_pieces in (2, 3, 5):
            chain = MuInfinityChain(num_pieces=num_pieces, arrival_rate_per_piece=0.7)
            assert chain.top_layer_drift() == pytest.approx(0.0)

    def test_top_layer_mean_jump_zero_from_transitions(self):
        """The enumerated outcome distribution has (nearly) zero mean population change."""
        chain = MuInfinityChain(num_pieces=3, arrival_rate_per_piece=1.0)
        population = 40
        mean_change = sum(
            rate * (target[0] - population)
            for rate, target in chain.transitions((population, 2))
        )
        # Exactly zero up to the boundary effect, which is tiny for population 40.
        assert mean_change == pytest.approx(0.0, abs=1e-6)

    def test_simulation_runs(self):
        chain = MuInfinityChain(num_pieces=3, arrival_rate_per_piece=1.0)
        trajectory = chain.simulate(horizon=50.0, seed=0)
        assert trajectory.sample_values().min() >= 0

    def test_excursion_peaks_grow_with_sample_size(self):
        """Null recurrence: the running mean of excursion peaks keeps growing."""
        chain = MuInfinityChain(num_pieces=3, arrival_rate_per_piece=1.0)
        peaks = chain.excursion_peaks(600, seed=1)
        early = np.mean(peaks[:100])
        late = np.mean(peaks)
        assert late > early

    def test_excursion_peaks_heavy_tailed(self):
        """Peak sizes are heavy tailed: the maximum dwarfs the median."""
        chain = MuInfinityChain(num_pieces=3, arrival_rate_per_piece=1.0)
        peaks = np.array(chain.excursion_peaks(600, seed=42))
        assert np.max(peaks) > 30 * np.median(peaks)
        assert np.max(peaks) > 200

    def test_excursion_peaks_reproducible(self):
        chain = MuInfinityChain(num_pieces=3, arrival_rate_per_piece=1.0)
        assert chain.excursion_peaks(30, seed=5) == chain.excursion_peaks(30, seed=5)

    def test_finite_mu_simulation_wrapper(self):
        result = finite_mu_symmetric_chain_simulation(
            num_pieces=3,
            arrival_rate_per_piece=0.5,
            mu=1.0,
            horizon=30.0,
            seed=1,
            max_population=500,
        )
        assert result.metrics.total_arrivals > 0


class TestFluidModel:
    def test_stable_fluid_reaches_small_fixed_point(self, flash_crowd_stable):
        model = FluidModel(flash_crowd_stable)
        trajectory = model.integrate(horizon=200.0)
        mass = trajectory.total_mass()
        assert mass[-1] < 30
        # Mass stabilises: the last two samples are close.
        assert abs(mass[-1] - mass[-2]) < 0.5

    def test_unstable_fluid_quasi_stable_from_empty_start(self, flash_crowd_unstable):
        """The fluid limit from an empty start misses the missing piece syndrome.

        This reproduces the Section-IX remark: a provably transient system can
        look well behaved (a quasi-stable equilibrium) when the piece
        distribution stays symmetric — the instability is driven by the
        asymmetric one-club states, not by the symmetric fluid dynamics.
        """
        model = FluidModel(flash_crowd_unstable)
        trajectory = model.integrate(horizon=150.0)
        assert trajectory.total_mass()[-1] < 60

    def test_unstable_fluid_grows_from_one_club_start(self, flash_crowd_unstable):
        """Seeded with a large one club, the fluid one-club mass grows at ~lambda - Us."""
        club = PieceSet((2, 3), 3)
        model = FluidModel(flash_crowd_unstable)
        trajectory = model.integrate(horizon=30.0, initial={club: 200.0})
        mass = trajectory.mass_of(club)
        growth = (mass[-1] - mass[0]) / 30.0
        assert growth == pytest.approx(4.0, rel=0.4)
        # Total mass grows at essentially the same net rate.
        total = trajectory.total_mass()
        assert (total[-1] - total[0]) / 30.0 == pytest.approx(4.0, rel=0.2)

    def test_concentrations_stay_nonnegative(self, example3_params):
        model = FluidModel(example3_params)
        trajectory = model.integrate(horizon=80.0)
        assert (trajectory.concentrations >= -1e-9).all()

    def test_seed_dwell_creates_full_type_mass(self, example3_params):
        model = FluidModel(example3_params)
        trajectory = model.integrate(horizon=80.0)
        full_mass = trajectory.mass_of(PieceSet.full(3))
        assert full_mass[-1] > 0.1

    def test_initial_condition_respected(self, flash_crowd_stable):
        club = PieceSet((2, 3), 3)
        model = FluidModel(flash_crowd_stable)
        trajectory = model.integrate(horizon=50.0, initial={club: 40.0})
        assert trajectory.mass_of(club)[0] == pytest.approx(40.0)
        # The stable system drains the one club.
        assert trajectory.mass_of(club)[-1] < 10.0

    def test_invalid_horizon(self, flash_crowd_stable):
        with pytest.raises(ValueError):
            FluidModel(flash_crowd_stable).integrate(horizon=0.0)

    def test_empty_start_with_spare_seed_capacity_returns(self):
        """K=2, λ=1, U_s=2 from empty: the seed drains the empty type faster
        than it fills, so the solution runs along x_∅ = 0, where the share
        x_∅ / total is discontinuous.  The solve must still finish."""

        def give_up(_signum, _frame):
            raise TimeoutError("FluidModel.integrate did not return in 5 s")

        params = SystemParameters.flash_crowd(2, arrival_rate=1.0, seed_rate=2.0)
        model = FluidModel(params)
        previous = signal.signal(signal.SIGALRM, give_up)
        signal.alarm(5)
        try:
            trajectory = model.integrate(5.0)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert trajectory.times[-1] == 5.0
        # Spare seed capacity keeps the fluid population near empty.
        assert trajectory.total_mass()[-1] < 1e-2

    def test_final_state_mapping(self, flash_crowd_stable):
        model = FluidModel(flash_crowd_stable)
        trajectory = model.integrate(horizon=20.0)
        final = trajectory.final_state()
        assert set(final) == set(trajectory.type_order)
