"""Tests for the generic Markov-chain toolkit (chain, foster, classify)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.markov.chain import (
    build_generator,
    expected_hitting_times,
    stationary_distribution,
    transient_distribution,
    uniformized_transition_matrix,
)
from repro.markov.classify import (
    TrajectoryClassification,
    TrajectoryVerdict,
    classify_trajectory,
    is_captured,
    majority_verdict,
)
from repro.markov.foster import (
    check_foster_lyapunov,
    drift,
    lipschitz_drift_bound,
)


def mm1_transitions(arrival: float, service: float, cap: int):
    """Birth-death transitions of an M/M/1 queue truncated at ``cap``."""

    def transitions(state: int):
        options = []
        if state < cap:
            options.append((arrival, state + 1))
        if state > 0:
            options.append((service, state - 1))
        return options

    return transitions


class TestChainUtilities:
    def test_build_generator_rows_sum_to_zero(self):
        states = list(range(6))
        generator = build_generator(states, mm1_transitions(1.0, 2.0, 5))
        sums = np.asarray(generator.sum(axis=1)).ravel()
        assert np.allclose(sums, 0.0)

    def test_build_generator_unknown_target(self):
        states = [0, 1]
        with pytest.raises(KeyError):
            build_generator(states, mm1_transitions(1.0, 2.0, 5), absorb_unknown=False)
        generator = build_generator(states, mm1_transitions(1.0, 2.0, 5))
        assert generator.shape == (2, 2)

    def test_mm1_stationary_distribution_geometric(self):
        """Truncated M/M/1: stationary law close to geometric(rho)."""
        rho = 0.5
        states = list(range(12))
        generator = build_generator(states, mm1_transitions(rho, 1.0, 11))
        pi = stationary_distribution(generator)
        expected = np.array([(1 - rho) * rho ** k for k in states])
        expected /= expected.sum()
        assert np.allclose(pi, expected, atol=1e-3)

    def test_hitting_times_increase_with_distance(self):
        states = list(range(8))
        generator = build_generator(states, mm1_transitions(0.5, 1.0, 7))
        times = expected_hitting_times(generator, target_indices=[0])
        assert times[0] == 0.0
        assert all(times[i + 1] > times[i] for i in range(6))

    def test_mm1_hitting_time_matches_formula(self):
        """E[T_{1->0}] = 1/(mu - lambda) for M/M/1 (lightly truncated)."""
        arrival, service = 0.3, 1.0
        states = list(range(40))
        generator = build_generator(states, mm1_transitions(arrival, service, 39))
        times = expected_hitting_times(generator, target_indices=[0])
        assert times[1] == pytest.approx(1.0 / (service - arrival), rel=0.02)

    def test_uniformization_is_stochastic(self):
        states = list(range(5))
        generator = build_generator(states, mm1_transitions(1.0, 2.0, 4))
        kernel, rate = uniformized_transition_matrix(generator)
        rows = np.asarray(kernel.sum(axis=1)).ravel()
        assert np.allclose(rows, 1.0)
        assert (kernel.toarray() >= -1e-12).all()
        assert rate > 0

    def test_uniformization_rate_validation(self):
        states = list(range(3))
        generator = build_generator(states, mm1_transitions(1.0, 2.0, 2))
        with pytest.raises(ValueError):
            uniformized_transition_matrix(generator, uniformization_rate=0.1)

    def test_transient_distribution_converges_to_stationary(self):
        states = list(range(8))
        generator = build_generator(states, mm1_transitions(0.5, 1.0, 7))
        initial = np.zeros(len(states))
        initial[0] = 1.0
        late = transient_distribution(generator, initial, time=200.0)
        pi = stationary_distribution(generator)
        assert np.allclose(late, pi, atol=1e-3)
        assert late.sum() == pytest.approx(1.0, abs=1e-6)

    def test_transient_distribution_time_zero(self):
        states = list(range(4))
        generator = build_generator(states, mm1_transitions(0.5, 1.0, 3))
        initial = np.array([0.0, 1.0, 0.0, 0.0])
        assert np.allclose(transient_distribution(generator, initial, 0.0), initial)
        with pytest.raises(ValueError):
            transient_distribution(generator, initial, -1.0)


class TestFoster:
    def test_drift_of_identity_on_mm1(self):
        transitions = mm1_transitions(0.5, 1.0, 100)
        # For 0 < state < cap the drift of f(x)=x is arrival - service.
        assert drift(transitions, float, 5) == pytest.approx(-0.5)
        assert drift(transitions, float, 0) == pytest.approx(0.5)

    def test_check_foster_lyapunov_on_stable_queue(self):
        transitions = mm1_transitions(0.5, 1.0, 10_000)
        result = check_foster_lyapunov(
            transitions,
            lyapunov=lambda x: float(x),
            f=lambda x: 0.4,
            g=lambda x: 1.0 if x == 0 else 0.0,
            states=range(1, 200),
        )
        assert result.all_satisfied
        assert result.worst_violation == 0.0

    def test_check_foster_lyapunov_detects_violation(self):
        transitions = mm1_transitions(2.0, 1.0, 10_000)  # unstable queue
        result = check_foster_lyapunov(
            transitions,
            lyapunov=lambda x: float(x),
            f=lambda x: 0.1,
            g=lambda x: 0.0,
            states=range(1, 50),
        )
        assert not result.all_satisfied
        assert result.worst_violation > 0

    def test_lipschitz_drift_bound_dominates_exact_drift(self):
        """Lemma 19: the bound is an upper bound for V(f) = f^2/2."""
        transitions = mm1_transitions(0.7, 1.0, 10_000)

        def value(x):
            return 0.5 * float(x) ** 2

        for state in (1, 5, 20):
            exact = drift(transitions, value, state)
            bound = lipschitz_drift_bound(
                transitions,
                inner=float,
                outer_derivative=lambda v: v,
                lipschitz_constant=1.0,
                state=state,
            )
            assert bound >= exact - 1e-9


class TestTrajectoryClassification:
    def test_flat_trajectory_is_stable(self):
        times = np.linspace(0, 100, 50)
        population = 5 + np.sin(times)
        result = classify_trajectory(times, population, arrival_rate=1.0)
        assert result.verdict is TrajectoryVerdict.STABLE

    def test_linear_growth_is_unstable(self):
        times = np.linspace(0, 100, 50)
        population = 1.0 * times
        result = classify_trajectory(times, population, arrival_rate=2.0)
        assert result.verdict is TrajectoryVerdict.UNSTABLE
        assert result.normalized_slope == pytest.approx(0.5, rel=0.05)

    def test_short_trajectory_is_inconclusive(self):
        result = classify_trajectory([0, 1], [0, 1], arrival_rate=1.0)
        assert result.verdict is TrajectoryVerdict.INCONCLUSIVE

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            classify_trajectory([0, 1, 2], [0, 1], arrival_rate=1.0)

    def test_arrival_rate_must_be_positive(self):
        with pytest.raises(ValueError):
            classify_trajectory([0, 1, 2, 3, 4], [0, 1, 2, 3, 4], arrival_rate=0.0)

    def test_slow_drift_is_not_unstable(self):
        times = np.linspace(0, 200, 100)
        population = 10 + 0.01 * times
        result = classify_trajectory(times, population, arrival_rate=2.0)
        assert result.verdict is not TrajectoryVerdict.UNSTABLE

    # Recorded when the classifier still fitted its own tail slope; compared
    # with ``==``, so the shared window and trend fit must keep every bit.
    _T = [0.5 * i for i in range(120)]
    _PINNED = [
        (
            _T,
            [12 + (7 * i) % 11 - (i % 4) for i in range(120)],
            4.0,
            TrajectoryClassification(
                TrajectoryVerdict.STABLE, 0.0010836343428730203, 15.5, 9.0, 22.0
            ),
        ),
        (
            _T,
            [3 + int(1.5 * i) + (i % 5) for i in range(120)],
            2.0,
            TrajectoryClassification(
                TrajectoryVerdict.UNSTABLE, 1.5062517365934982, 139.0, 93.0, 185.0
            ),
        ),
        (
            [0.0, 0.7, 1.9, 3.1, 4.3],
            [3, 6, 4, 7, 5],
            1.3,
            TrajectoryClassification(
                TrajectoryVerdict.UNSTABLE, 0.32051282051282, 5.333333333333333, 4.0, 7.0
            ),
        ),
    ]

    @pytest.mark.parametrize(
        "times, population, rate, expected", _PINNED, ids=["stable", "unstable", "short"]
    )
    def test_pinned_classifications(self, times, population, rate, expected):
        assert classify_trajectory(times, population, arrival_rate=rate) == expected

    def test_capture_boundaries(self):
        assert is_captured(10, 20)
        assert not is_captured(9, 20)
        assert not is_captured(10, 21)
        assert is_captured(10, 0)
        assert not is_captured(9, 0)

    def test_majority_verdict(self):
        stable = classify_trajectory(
            np.linspace(0, 100, 50), np.full(50, 3.0), arrival_rate=1.0
        )
        unstable = classify_trajectory(
            np.linspace(0, 100, 50), np.linspace(0, 100, 50), arrival_rate=1.0
        )
        assert majority_verdict([stable, stable, unstable]) is TrajectoryVerdict.STABLE
        assert majority_verdict([unstable, unstable]) is TrajectoryVerdict.UNSTABLE
        assert majority_verdict([]) is TrajectoryVerdict.INCONCLUSIVE
        assert majority_verdict([stable, unstable]) is TrajectoryVerdict.INCONCLUSIVE
