"""Unit tests for the Theorem-1 stability analysis."""

import math

import pytest

from repro.core.parameters import SystemParameters, uniform_single_piece_rates
from repro.core.stability import (
    Stability,
    analyze,
    critical_arrival_scale,
    critical_departure_rate,
    critical_seed_rate,
    delta_s,
    is_stable,
    is_unstable,
    minimum_mean_dwell_time,
    piece_threshold,
    stability_margin,
    stability_region_boundary_example2,
    stability_region_boundary_example3,
    worst_case_subset,
)
from repro.core.types import PieceSet


class TestPieceThreshold:
    def test_flash_crowd_threshold_is_seed_rate(self):
        """With gamma = inf and empty arrivals, the threshold is exactly Us."""
        params = SystemParameters.flash_crowd(3, arrival_rate=1.0, seed_rate=2.5)
        for piece in (1, 2, 3):
            assert piece_threshold(params, piece) == pytest.approx(2.5)

    def test_example1_threshold(self):
        """Example 1: lambda* = Us / (1 - mu/gamma)."""
        params = SystemParameters.single_piece(
            arrival_rate=1.0, seed_rate=2.0, peer_rate=1.0, seed_departure_rate=2.0
        )
        assert piece_threshold(params, 1) == pytest.approx(2.0 / (1 - 0.5))

    def test_gifted_arrivals_raise_threshold(self, gifted_params):
        """Peers arriving with piece 1 add (K+1-|C|) lambda_C to the numerator."""
        expected = (0.5 + 0.5 * (3 + 1 - 1) + 0.25 * (3 + 1 - 2)) / (1 - 0.5)
        assert piece_threshold(gifted_params, 1) == pytest.approx(expected)

    def test_threshold_infinite_when_gamma_le_mu(self):
        params = SystemParameters.flash_crowd(
            2, arrival_rate=1.0, seed_rate=0.5, peer_rate=1.0, seed_departure_rate=0.5
        )
        assert math.isinf(piece_threshold(params, 1))

    def test_threshold_zero_when_piece_cannot_enter(self):
        params = SystemParameters(
            num_pieces=2,
            seed_rate=0.0,
            peer_rate=1.0,
            seed_departure_rate=2.0,
            arrival_rates={PieceSet((1,), 2): 1.0},
        )
        assert piece_threshold(params, 2) == 0.0

    def test_out_of_range_piece(self, flash_crowd_stable):
        with pytest.raises(ValueError):
            piece_threshold(flash_crowd_stable, 0)
        with pytest.raises(ValueError):
            piece_threshold(flash_crowd_stable, 4)


class TestDeltaS:
    def test_requires_mu_less_than_gamma(self):
        params = SystemParameters.flash_crowd(
            2, 1.0, 1.0, peer_rate=1.0, seed_departure_rate=1.0
        )
        with pytest.raises(ValueError):
            delta_s(params, PieceSet((1,), 2))

    def test_rejects_full_set(self, flash_crowd_stable):
        with pytest.raises(ValueError):
            delta_s(flash_crowd_stable, PieceSet.full(3))

    def test_sign_matches_threshold_condition(self, gifted_params):
        """delta_{F-{k}} < 0 iff lambda_total < threshold_k (Eq. (3) <=> Eq. (4))."""
        for piece in (1, 2, 3):
            subset = PieceSet.full(3).remove(piece)
            delta = delta_s(gifted_params, subset)
            threshold = piece_threshold(gifted_params, piece)
            assert (delta < 0) == (gifted_params.lambda_total < threshold)

    def test_flash_crowd_value(self):
        params = SystemParameters.flash_crowd(3, arrival_rate=1.5, seed_rate=2.0)
        # All arrivals are subsets of any S containing the empty set.
        subset = PieceSet((2, 3), 3)
        assert delta_s(params, subset) == pytest.approx(1.5 - 2.0)

    def test_worst_case_subset_is_one_club_type(self, gifted_params):
        subset, value = worst_case_subset(gifted_params)
        assert len(subset) == gifted_params.num_pieces - 1
        # The maximum over F-{k} should equal the overall maximum.
        best_over_clubs = max(
            delta_s(gifted_params, PieceSet.full(3).remove(k)) for k in (1, 2, 3)
        )
        assert value == pytest.approx(best_over_clubs)


class TestAnalyze:
    def test_stable_flash_crowd(self, flash_crowd_stable):
        report = analyze(flash_crowd_stable)
        assert report.verdict is Stability.STABLE
        assert report.is_stable
        assert report.margin > 0
        assert is_stable(flash_crowd_stable)

    def test_unstable_flash_crowd(self, flash_crowd_unstable):
        report = analyze(flash_crowd_unstable)
        assert report.verdict is Stability.UNSTABLE
        assert report.critical_piece in (1, 2, 3)
        assert is_unstable(flash_crowd_unstable)

    def test_borderline(self):
        params = SystemParameters.flash_crowd(2, arrival_rate=2.0, seed_rate=2.0)
        report = analyze(params)
        assert report.verdict is Stability.BORDERLINE

    def test_gamma_le_mu_stable_when_pieces_enter(self):
        params = SystemParameters.flash_crowd(
            3, arrival_rate=100.0, seed_rate=0.01, peer_rate=1.0, seed_departure_rate=0.5
        )
        report = analyze(params)
        assert report.verdict is Stability.STABLE
        assert "gamma <= mu" in report.regime

    def test_gamma_le_mu_unstable_when_piece_blocked(self):
        params = SystemParameters(
            num_pieces=2,
            seed_rate=0.0,
            peer_rate=1.0,
            seed_departure_rate=0.5,
            arrival_rates={PieceSet((1,), 2): 1.0},
        )
        report = analyze(params)
        assert report.verdict is Stability.UNSTABLE

    def test_describe_contains_verdict(self, flash_crowd_stable):
        text = analyze(flash_crowd_stable).describe()
        assert "stable" in text
        assert "piece 1" in text

    def test_stability_margin_sign(self, flash_crowd_stable, flash_crowd_unstable):
        assert stability_margin(flash_crowd_stable) > 0
        assert stability_margin(flash_crowd_unstable) < 0

    def test_example2_region(self):
        stable = SystemParameters.two_class_four_pieces(2.0, 2.0)
        unstable = SystemParameters.two_class_four_pieces(5.0, 1.0)
        assert analyze(stable).verdict is Stability.STABLE
        assert analyze(unstable).verdict is Stability.UNSTABLE

    def test_example2_boundary_formula(self):
        low, high = stability_region_boundary_example2(2.0)
        assert low == pytest.approx(1.0)
        assert high == pytest.approx(4.0)
        # Just inside and outside the boundary.
        assert analyze(SystemParameters.two_class_four_pieces(3.9, 2.0)).is_stable
        assert analyze(SystemParameters.two_class_four_pieces(4.1, 2.0)).is_unstable

    def test_example3_region(self):
        stable = SystemParameters.one_piece_arrivals((1.0, 1.0, 1.0), seed_departure_rate=2.0)
        unstable = SystemParameters.one_piece_arrivals((4.0, 4.0, 0.5), seed_departure_rate=2.0)
        assert analyze(stable).verdict is Stability.STABLE
        assert analyze(unstable).verdict is Stability.UNSTABLE

    def test_example3_boundary_formula(self):
        rows = stability_region_boundary_example3((1.0, 1.0, 1.0), mu=1.0, gamma=2.0)
        assert len(rows) == 3
        for _label, lhs, rhs in rows:
            assert lhs == pytest.approx(2.0)
            assert rhs == pytest.approx(5.0)
        with pytest.raises(ValueError):
            stability_region_boundary_example3((1.0, 1.0, 1.0), mu=2.0, gamma=1.0)

    def test_example3_theorem_agreement(self):
        """The closed-form inequalities agree with the general Theorem-1 verdict."""
        for mix in ((1.0, 1.0, 1.0), (2.0, 1.0, 0.8), (4.0, 4.0, 0.5), (3.0, 0.4, 3.0)):
            params = SystemParameters.one_piece_arrivals(mix, seed_departure_rate=2.0)
            rows = stability_region_boundary_example3(mix, 1.0, 2.0)
            closed_form_stable = all(lhs < rhs for _l, lhs, rhs in rows)
            report = analyze(params)
            if report.verdict is Stability.STABLE:
                assert closed_form_stable
            elif report.verdict is Stability.UNSTABLE:
                assert not closed_form_stable

    def test_symmetric_flat_network_with_immediate_departure_is_borderline(self):
        """Conjecture-17 setting: symmetric one-piece arrivals, gamma = inf."""
        params = SystemParameters(
            num_pieces=3,
            seed_rate=0.0,
            peer_rate=1.0,
            seed_departure_rate=math.inf,
            arrival_rates=uniform_single_piece_rates(3, 1.0),
        )
        assert analyze(params).verdict is Stability.BORDERLINE


class TestCriticalParameters:
    def test_critical_seed_rate_flash_crowd(self):
        params = SystemParameters.flash_crowd(3, arrival_rate=2.0, seed_rate=0.5)
        assert critical_seed_rate(params) == pytest.approx(2.0)
        # With the critical seed rate the system sits on the boundary.
        boundary = params.with_seed_rate(critical_seed_rate(params))
        assert analyze(boundary).verdict is Stability.BORDERLINE

    def test_critical_seed_rate_zero_when_gamma_small(self):
        params = SystemParameters.flash_crowd(
            3, arrival_rate=2.0, seed_rate=0.5, peer_rate=1.0, seed_departure_rate=0.5
        )
        assert critical_seed_rate(params) == 0.0

    def test_critical_seed_rate_is_the_boundary_when_gamma_small_and_blocked(self):
        """γ ≤ µ with no piece entering at U_s = 0: any U_s > 0 stabilises."""
        params = SystemParameters.flash_crowd(
            2, arrival_rate=1.0, seed_rate=0.0, peer_rate=1.0, seed_departure_rate=0.5
        )
        assert critical_seed_rate(params) == 0.0
        assert analyze(params).is_unstable
        assert analyze(params.with_seed_rate(1e-6)).is_stable

    def test_critical_arrival_scale(self):
        params = SystemParameters.flash_crowd(3, arrival_rate=1.0, seed_rate=2.0)
        scale = critical_arrival_scale(params)
        assert scale == pytest.approx(2.0)
        assert analyze(params.scaled_arrivals(scale * 0.9)).is_stable
        assert analyze(params.scaled_arrivals(scale * 1.1)).is_unstable

    def test_critical_arrival_scale_infinite_when_always_stable(self):
        params = SystemParameters.flash_crowd(
            2, arrival_rate=1.0, seed_rate=1.0, peer_rate=2.0, seed_departure_rate=1.0
        )
        assert math.isinf(critical_arrival_scale(params))

    def test_critical_departure_rate_and_dwell(self):
        params = SystemParameters.flash_crowd(
            3, arrival_rate=2.0, seed_rate=0.2, peer_rate=1.0, seed_departure_rate=2.0
        )
        gamma_star = critical_departure_rate(params)
        assert gamma_star > params.peer_rate  # some slack beyond one piece
        assert analyze(params.with_departure_rate(gamma_star * 0.95)).is_stable
        assert analyze(params.with_departure_rate(gamma_star * 1.05)).is_unstable
        assert minimum_mean_dwell_time(params) == pytest.approx(1.0 / gamma_star)

    def test_corollary_one_extra_piece(self):
        """For any arrivals with Us > 0, dwell time 1/mu is always sufficient."""
        for arrival in (1.0, 10.0, 100.0):
            params = SystemParameters.flash_crowd(
                4, arrival_rate=arrival, seed_rate=0.01, peer_rate=1.0,
                seed_departure_rate=2.0,
            )
            assert minimum_mean_dwell_time(params) <= 1.0 / params.peer_rate + 1e-12

    def test_critical_departure_rate_infinite_when_stable_without_seeds(self):
        params = SystemParameters.flash_crowd(2, arrival_rate=0.5, seed_rate=2.0)
        assert math.isinf(critical_departure_rate(params))
        assert minimum_mean_dwell_time(params) == 0.0
