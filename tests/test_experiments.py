"""Tests for the experiment harness and (quick versions of) each experiment."""

import math
from types import SimpleNamespace

import pytest

from repro.core.parameters import SystemParameters
from repro.core.stability import Stability
from repro.experiments.coding import run_coding_experiment
from repro.experiments.dwell_time import dwell_parameters, run_dwell_time_experiment
from repro.experiments.example1 import example1_parameters, run_example1
from repro.experiments.example2 import example2_parameters, run_example2
from repro.experiments.example3 import example3_parameters, run_example3
from repro.experiments.lyapunov_exp import run_lyapunov_experiment
from repro.experiments.mu_infinity_exp import run_mu_infinity_experiment
from repro.experiments.one_club import run_one_club_experiment
from repro.experiments.policy import run_policy_experiment
from repro.experiments.queueing_exp import run_queueing_bounds_experiment
from repro.experiments.runner import (
    StabilityTrialResult,
    SweepResult,
    run_stability_trial,
    run_sweep,
)
from repro.markov.classify import TrajectoryVerdict


class TestRunner:
    def test_trial_on_clearly_stable_point(self, flash_crowd_stable):
        trial = run_stability_trial(
            flash_crowd_stable, label="stable", horizon=150.0, replications=2, seed=1
        )
        assert trial.theory.verdict is Stability.STABLE
        assert trial.empirical_verdict is TrajectoryVerdict.STABLE
        assert trial.agrees_with_theory
        assert len(trial.classifications) == 2

    def test_trial_on_clearly_unstable_point(self, flash_crowd_unstable):
        trial = run_stability_trial(
            flash_crowd_unstable,
            label="unstable",
            horizon=120.0,
            replications=2,
            seed=2,
            max_population=2000,
        )
        assert trial.theory.verdict is Stability.UNSTABLE
        assert trial.empirical_verdict is TrajectoryVerdict.UNSTABLE
        assert trial.agrees_with_theory
        assert trial.mean_normalized_slope > 0.2

    def test_trial_row_shape(self, flash_crowd_stable):
        trial = run_stability_trial(
            flash_crowd_stable, label="x", horizon=60.0, replications=1, seed=3
        )
        row = trial.row()
        assert row[0] == "x"
        assert row[1] in ("stable", "unstable", "borderline")

    def test_sweep_aggregation(self, flash_crowd_stable, flash_crowd_unstable):
        sweep = run_sweep(
            "demo",
            [("s", flash_crowd_stable), ("u", flash_crowd_unstable)],
            horizon=120.0,
            replications=1,
            seed=4,
            max_population=2000,
        )
        assert len(sweep.trials) == 2
        assert 0.0 <= sweep.agreement_fraction() <= 1.0
        assert len(sweep.table_rows()) == 2

    def test_sweep_counts_only_decisive_trials(self):
        def trial(theory, empirical):
            return StabilityTrialResult(
                label="",
                params=None,
                theory=SimpleNamespace(verdict=theory),
                classifications=[],
                empirical_verdict=empirical,
                mean_normalized_slope=0.0,
                mean_population=0.0,
            )

        stable, unstable = Stability.STABLE, Stability.UNSTABLE
        undecided = [
            trial(Stability.BORDERLINE, TrajectoryVerdict.STABLE),
            trial(stable, TrajectoryVerdict.INCONCLUSIVE),
        ]
        none_decisive = SweepResult("none", undecided)
        assert none_decisive.agreement_fraction() == 0.0
        assert none_decisive.all_decisive_agree()
        agreeing = trial(stable, TrajectoryVerdict.STABLE)
        assert SweepResult("agree", undecided + [agreeing]).all_decisive_agree()
        mixed = SweepResult(
            "mixed", undecided + [agreeing, trial(unstable, TrajectoryVerdict.STABLE)]
        )
        assert mixed.agreement_fraction() == 0.5
        assert not mixed.all_decisive_agree()

    def test_keep_results_option(self, flash_crowd_stable):
        trial = run_stability_trial(
            flash_crowd_stable, horizon=40.0, replications=1, seed=5, keep_results=True
        )
        assert len(trial.results) == 1


class TestExampleParameterBuilders:
    def test_example1_parameters(self):
        params = example1_parameters(arrival_rate=3.0, seed_rate=2.0)
        assert params.num_pieces == 1
        assert params.lambda_total == pytest.approx(3.0)

    def test_example2_parameters(self):
        params = example2_parameters(lambda_12=1.0, lambda_34=2.0)
        assert params.num_pieces == 4
        assert params.seed_rate == 0.0

    def test_example3_parameters(self):
        params = example3_parameters((1.0, 2.0, 3.0))
        assert params.num_pieces == 3
        assert params.seed_departure_rate == pytest.approx(2.0)

    def test_dwell_parameters(self):
        params = dwell_parameters(gamma=0.7, arrival_rate=2.0, seed_rate=0.2)
        assert params.seed_departure_rate == pytest.approx(0.7)


class TestQuickExperiments:
    """Each experiment run with tiny settings: structure and verdict sanity."""

    def test_example1_quick(self):
        result = run_example1(
            relative_rates=(0.5, 2.0),
            horizon=120.0,
            replications=1,
            seed=10,
            max_population=1500,
        )
        assert result.threshold == pytest.approx(4.0)
        assert result.sweep.all_decisive_agree()
        assert "Example 1" in result.report()

    def test_example2_quick(self):
        result = run_example2(
            lambda_34=2.0,
            lambda_12_values=(2.0, 7.0),
            horizon=120.0,
            replications=1,
            seed=11,
            max_population=1500,
        )
        assert result.stable_interval == (1.0, 4.0)
        assert result.sweep.all_decisive_agree()

    def test_example3_quick(self):
        result = run_example3(
            mixes=((1.0, 1.0, 1.0), (4.0, 4.0, 0.5)),
            horizon=120.0,
            replications=1,
            seed=12,
            max_population=1500,
        )
        assert result.sweep.all_decisive_agree()
        assert len(result.inequality_tables) == 2
        assert "Example 3" in result.report()

    def test_one_club_quick(self):
        result = run_one_club_experiment(
            initial_club_size=40,
            horizon=60.0,
            replications=1,
            seed=13,
            max_population=1500,
        )
        unstable, stable = result.runs
        assert unstable.predicted_growth > 0
        assert unstable.measured_growth > 0
        assert stable.predicted_growth < 0
        assert stable.final_one_club < 40
        assert "one-club" in result.report() or "club" in result.report()

    def test_policy_quick(self):
        result = run_policy_experiment(
            policies=("random-useful", "rarest-first"),
            horizon=100.0,
            replications=1,
            seed=14,
            max_population=1500,
        )
        assert result.all_agree()
        assert len(result.trials) == 2

    def test_dwell_time_quick(self):
        result = run_dwell_time_experiment(
            gamma_values=(0.8, math.inf),
            horizon=220.0,
            replications=1,
            seed=15,
            max_population=1500,
        )
        assert result.minimum_dwell <= 1.0 / result.peer_rate + 1e-9
        assert result.sweep.all_decisive_agree()

    def test_mu_infinity_quick(self):
        result = run_mu_infinity_experiment(block_sizes=(20, 80), seed=16)
        assert result.top_layer_drift == pytest.approx(0.0)
        assert len(result.running_mean_peaks) == 2
        assert "drift" in result.report()

    def test_coding_quick(self):
        result = run_coding_experiment(
            num_pieces=6,
            field_size=5,
            horizon=80.0,
            seed=17,
            max_population=1200,
        )
        assert result.paper_numbers["transient_below_times_K"] == pytest.approx(1.016, abs=0.01)
        assert len(result.rows) == 3
        coded_high = result.rows[1]
        uncoded = result.rows[2]
        assert coded_high.final_population < uncoded.final_population
        assert "Theorem 15" in result.report()

    def test_lyapunov_quick(self):
        result = run_lyapunov_experiment(populations=(400,), states_per_population=4, seed=18)
        stable_rows = [row for row in result.rows if row.label == "stable"]
        unstable_rows = [row for row in result.rows if row.label == "unstable"]
        assert stable_rows[0].one_club_drift_per_peer < 0
        assert unstable_rows[0].one_club_drift_per_peer > 0
        assert "Lyapunov" in result.report() or "Foster" in result.report()

    def test_queueing_quick(self):
        result = run_queueing_bounds_experiment(
            horizon=80.0, num_paths=40, offsets=(20.0,), seed=19
        )
        assert result.all_bounds_hold()
        assert len(result.rows) == 2
