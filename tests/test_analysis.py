"""Tests for the statistics helpers and table rendering."""

import math
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.statistics import (
    ConfidenceInterval,
    empirical_exceedance_probability,
    linear_slope,
    mean_confidence_interval,
    relative_error,
    trailing_window,
)
from repro.analysis.tables import format_table, table_to_csv_string, write_csv


class TestStatistics:
    def test_confidence_interval_contains_true_mean(self, rng):
        samples = rng.normal(loc=5.0, scale=1.0, size=200)
        interval = mean_confidence_interval(samples)
        assert interval.contains(5.0)
        assert interval.lower < interval.mean < interval.upper

    def test_confidence_interval_single_sample(self):
        interval = mean_confidence_interval([3.0])
        assert interval.mean == 3.0
        assert math.isinf(interval.half_width)

    def test_confidence_interval_constant_samples(self):
        interval = mean_confidence_interval([2.0, 2.0, 2.0])
        assert interval.half_width == 0.0
        assert "2" in str(interval)

    def test_confidence_interval_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_confidence_interval([])

    def test_confidence_width_shrinks_with_samples(self, rng):
        small = mean_confidence_interval(rng.normal(size=20))
        large = mean_confidence_interval(rng.normal(size=2000))
        assert large.half_width < small.half_width

    def test_linear_slope(self):
        times = np.linspace(0, 10, 50)
        assert linear_slope(times, 3.0 * times + 1.0) == pytest.approx(3.0)
        assert linear_slope([1.0], [2.0]) == 0.0
        assert linear_slope([1.0, 1.0], [2.0, 3.0]) == 0.0

    def test_linear_slope_matches_polyfit(self, rng):
        for size in (2, 3, 7, 50, 400):
            times = np.sort(rng.uniform(0.0, 100.0, size))
            values = rng.normal(size=size) * 50.0 + rng.uniform(-3, 3) * times
            expected = np.polyfit(times, values, 1)[0]
            assert linear_slope(times, values) == pytest.approx(expected, rel=1e-12)

    def test_trailing_window(self):
        data = list(range(10))
        assert list(trailing_window(data, 0.5)) == [5, 6, 7, 8, 9]
        assert list(trailing_window(data, 1.0)) == data
        with pytest.raises(ValueError):
            trailing_window(data, 0.0)

    def test_empirical_exceedance_probability(self):
        below = (np.array([0.0, 1.0, 2.0]), np.array([1.0, 1.0, 1.0]))
        above = (np.array([0.0, 1.0, 2.0]), np.array([1.0, 50.0, 1.0]))
        probability = empirical_exceedance_probability([below, above], offset=10.0, slope=1.0)
        assert probability == pytest.approx(0.5)
        with pytest.raises(ValueError):
            empirical_exceedance_probability([], 1.0, 1.0)

    def test_relative_error(self):
        assert relative_error(11.0, 10.0) == pytest.approx(0.1)
        assert relative_error(0.0, 0.0) == 0.0


class TestTables:
    def test_format_table_alignment(self):
        text = format_table(
            headers=["name", "value"],
            rows=[("alpha", 1.0), ("beta", 22.5)],
            title="demo",
        )
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "name" in lines[1] and "value" in lines[1]
        assert set(lines[2]) <= {"-", " "}
        assert len(lines) == 5
        # Columns aligned: every data line has the same width as the header line.
        assert all(len(line) <= len(lines[1]) + 2 for line in lines[3:])

    def test_format_table_row_length_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [(1,)])

    def test_float_format(self):
        text = format_table(["x"], [(1.23456789,)], float_format="{:.2f}")
        assert "1.23" in text

    def test_csv_string(self):
        csv_text = table_to_csv_string(["a", "b"], [(1, 2), (3, 4)])
        assert csv_text.splitlines()[0] == "a,b"
        assert csv_text.splitlines()[2] == "3,4"

    def test_write_csv_creates_directories(self, tmp_path):
        target = tmp_path / "nested" / "out.csv"
        written = write_csv(target, ["a"], [(1,), (2,)])
        assert written == target
        assert target.read_text().splitlines() == ["a", "1", "2"]
