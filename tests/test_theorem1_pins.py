"""Pinned Theorem-1 and Lyapunov figures on a small parameter grid.

``delta_s``, ``piece_threshold``, the ``critical_*`` solvers,
``minimum_mean_dwell_time``, ``LyapunovConfig.default_for`` and
``LyapunovFunction.drift`` share the gifted supply ``G_k`` and the ``Δ_S``
demand/supply sums.  The figures below were recorded when each of them still
wrote its sums out on its own, and are compared with ``==``: a refactor that
reorders a summation or changes a branch shows up here as a changed double.

The grid covers empty-handed and gifted arrivals (including the full type),
``γ = ∞``, ``µ < γ`` and ``µ ≥ γ``.  Rates and ratios ``µ/γ`` are dyadic, so
the Theorem-1 sums are exact and the figures do not depend on how the Python
version sums floats.
"""

import math

import numpy as np
import pytest

from repro.core.lyapunov import (
    LyapunovConfig,
    LyapunovFunction,
    sample_heavy_load_states,
)
from repro.core.parameters import SystemParameters
from repro.core.stability import (
    critical_arrival_scale,
    critical_departure_rate,
    critical_seed_rate,
    analyze,
    delta_s,
    minimum_mean_dwell_time,
    piece_threshold,
)
from repro.core.types import PieceSet, all_types

inf = math.inf


def _params(num_pieces, seed_rate, gamma, arrivals):
    return SystemParameters(
        num_pieces=num_pieces,
        seed_rate=seed_rate,
        peer_rate=1.0,
        seed_departure_rate=gamma,
        arrival_rates={PieceSet(pieces, num_pieces): rate for pieces, rate in arrivals},
    )


GRID = {
    "flash-k2-dwell": _params(2, 1.5, 2.0, [((), 1.0)]),
    "flash-k2-needs-dwell": _params(2, 1.0, 4.0, [((), 2.0)]),
    "gifted-k3": _params(3, 0.5, 4.0, [((), 1.0), ((1,), 0.5), ((2, 3), 0.25)]),
    "gifted-k2-immediate": _params(2, 0.75, inf, [((), 2.0), ((1,), 0.5)]),
    "full-type-k2": _params(2, 0.5, 2.0, [((), 1.0), ((1, 2), 0.25)]),
    "gamma-below-mu": _params(2, 0.0, 0.5, [((1,), 1.0), ((2,), 0.5)]),
    "gamma-equals-mu": _params(2, 1.0, 1.0, [((), 1.5)]),
}


def figures(params):
    """Every pinned figure for one parameter set, keyed by name."""
    out = {
        "critical_arrival_scale": critical_arrival_scale(params),
        "critical_seed_rate": critical_seed_rate(params),
    }
    out["critical_departure_rate"] = critical_departure_rate(params)
    out["minimum_mean_dwell_time"] = minimum_mean_dwell_time(params)
    for piece in range(1, params.num_pieces + 1):
        out[f"piece_threshold[{piece}]"] = piece_threshold(params, piece)
    if params.mu_over_gamma < 1.0:
        for subset in all_types(params.num_pieces, include_full=False):
            out[f"delta_s[{sorted(subset)}]"] = delta_s(params, subset)
    config = LyapunovConfig.default_for(params)
    for name in ("r", "d", "beta", "alpha", "p"):
        out[f"config.{name}"] = getattr(config, name)
    lyapunov = LyapunovFunction(params, config)
    states = sample_heavy_load_states(params, 12, 4, rng=np.random.default_rng(3))
    for i, state in enumerate(states):
        out[f"drift[{i}]"] = lyapunov.drift(state)
    return out


PINNED = {
    "flash-k2-dwell": {
        "critical_arrival_scale": 3.0,
        "critical_seed_rate": 0.5,
        "critical_departure_rate": inf,
        "minimum_mean_dwell_time": 0.0,
        "piece_threshold[1]": 3.0,
        "piece_threshold[2]": 3.0,
        "delta_s[[]]": -2.0,
        "delta_s[[1]]": -2.0,
        "delta_s[[2]]": -2.0,
        "config.r": 0.1,
        "config.d": 6.0,
        "config.beta": 0.011999999999999997,
        "config.alpha": 0.75,
        "config.p": 1.3333333333333333,
        "drift[0]": 14.376200000000011,
        "drift[1]": 14.376200000000011,
        "drift[2]": -22.906635416666685,
        "drift[3]": -125.00583333333344,
    },
    "flash-k2-needs-dwell": {
        "critical_arrival_scale": 0.6666666666666666,
        "critical_seed_rate": 1.5,
        "critical_departure_rate": 2.0,
        "minimum_mean_dwell_time": 0.5,
        "piece_threshold[1]": 1.3333333333333333,
        "piece_threshold[2]": 1.3333333333333333,
        "delta_s[[]]": 0.6666666666666667,
        "delta_s[[1]]": 0.6666666666666667,
        "delta_s[[2]]": 0.6666666666666667,
        "config.r": 0.1,
        "config.d": 5.0,
        "config.beta": 0.00010010010010010894,
        "config.alpha": 0.999,
        "config.p": 4.0,
        "drift[0]": 11458.377199998984,
        "drift[1]": 11458.377199998984,
        "drift[2]": 1499.6323030091244,
        "drift[3]": -1760.6008999997612,
    },
    "full-type-k2": {
        "critical_arrival_scale": 1.3333333333333333,
        "critical_seed_rate": 0.375,
        "critical_departure_rate": 2.5,
        "minimum_mean_dwell_time": 0.4,
        "piece_threshold[1]": 1.5,
        "piece_threshold[2]": 1.5,
        "delta_s[[]]": -0.25,
        "delta_s[[1]]": -0.25,
        "delta_s[[2]]": -0.25,
        "config.r": 0.1,
        "config.d": 6.0,
        "config.beta": 0.004000000000000002,
        "config.alpha": 0.9,
        "config.p": 3.2,
        "drift[0]": 107.91172999999992,
        "drift[1]": 107.91172999999992,
        "drift[2]": -76.60683583333338,
        "drift[3]": -157.29958333333428,
    },
    "gamma-below-mu": {
        "critical_arrival_scale": inf,
        "critical_seed_rate": 0.0,
        "critical_departure_rate": 2.9999999999999996,
        "minimum_mean_dwell_time": 0.33333333333333337,
        "piece_threshold[1]": inf,
        "piece_threshold[2]": inf,
        "config.r": 0.1,
        "config.d": 5.0,
        "config.beta": 0.033333333333333326,
        "config.alpha": 0.75,
        "config.p": 2.0,
        "drift[0]": -0.5841666666666612,
        "drift[1]": 4.489166666666669,
        "drift[2]": -39.59638888888889,
        "drift[3]": -201.20250000000033,
    },
    "gamma-equals-mu": {
        "critical_arrival_scale": inf,
        "critical_seed_rate": 0.0,
        "critical_departure_rate": 2.9999999999999996,
        "minimum_mean_dwell_time": 0.33333333333333337,
        "piece_threshold[1]": inf,
        "piece_threshold[2]": inf,
        "config.r": 0.1,
        "config.d": 5.0,
        "config.beta": 0.033333333333333326,
        "config.alpha": 0.75,
        "config.p": 3.0,
        "drift[0]": 23.30749999999999,
        "drift[1]": 23.30749999999999,
        "drift[2]": -7.84416666666669,
        "drift[3]": -149.31749999999988,
    },
    "gifted-k2-immediate": {
        "critical_arrival_scale": 0.3,
        "critical_seed_rate": 2.5,
        "critical_departure_rate": 1.4285714285714286,
        "minimum_mean_dwell_time": 0.7,
        "piece_threshold[1]": 1.75,
        "piece_threshold[2]": 0.75,
        "delta_s[[]]": 0.75,
        "delta_s[[1]]": 1.75,
        "delta_s[[2]]": 0.75,
        "config.r": 0.1,
        "config.d": 5.0,
        "config.beta": 0.00022522522522524512,
        "config.alpha": 0.999,
        "config.p": 6.666666666666667,
        "drift[0]": 5266.144862499536,
        "drift[1]": 5267.943639999537,
        "drift[2]": 927.5179460155448,
        "drift[3]": -210.14600416665553,
    },
    "gifted-k3": {
        "critical_arrival_scale": 0.6153846153846154,
        "critical_seed_rate": 0.8125,
        "critical_departure_rate": 2.333333333333333,
        "minimum_mean_dwell_time": 0.4285714285714286,
        "piece_threshold[1]": 2.6666666666666665,
        "piece_threshold[2]": 1.3333333333333333,
        "piece_threshold[3]": 1.3333333333333333,
        "delta_s[[]]": -1.5833333333333335,
        "delta_s[[1]]": 0.41666666666666674,
        "delta_s[[2]]": -1.5833333333333335,
        "delta_s[[3]]": -1.5833333333333335,
        "delta_s[[1, 2]]": 0.41666666666666674,
        "delta_s[[1, 3]]": 0.41666666666666674,
        "delta_s[[2, 3]]": -0.9166666666666665,
        "config.r": 0.1,
        "config.d": 5.333333333333333,
        "config.beta": 4.797697105389838e-05,
        "config.alpha": 0.999,
        "config.p": 3.6923076923076925,
        "drift[0]": 14433.430608350795,
        "drift[1]": 14433.64042313186,
        "drift[2]": 14433.64042313186,
        "drift[3]": 1379.6020811188544,
    },
}


@pytest.mark.parametrize("name", sorted(GRID))
def test_figures_are_pinned(name):
    assert figures(GRID[name]) == PINNED[name]


@pytest.mark.parametrize("name", sorted(GRID))
def test_critical_departure_rate_is_the_boundary(name):
    """Stable just below ``γ*`` and not just above it; ``γ* = ∞`` only when
    the point is stable at every ``γ``."""
    params = GRID[name]
    gamma_star = critical_departure_rate(params)
    if math.isinf(gamma_star):
        for gamma in (0.25, 1.0, 4.0, 1e6):
            assert analyze(params.with_departure_rate(gamma)).is_stable
        return
    assert analyze(params.with_departure_rate(gamma_star * (1 - 1e-9))).is_stable
    assert not analyze(params.with_departure_rate(gamma_star * (1 + 1e-9))).is_stable
