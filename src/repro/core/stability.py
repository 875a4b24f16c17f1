r"""Stability region of the P2P system — Theorem 1 of the paper.

For ``0 < µ < γ ≤ ∞`` the chain is

* **transient** if for some piece ``k``

  .. math::

     λ_{total} > \frac{U_s + \sum_{C: k ∈ C} λ_C (K + 1 - |C|)}{1 - µ/γ},

* **positive recurrent** (with ``E[N] < ∞``) if the reverse strict inequality
  holds for *every* piece ``k``.

For ``0 < γ ≤ µ`` the chain is positive recurrent as soon as every piece can
enter the system and transient when some piece cannot.  The two statements are
connected by the quantity (Eq. (4))

.. math::

   Δ_S = \sum_{C ⊆ S} λ_C
       - \frac{U_s + \sum_{C ⊄ S} λ_C (K - |C| + µ/γ)}{1 - µ/γ},

whose sign at ``S = F − {k}`` matches the per-piece condition above.

This module computes ``Δ_S``, the per-piece thresholds, an overall verdict,
stability margins, and critical parameter values (seed rate, arrival scale,
dwell time) used by the experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Tuple

from .parameters import SystemParameters
from .types import PieceSet, all_types


class Stability(Enum):
    """Verdict of Theorem 1 for a given parameter set."""

    STABLE = "stable"
    UNSTABLE = "unstable"
    BORDERLINE = "borderline"


@dataclass(frozen=True)
class PieceCondition:
    """Per-piece numbers entering Theorem 1.

    ``threshold`` is the right-hand side of Eq. (3); the system is stable only
    if ``lambda_total < threshold`` for every piece, and unstable as soon as
    ``lambda_total > threshold`` for some piece.  ``delta`` is ``Δ_{F−{k}}``
    from Eq. (4) — negative iff the strict inequality (3) holds.
    """

    piece: int
    threshold: float
    delta: float
    can_enter: bool


@dataclass(frozen=True)
class StabilityReport:
    """Full output of the Theorem-1 analysis for one parameter set."""

    verdict: Stability
    regime: str
    piece_conditions: Tuple[PieceCondition, ...]
    critical_piece: Optional[int]
    margin: float

    @property
    def is_stable(self) -> bool:
        return self.verdict is Stability.STABLE

    @property
    def is_unstable(self) -> bool:
        return self.verdict is Stability.UNSTABLE

    def describe(self) -> str:
        lines = [f"verdict: {self.verdict.value} (regime: {self.regime})"]
        for cond in self.piece_conditions:
            lines.append(
                f"  piece {cond.piece}: threshold={cond.threshold:g} "
                f"delta={cond.delta:+.6g} can_enter={cond.can_enter}"
            )
        if self.critical_piece is not None:
            lines.append(f"  critical piece: {self.critical_piece}")
        lines.append(f"  margin: {self.margin:+.6g}")
        return "\n".join(lines)


def _gifted_supply(params: SystemParameters, piece: int) -> float:
    """The gifted supply ``G_k = Σ_{C ∋ k} λ_C (K + 1 − |C|)`` of ``piece``."""
    return sum(
        rate * (params.num_pieces + 1 - len(type_c))
        for type_c, rate in params.arrival_rates.items()
        if piece in type_c
    )


def _demand_and_supply(
    params: SystemParameters, subset: PieceSet, ratio: float
) -> Tuple[float, float]:
    """``(λ_{E_S}, U_s + Σ_{C ⊄ S} λ_C (K − |C| + r))`` for the ratio ``r``.

    The two sides of ``Δ_S`` before the branching factor ``1/(1 − r)``; no
    check on the regime, which is the caller's.
    """
    inside = sum(
        rate
        for type_c, rate in params.arrival_rates.items()
        if type_c.issubset(subset)
    )
    outside = sum(
        rate * (params.num_pieces - len(type_c) + ratio)
        for type_c, rate in params.arrival_rates.items()
        if not type_c.issubset(subset)
    )
    return inside, params.seed_rate + outside


def delta_s(params: SystemParameters, subset: PieceSet) -> float:
    """``Δ_S`` of Eq. (4) for ``S ∈ 𝒞 − {F}``.

    ``Δ_S < 0`` for every ``S ≠ F`` is the positive-recurrence condition of
    Theorem 1(b) in the regime ``µ < γ``.  Requires ``µ < γ``; with ``γ ≤ µ``
    the quantity is not defined (the branching factor ``1/(1-µ/γ)`` diverges)
    and a ``ValueError`` is raised.
    """
    if subset.is_complete:
        raise ValueError("delta_s is defined only for S != F")
    ratio = params.mu_over_gamma
    if ratio >= 1.0:
        raise ValueError(
            "delta_s requires mu < gamma; in the regime gamma <= mu the system "
            "is stable whenever every piece can enter (Theorem 1(b))"
        )
    demand, supply = _demand_and_supply(params, subset, ratio)
    return demand - supply / (1.0 - ratio)


def piece_threshold(params: SystemParameters, piece: int) -> float:
    """Right-hand side of Eq. (3) for the given piece.

    This is the largest total arrival rate the system can sustain when the
    bottleneck piece is ``piece``; only meaningful when ``µ < γ``.  Returns
    ``inf`` when ``γ ≤ µ`` and the piece can enter the system (the condition
    is then vacuous), and ``0`` when the piece can never enter.
    """
    if not 1 <= piece <= params.num_pieces:
        raise ValueError(f"piece {piece} out of range 1..{params.num_pieces}")
    if not params.piece_can_enter(piece):
        return 0.0
    ratio = params.mu_over_gamma
    if ratio >= 1.0:
        return math.inf
    return (params.seed_rate + _gifted_supply(params, piece)) / (1.0 - ratio)


def piece_condition(params: SystemParameters, piece: int) -> PieceCondition:
    """All Theorem-1 numbers for a single piece."""
    threshold = piece_threshold(params, piece)
    can_enter = params.piece_can_enter(piece)
    if params.mu_over_gamma < 1.0:
        delta = delta_s(params, PieceSet.full(params.num_pieces).remove(piece))
    else:
        # In the regime gamma <= mu the branching factor is infinite; the
        # effective delta is -inf when the piece can enter and +inf otherwise.
        delta = -math.inf if can_enter else math.inf
    return PieceCondition(
        piece=piece, threshold=threshold, delta=delta, can_enter=can_enter
    )


def analyze(params: SystemParameters, tolerance: float = 1e-12) -> StabilityReport:
    """Apply Theorem 1 to the parameter set and return the full report.

    ``tolerance`` is the slack used to declare the borderline case: a piece
    whose margin ``threshold − λ_total`` lies within ``±tolerance`` (after
    scaling by ``max(1, λ_total)``) makes the verdict ``BORDERLINE``.
    """
    conditions = tuple(
        piece_condition(params, piece) for piece in range(1, params.num_pieces + 1)
    )
    lam = params.lambda_total
    scale = max(1.0, lam)

    if params.mu_over_gamma >= 1.0:
        regime = "gamma <= mu (infinite branching of peer seeds)"
        blocked = [c.piece for c in conditions if not c.can_enter]
        if blocked:
            return StabilityReport(
                verdict=Stability.UNSTABLE,
                regime=regime,
                piece_conditions=conditions,
                critical_piece=blocked[0],
                margin=-math.inf,
            )
        return StabilityReport(
            verdict=Stability.STABLE,
            regime=regime,
            piece_conditions=conditions,
            critical_piece=None,
            margin=math.inf,
        )

    regime = "mu < gamma"
    margins = [(c.threshold - lam, c.piece) for c in conditions]
    worst_margin, worst_piece = min(margins)
    if worst_margin > tolerance * scale:
        verdict = Stability.STABLE
        critical: Optional[int] = None
    elif worst_margin < -tolerance * scale:
        verdict = Stability.UNSTABLE
        critical = worst_piece
    else:
        verdict = Stability.BORDERLINE
        critical = worst_piece
    return StabilityReport(
        verdict=verdict,
        regime=regime,
        piece_conditions=conditions,
        critical_piece=critical,
        margin=worst_margin,
    )


def is_stable(params: SystemParameters) -> bool:
    """Shorthand: True iff Theorem 1(b) guarantees positive recurrence."""
    return analyze(params).is_stable


def is_unstable(params: SystemParameters) -> bool:
    """Shorthand: True iff Theorem 1(a) guarantees transience."""
    return analyze(params).is_unstable


def stability_margin(params: SystemParameters) -> float:
    """``min_k (threshold_k − λ_total)``; positive inside the stable region."""
    return analyze(params).margin


# ---------------------------------------------------------------------------
# Critical-parameter solvers
# ---------------------------------------------------------------------------


def critical_arrival_scale(params: SystemParameters) -> float:
    """Largest factor ``α`` such that scaling all arrivals by ``α`` stays stable.

    With all arrival rates multiplied by ``α`` both sides of Eq. (3) scale
    differently: the left side scales linearly while the right side has an
    affine dependence through the gifted-arrival term, so the boundary is
    where ``α λ_total = (U_s + α G_k) / (1 - µ/γ)`` with ``G_k`` the gifted
    sum for the worst piece.  Returns ``inf`` when the system is stable for
    every scale (``γ ≤ µ`` with all pieces entering, or every piece arrives
    with every peer).
    """
    ratio = params.mu_over_gamma
    if ratio >= 1.0:
        return math.inf if params.all_pieces_can_enter() else 0.0
    lam = params.lambda_total
    scales = []
    for piece in range(1, params.num_pieces + 1):
        gifted = _gifted_supply(params, piece)
        demand = lam * (1.0 - ratio)
        # boundary: alpha * demand = Us + alpha * gifted
        if demand <= gifted:
            scales.append(math.inf)
        elif params.seed_rate == 0.0:
            scales.append(0.0)
        else:
            scales.append(params.seed_rate / (demand - gifted))
    return min(scales)


def critical_seed_rate(params: SystemParameters) -> float:
    """Smallest fixed-seed rate ``U_s`` that stabilises the given arrivals.

    Zero when the system is already stable without a fixed seed (for example
    when ``γ ≤ µ`` and arrivals inject every piece).  When ``γ ≤ µ`` and some
    piece cannot enter, it is also zero, the boundary: any ``U_s > 0`` lets
    every piece enter, so the system is stable for every ``U_s > 0`` and
    unstable at ``U_s = 0``.
    """
    ratio = params.mu_over_gamma
    if ratio >= 1.0:
        return 0.0
    lam = params.lambda_total
    required = 0.0
    for piece in range(1, params.num_pieces + 1):
        need = lam * (1.0 - ratio) - _gifted_supply(params, piece)
        required = max(required, need)
    return max(0.0, required)


def critical_departure_rate(params: SystemParameters) -> float:
    """Largest peer-seed departure rate ``γ`` keeping the system stable.

    Equivalently ``1/γ*`` is the smallest mean dwell time peer seeds need.
    Returns ``inf`` when the system is stable at every ``γ`` (every piece's
    supply ``U_s + G_k`` covers ``λ_total``, the ``γ → ∞`` limit of Eq. (3)),
    and a value ``≤ µ`` when the system needs peer seeds to upload at least
    one extra piece on average (the paper's corollary).  The limit is read
    from the supplies, because ``SystemParameters`` rejects ``γ = ∞`` when
    the full type arrives.
    """
    if not params.all_pieces_can_enter():
        # Even infinite dwell cannot create copies of a piece nobody injects.
        return 0.0
    mu = params.peer_rate
    lam = params.lambda_total
    best = mu  # gamma <= mu is always sufficient when all pieces can enter
    # For gamma in (mu, inf) solve lambda_total (1 - mu/gamma) < Us + G_k
    # for the worst piece k: gamma < mu / (1 - (Us + G_k)/lambda_total).
    worst = math.inf
    for piece in range(1, params.num_pieces + 1):
        supply = params.seed_rate + _gifted_supply(params, piece)
        if supply >= lam:
            continue  # this piece is never the bottleneck
        bound = mu / (1.0 - supply / lam)
        worst = min(worst, bound)
    return math.inf if math.isinf(worst) else max(best, worst)


def minimum_mean_dwell_time(params: SystemParameters) -> float:
    """Smallest mean peer-seed dwell time ``1/γ`` sufficient for stability.

    The paper's headline corollary: this never exceeds ``1/µ`` — the time to
    upload a single extra piece — provided every piece can enter the system.
    """
    gamma_star = critical_departure_rate(params)
    if gamma_star == 0.0:
        return math.inf
    if math.isinf(gamma_star):
        return 0.0
    return 1.0 / gamma_star


def stability_region_boundary_example2(lambda_34: float) -> Tuple[float, float]:
    """Example 2 boundary: stable iff ``λ_12 < 2 λ_34`` and ``λ_34 < 2 λ_12``.

    Returns the interval of ``λ_12`` values (low, high) that are stable for a
    fixed ``λ_34``.
    """
    return (lambda_34 / 2.0, 2.0 * lambda_34)


def stability_region_boundary_example3(
    lambda_rates: Tuple[float, float, float], mu: float, gamma: float
) -> List[Tuple[str, float, float]]:
    """Example 3 inequalities: for each pair (i,j) with third piece k, stable iff

    ``λ_i + λ_j < λ_k (2 + µ/γ) / (1 − µ/γ)``.

    Returns a list of ``(label, lhs, rhs)`` triples, one per inequality.
    """
    if not mu < gamma:
        raise ValueError("example 3 assumes mu < gamma")
    ratio = mu / gamma if not math.isinf(gamma) else 0.0
    amplification = (2.0 + ratio) / (1.0 - ratio)
    l1, l2, l3 = lambda_rates
    return [
        ("lambda1+lambda2 vs lambda3", l1 + l2, l3 * amplification),
        ("lambda2+lambda3 vs lambda1", l2 + l3, l1 * amplification),
        ("lambda1+lambda3 vs lambda2", l1 + l3, l2 * amplification),
    ]


def worst_case_subset(params: SystemParameters) -> Tuple[PieceSet, float]:
    """The subset ``S ≠ F`` with the largest ``Δ_S`` (the binding constraint).

    The paper observes that the maximum over all ``S`` is attained at a set of
    the form ``F − {k}``; this helper verifies that numerically by scanning
    every subset, which is feasible for the small ``K`` used in experiments.
    Only valid when ``µ < γ``.
    """
    best_subset: Optional[PieceSet] = None
    best_delta = -math.inf
    for subset in all_types(params.num_pieces, include_full=False):
        value = delta_s(params, subset)
        if value > best_delta:
            best_delta = value
            best_subset = subset
    assert best_subset is not None
    return best_subset, best_delta


__all__ = [
    "Stability",
    "PieceCondition",
    "StabilityReport",
    "delta_s",
    "piece_threshold",
    "piece_condition",
    "analyze",
    "is_stable",
    "is_unstable",
    "stability_margin",
    "critical_arrival_scale",
    "critical_seed_rate",
    "critical_departure_rate",
    "minimum_mean_dwell_time",
    "stability_region_boundary_example2",
    "stability_region_boundary_example3",
    "worst_case_subset",
]
