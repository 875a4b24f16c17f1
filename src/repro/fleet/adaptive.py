"""Adaptive fleet driver: budget-driven boundary mapping by active sampling.

The uniform :func:`~repro.experiments.fleet.run_fleet_phase_diagram` spends
its swarm budget evenly over the ``(λ, U_s)`` grid — mostly far from the
Theorem-1 boundary it is trying to localize.  This module replaces the fixed
swarm count with a *stopping rule*:

1. every candidate point ``(λ, U_s, scenario)`` (the cartesian grid of
   arrival rates × seed rates × scenario-mix strata) carries a
   Beta(1 + captures, 1 + misses) posterior over its capture probability;
2. each **round** allocates ``round_size`` swarms to candidates by a
   deterministic divisor apportionment over acquisition scores — posterior
   variance, boosted for cells on the current empirical boundary (posterior
   mean inside ``boundary_band`` or a 4-neighbour straddling 0.5) — so
   effort concentrates where the capture estimate is still uncertain;
3. sampling stops when the boundary estimate stabilises (the boundary cell
   set is unchanged and its mean posterior variance is below
   ``variance_tol`` for ``patience`` consecutive rounds) or when the swarm /
   event budget is exhausted.

Determinism contract (same as the fixed scheduler): the whole run is a pure
function of ``(spec, seed)`` at any worker count and chunking.  Each swarm's
simulation seed is the next ``SeedSequence.spawn`` child of the master seed
in global-index order, and acquisition decisions use only statistics of
*completed* rounds — so a round's allocation never depends on how its own
swarms were sharded.

Persistence rides on the streaming JSONL layer: completed swarms append to
the fleet log, checkpoints are a log offset plus the in-flight kernel
snapshot, and :meth:`AdaptiveFleetDriver.resume` replays the log to rebuild
the acquisition state exactly — a killed run (even mid-round, even
mid-swarm) resumes to the identical trail and boundary estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from ..analysis.tables import format_table
from ..simulation.rng import SeedLike
from ..swarm.metrics import check_sample_grid
from ..swarm.swarm import unsupported_option
from .faults import FaultPlan
from .result import FleetResult, FleetSwarmRecord
from .scheduler import PersistentFleetExecution
from .spec import (
    FixedSampler,
    FleetSpec,
    ScenarioWeight,
    SwarmTask,
    _freeze_values,
    _root_sequence,
    task_for_point,
)


class CellKey(NamedTuple):
    """One candidate point: indices into (scenario strata, λ axis, U_s axis)."""

    stratum: int
    arrival: int
    seed: int


@dataclass(frozen=True)
class AdaptiveFleetSpec:
    """Frozen description of one budget-driven boundary-mapping run.

    The candidate set is ``scenario strata × arrival_rates × seed_rates``
    (an empty ``scenario_mix`` means one plain stratum).  Budgets and the
    stopping rule control how long sampling continues; the remaining fields
    mirror :class:`~repro.fleet.spec.FleetSpec` run controls.
    """

    name: str
    arrival_rates: Tuple[float, ...]
    seed_rates: Tuple[float, ...]
    scenario_mix: Tuple[ScenarioWeight, ...] = ()
    num_pieces: int = 5
    base_overrides: Tuple[Tuple[str, float], ...] = ()
    # -- budget & stopping rule --
    swarm_budget: int = 128
    event_budget: Optional[int] = None
    round_size: int = 16
    min_rounds: int = 2
    patience: int = 2
    variance_tol: float = 0.01
    boundary_band: Tuple[float, float] = (0.2, 0.8)
    boundary_boost: float = 4.0
    # -- per-swarm run controls (mirror FleetSpec) --
    horizon: float = 60.0
    sample_interval: Optional[float] = None
    max_events: Optional[int] = 20_000
    max_population: Optional[int] = 5_000
    backend: str = "array"
    initial_club_size: int = 30
    capture_fraction: float = 0.5
    capture_min_club: int = 10

    def __post_init__(self) -> None:
        object.__setattr__(self, "arrival_rates", tuple(self.arrival_rates))
        object.__setattr__(self, "seed_rates", tuple(self.seed_rates))
        object.__setattr__(self, "scenario_mix", tuple(self.scenario_mix))
        object.__setattr__(self, "base_overrides", tuple(self.base_overrides))
        for label, values in (
            ("arrival_rates", self.arrival_rates),
            ("seed_rates", self.seed_rates),
        ):
            if not values:
                raise ValueError(f"{label} must not be empty")
            if any(b <= a for a, b in zip(values, values[1:])):
                raise ValueError(f"{label} must be strictly increasing: {values}")
        check_sample_grid(self.horizon, self.sample_interval)
        if self.swarm_budget < 1:
            raise ValueError(f"swarm_budget must be >= 1, got {self.swarm_budget}")
        if self.event_budget is not None and self.event_budget < 1:
            raise ValueError(f"event_budget must be >= 1, got {self.event_budget}")
        if self.round_size < 1:
            raise ValueError(f"round_size must be >= 1, got {self.round_size}")
        if self.min_rounds < 0:
            raise ValueError(f"min_rounds must be >= 0, got {self.min_rounds}")
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")
        if self.variance_tol <= 0:
            raise ValueError(f"variance_tol must be positive, got {self.variance_tol}")
        lo, hi = self.boundary_band
        if not 0.0 <= lo < hi <= 1.0:
            raise ValueError(f"boundary_band must satisfy 0 <= lo < hi <= 1: {lo, hi}")
        if self.boundary_boost < 1.0:
            raise ValueError(
                f"boundary_boost must be >= 1 (1 disables it), got {self.boundary_boost}"
            )

    @classmethod
    def of(
        cls,
        name: str,
        arrival_rates: Sequence[float],
        seed_rates: Sequence[float],
        base_overrides: Optional[Dict[str, float]] = None,
        **kwargs,
    ) -> "AdaptiveFleetSpec":
        """Convenience constructor accepting a plain mapping of overrides."""
        frozen = _freeze_values(base_overrides or {}, "AdaptiveFleetSpec")
        return cls(
            name=name,
            arrival_rates=tuple(arrival_rates),
            seed_rates=tuple(seed_rates),
            base_overrides=frozen,
            **kwargs,
        )

    # -- candidate set -------------------------------------------------------

    @property
    def strata(self) -> Tuple[ScenarioWeight, ...]:
        """The scenario strata (an empty mix is one plain stratum)."""
        return self.scenario_mix or (ScenarioWeight(scenario=None),)

    @property
    def grid_shape(self) -> Tuple[int, int, int]:
        return (len(self.strata), len(self.arrival_rates), len(self.seed_rates))

    @property
    def cells(self) -> Tuple[CellKey, ...]:
        """All candidate points in deterministic (stratum, λ, U_s) order."""
        strata, arrivals, seeds = self.grid_shape
        return tuple(
            CellKey(m, a, s)
            for m in range(strata)
            for a in range(arrivals)
            for s in range(seeds)
        )

    def cell_point(self, cell: CellKey) -> Tuple[float, float, str]:
        """The ``(λ, U_s, scenario label)`` a cell stands for."""
        return (
            self.arrival_rates[cell.arrival],
            self.seed_rates[cell.seed],
            self.strata[cell.stratum].label,
        )

    def execution_spec(self) -> FleetSpec:
        """The plain ``FleetSpec`` carrying this run's per-swarm controls.

        Sampler and scenario mix are unused (the driver builds tasks from
        the acquisition's cell choices); the worker-side helpers only read
        run controls and capture thresholds from it.
        """
        return FleetSpec(
            name=self.name,
            num_swarms=self.swarm_budget,
            sampler=FixedSampler(),
            scenario_mix=(),
            horizon=self.horizon,
            sample_interval=self.sample_interval,
            max_events=self.max_events,
            max_population=self.max_population,
            backend=self.backend,
            initial_club_size=self.initial_club_size,
            capture_fraction=self.capture_fraction,
            capture_min_club=self.capture_min_club,
        )


def beta_mean_variance(successes: int, trials: int) -> Tuple[float, float]:
    """Mean and variance of the Beta(1 + successes, 1 + failures) posterior."""
    alpha = 1.0 + successes
    beta = 1.0 + trials - successes
    total = alpha + beta
    mean = alpha / total
    variance = alpha * beta / (total * total * (total + 1.0))
    return mean, variance


@dataclass(eq=False)
class CaptureGrid:
    """Beta-posterior capture-probability estimates over the candidate grid.

    Shared between the adaptive driver (acquisition + final estimate) and
    uniform fleet results (:meth:`from_records`, for apples-to-apples
    boundary-tightness comparisons).
    """

    arrival_rates: Tuple[float, ...]
    seed_rates: Tuple[float, ...]
    labels: Tuple[str, ...]
    successes: np.ndarray  # int array, shape (strata, arrivals, seeds)
    trials: np.ndarray
    band: Tuple[float, float] = (0.2, 0.8)

    @classmethod
    def empty(cls, spec: AdaptiveFleetSpec) -> "CaptureGrid":
        shape = spec.grid_shape
        return cls(
            arrival_rates=spec.arrival_rates,
            seed_rates=spec.seed_rates,
            labels=tuple(entry.label for entry in spec.strata),
            successes=np.zeros(shape, dtype=np.int64),
            trials=np.zeros(shape, dtype=np.int64),
            band=spec.boundary_band,
        )

    @classmethod
    def from_records(
        cls,
        records: Sequence[FleetSwarmRecord],
        arrival_rates: Sequence[float],
        seed_rates: Sequence[float],
        labels: Sequence[str] = ("plain",),
        band: Tuple[float, float] = (0.2, 0.8),
    ) -> "CaptureGrid":
        """Bin uniform-fleet records onto the grid by exact rate match.

        Records whose ``(scenario, arrival_rate, seed_rate)`` does not land
        on the grid are ignored (same exact-equality convention as
        :func:`repro.experiments.fleet.run_fleet_phase_diagram`).
        """
        grid = cls(
            arrival_rates=tuple(arrival_rates),
            seed_rates=tuple(seed_rates),
            labels=tuple(labels),
            successes=np.zeros(
                (len(labels), len(arrival_rates), len(seed_rates)), dtype=np.int64
            ),
            trials=np.zeros(
                (len(labels), len(arrival_rates), len(seed_rates)), dtype=np.int64
            ),
            band=band,
        )
        label_index = {label: i for i, label in enumerate(grid.labels)}
        arrival_index = {rate: i for i, rate in enumerate(grid.arrival_rates)}
        seed_index = {rate: i for i, rate in enumerate(grid.seed_rates)}
        for record in records:
            m = label_index.get(record.scenario)
            a = arrival_index.get(record.arrival_rate)
            s = seed_index.get(record.seed_rate)
            if m is None or a is None or s is None:
                continue
            grid.add(CellKey(m, a, s), record.captured)
        return grid

    def add(self, cell: CellKey, captured: bool) -> None:
        self.trials[cell] += 1
        self.successes[cell] += int(captured)

    # -- posterior surfaces --------------------------------------------------

    def mean(self) -> np.ndarray:
        alpha = 1.0 + self.successes
        beta = 1.0 + self.trials - self.successes
        return alpha / (alpha + beta)

    def variance(self) -> np.ndarray:
        alpha = 1.0 + self.successes
        beta = 1.0 + self.trials - self.successes
        total = alpha + beta
        return alpha * beta / (total * total * (total + 1.0))

    def boundary_mask(self) -> np.ndarray:
        """Cells currently on the empirical capture boundary.

        A cell is boundary when its posterior mean lies inside ``band``,
        or when a 4-neighbour *within the same stratum* sits on the other
        side of 0.5 — i.e. the capture transition passes next to it.
        """
        means = self.mean()
        lo, hi = self.band
        mask = (means >= lo) & (means <= hi)
        side = means >= 0.5
        # λ-axis neighbours.
        flip = side[:, 1:, :] != side[:, :-1, :]
        mask[:, 1:, :] |= flip
        mask[:, :-1, :] |= flip
        # U_s-axis neighbours.
        flip = side[:, :, 1:] != side[:, :, :-1]
        mask[:, :, 1:] |= flip
        mask[:, :, :-1] |= flip
        return mask

    def boundary_cells(self) -> Tuple[CellKey, ...]:
        mask = self.boundary_mask()
        return tuple(
            CellKey(int(m), int(a), int(s)) for m, a, s in zip(*np.nonzero(mask))
        )

    def mean_boundary_variance(self) -> float:
        """Mean Beta-posterior variance over the current boundary cells."""
        mask = self.boundary_mask()
        if not mask.any():
            return 0.0
        return float(self.variance()[mask].mean())

    def boundary_estimate(self) -> Dict[Tuple[str, float], Optional[float]]:
        """Interpolated capture-onset λ* per ``(scenario label, U_s)`` row.

        ``None`` means the posterior never crosses 0.5 along the λ axis
        (no capture inside the sampled range); a row already captured at
        the smallest λ reports that smallest λ.
        """
        means = self.mean()
        estimate: Dict[Tuple[str, float], Optional[float]] = {}
        for m, label in enumerate(self.labels):
            for s, seed_rate in enumerate(self.seed_rates):
                row = means[m, :, s]
                key = (label, seed_rate)
                if row[0] >= 0.5:
                    estimate[key] = float(self.arrival_rates[0])
                    continue
                estimate[key] = None
                for a in range(1, len(self.arrival_rates)):
                    if row[a] >= 0.5:
                        x0, x1 = self.arrival_rates[a - 1], self.arrival_rates[a]
                        y0, y1 = row[a - 1], row[a]
                        estimate[key] = float(x0 + (0.5 - y0) * (x1 - x0) / (y1 - y0))
                        break
        return estimate

    def key(self) -> Tuple:
        """Pure-data identity (arrays frozen to nested tuples)."""
        return (
            self.arrival_rates,
            self.seed_rates,
            self.labels,
            tuple(map(tuple, map(tuple, self.successes.tolist()))),
            tuple(map(tuple, map(tuple, self.trials.tolist()))),
            self.band,
        )


@dataclass(frozen=True)
class RoundSummary:
    """Trail entry of one completed acquisition round."""

    index: int
    cells: Tuple[CellKey, ...]  # sampled cells, in allocation order
    boundary_size: int
    mean_boundary_variance: float


def _allocate(scores: np.ndarray, count: int) -> Tuple[int, ...]:
    """Deterministic divisor apportionment of ``count`` swarms over scores.

    Repeatedly assigns the next swarm to the cell maximizing
    ``score / (1 + already assigned this round)`` (D'Hondt), ties broken by
    the lowest cell index — a pure function of the scores, so identical at
    any worker count.  With a flat score vector this degenerates to
    round-robin over all cells (the cold-start exploration round).
    """
    assigned = np.zeros(len(scores), dtype=np.int64)
    order: List[int] = []
    for _ in range(count):
        quotients = scores / (assigned + 1)
        best = int(np.argmax(quotients))  # argmax takes the first (lowest) index
        assigned[best] += 1
        order.append(best)
    return tuple(order)


class _AcquisitionState:
    """The deterministic acquisition automaton of one adaptive run.

    Consumes completed rounds (allocation + their records) and produces the
    next allocation; replaying the same record stream through it — live, or
    from the JSONL log on resume — reproduces the identical decisions.
    """

    def __init__(self, spec: AdaptiveFleetSpec):
        self.spec = spec
        self.grid = CaptureGrid.empty(spec)
        self.trail: List[RoundSummary] = []
        self.completed = 0  # records folded into *completed* rounds
        self.events = 0
        self.stable_rounds = 0
        self.prev_boundary: Optional[Tuple[CellKey, ...]] = None
        self.stopped: Optional[str] = None

    def next_round(self) -> Optional[Tuple[int, ...]]:
        """The next round's cell allocation, or ``None`` when stopping."""
        if self.stopped is not None:
            return None
        if (
            len(self.trail) >= self.spec.min_rounds
            and self.stable_rounds >= self.spec.patience
        ):
            self.stopped = "boundary-stable"
            return None
        if self.completed >= self.spec.swarm_budget:
            self.stopped = "swarm-budget"
            return None
        if (
            self.spec.event_budget is not None
            and self.events >= self.spec.event_budget
        ):
            self.stopped = "event-budget"
            return None
        count = min(self.spec.round_size, self.spec.swarm_budget - self.completed)
        scores = self.grid.variance().reshape(-1).copy()
        boost = self.grid.boundary_mask().reshape(-1)
        scores[boost] *= self.spec.boundary_boost
        return _allocate(scores, count)

    def complete_round(
        self, allocation: Tuple[int, ...], records: Sequence[FleetSwarmRecord]
    ) -> None:
        """Fold one finished round's records into the acquisition posterior."""
        if len(records) != len(allocation):
            raise ValueError(
                f"round of {len(allocation)} swarms completed with "
                f"{len(records)} records"
            )
        cells = self.spec.cells
        for cell_index, record in zip(allocation, records):
            self.grid.add(cells[cell_index], record.captured)
            self.events += record.events
        self.completed += len(allocation)
        boundary = self.grid.boundary_cells()
        mean_variance = self.grid.mean_boundary_variance()
        if boundary == self.prev_boundary and mean_variance <= self.spec.variance_tol:
            self.stable_rounds += 1
        else:
            self.stable_rounds = 0
        self.prev_boundary = boundary
        self.trail.append(
            RoundSummary(
                index=len(self.trail),
                cells=tuple(cells[i] for i in allocation),
                boundary_size=len(boundary),
                mean_boundary_variance=mean_variance,
            )
        )


def _replay_state(
    spec: AdaptiveFleetSpec, records: Sequence[FleetSwarmRecord]
) -> Tuple[_AcquisitionState, Optional[Tuple[Tuple[int, ...], int]]]:
    """Rebuild the acquisition state from a log's record prefix.

    Returns the state after all *completed* rounds plus, when the record
    stream ends mid-round, the pending ``(allocation, done_in_round)`` of
    the interrupted round (whose allocation is re-derived from the same
    completed-round statistics the original run used).
    """
    state = _AcquisitionState(spec)
    position = 0
    while position < len(records):
        allocation = state.next_round()
        if allocation is None:
            raise ValueError(
                "fleet log holds more records than the acquisition schedule "
                "explains; the log does not belong to this spec/seed"
            )
        if position + len(allocation) <= len(records):
            state.complete_round(
                allocation, records[position : position + len(allocation)]
            )
            position += len(allocation)
        else:
            return state, (allocation, len(records) - position)
    return state, None


@dataclass(eq=False)
class AdaptiveFleetResult:
    """Outcome of one adaptive boundary-mapping run.

    ``fleet`` is the ordinary streaming census over every sampled swarm;
    ``rounds`` is the per-round trail (which cells each round sampled, how
    the boundary uncertainty shrank); ``cell_assignments`` pins each record
    to its candidate cell, in global sample order.  ``stopped`` names the
    stopping-rule clause that ended the run (``None`` for an interrupted
    partial result awaiting resume).
    """

    spec: AdaptiveFleetSpec
    fleet: FleetResult
    rounds: Tuple[RoundSummary, ...]
    cell_assignments: Tuple[CellKey, ...]
    stopped: Optional[str]
    grid: CaptureGrid = field(init=False)

    def __post_init__(self) -> None:
        if len(self.cell_assignments) != len(self.fleet.records):
            raise ValueError(
                f"{len(self.cell_assignments)} cell assignments for "
                f"{len(self.fleet.records)} records"
            )
        grid = CaptureGrid.empty(self.spec)
        for cell, record in zip(self.cell_assignments, self.fleet.records):
            grid.add(cell, record.captured)
        self.grid = grid

    # -- boundary estimate ---------------------------------------------------

    @property
    def complete(self) -> bool:
        return self.stopped is not None

    def trail(self) -> Tuple[Tuple[float, float, str], ...]:
        """The sampled-point trail: ``(λ, U_s, scenario)`` per swarm, in order."""
        return tuple(self.spec.cell_point(cell) for cell in self.cell_assignments)

    def boundary_estimate(self) -> Dict[Tuple[str, float], Optional[float]]:
        return self.grid.boundary_estimate()

    def mean_boundary_variance(self) -> float:
        return self.grid.mean_boundary_variance()

    def fingerprint(self) -> Tuple:
        """Order-stable value identity (checkpoint-equality tests)."""
        return (
            self.spec.name,
            self.stopped,
            self.cell_assignments,
            self.fleet.fingerprint(),
            self.grid.key(),
        )

    # -- reporting -----------------------------------------------------------

    def report(self) -> str:
        """Posterior capture grid per stratum + round trail + fleet census."""
        lines = [
            f"adaptive fleet {self.spec.name!r}: {len(self.fleet.records)} swarms "
            f"sampled in {len(self.rounds)} rounds "
            f"(budget {self.spec.swarm_budget}), "
            f"stopped: {self.stopped or 'interrupted'}, "
            f"mean boundary variance {self.mean_boundary_variance():.4f}",
        ]
        means = self.grid.mean()
        trials = self.grid.trials
        for m, label in enumerate(self.grid.labels):
            headers = ["Us \\ lambda"] + [f"{rate:g}" for rate in self.spec.arrival_rates]
            rows = []
            for s, seed_rate in enumerate(self.spec.seed_rates):
                row = [f"{seed_rate:g}"]
                for a in range(len(self.spec.arrival_rates)):
                    row.append(f"{means[m, a, s]:.2f} (n={int(trials[m, a, s])})")
                rows.append(row)
            lines.append(
                format_table(
                    headers=headers,
                    rows=rows,
                    title=f"Posterior capture probability — stratum {label!r}",
                )
            )
        estimate_rows = [
            (label, f"{seed_rate:g}", "none" if value is None else f"{value:.3f}")
            for (label, seed_rate), value in sorted(self.boundary_estimate().items())
        ]
        lines.append(
            format_table(
                headers=["scenario", "Us", "lambda*"],
                rows=estimate_rows,
                title="Estimated capture-onset boundary (posterior mean = 0.5)",
            )
        )
        trail_rows = [
            (
                summary.index,
                len(summary.cells),
                summary.boundary_size,
                f"{summary.mean_boundary_variance:.4f}",
            )
            for summary in self.rounds
        ]
        lines.append(
            format_table(
                headers=["round", "swarms", "boundary cells", "mean boundary var"],
                rows=trail_rows,
                title="Acquisition trail",
            )
        )
        lines.append(self.fleet.report())
        return "\n\n".join(lines)


class AdaptiveFleetDriver(PersistentFleetExecution):
    """Execute an :class:`AdaptiveFleetSpec` with streaming persistence.

    The adaptive part of a run, as round hooks on the shared
    :class:`~repro.fleet.scheduler.PersistentFleetExecution` loop (which
    owns sharding, JSONL logging, offset checkpoints, the deterministic
    kill switches, exact :meth:`resume` and ``stacked`` execution — see
    there for the parameters): :meth:`_prepare` replays the log prefix into
    the acquisition state, the seed stream and the cell assignments;
    :meth:`_rounds` yields the interrupted round's remainder, then each
    acquisition round's tasks, folding every completed round into the
    posterior; :meth:`_result` wraps the census with the trail.  Records
    are bit-identical on either execution path, so the sampled-point trail
    and boundary estimate do not depend on it.
    """

    spec_type = AdaptiveFleetSpec
    # Acquisition decisions are taken at round ends, so each gets a
    # checkpoint.
    _checkpoint_rounds = True

    def _round_size(self) -> int:
        return self.spec.round_size

    def _execution_spec(self) -> FleetSpec:
        return self.spec.execution_spec()

    def _prepare(self, seed, records: List[FleetSwarmRecord]) -> None:
        self._state, self._pending = _replay_state(self.spec, records)
        # The cell of every task built so far, in global swarm order.
        self._cells = [cell for summary in self._state.trail for cell in summary.cells]
        if self._pending is not None:
            allocation, done = self._pending
            self._cells.extend(self.spec.cells[i] for i in allocation[:done])
        # Swarm seeds are the root's spawn children in global swarm order.
        self._seeds = _root_sequence(seed)
        self._seeds.spawn(len(records))

    def _rounds(self, result: FleetResult) -> Iterator[List[SwarmTask]]:
        state = self._state
        allocation, done = self._pending or (state.next_round(), 0)
        while allocation is not None:
            yield [self._task(cell_index) for cell_index in allocation[done:]]
            state.complete_round(
                allocation,
                result.records[state.completed : state.completed + len(allocation)],
            )
            allocation, done = state.next_round(), 0

    def _result(self, result: FleetResult) -> AdaptiveFleetResult:
        return AdaptiveFleetResult(
            spec=self.spec,
            fleet=result,
            rounds=tuple(self._state.trail),
            cell_assignments=tuple(self._cells[: len(result.records)]),
            stopped=self._state.stopped,
        )

    def _task(self, cell_index: int) -> SwarmTask:
        global_index = len(self._cells)
        cell = self.spec.cells[cell_index]
        self._cells.append(cell)
        _assignment_seq, simulation_seq = self._seeds.spawn(1)[0].spawn(2)
        kwargs: Dict[str, float] = dict(self.spec.base_overrides)
        kwargs["num_pieces"] = self.spec.num_pieces
        kwargs["arrival_rate"] = self.spec.arrival_rates[cell.arrival]
        kwargs["seed_rate"] = self.spec.seed_rates[cell.seed]
        return task_for_point(
            global_index, simulation_seq, kwargs, self.spec.strata[cell.stratum]
        )


def run_adaptive_fleet(
    spec: AdaptiveFleetSpec,
    seed: SeedLike = 0,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
    checkpoint_path: Optional[Union[str, Path]] = None,
    checkpoint_every: int = 1,
    log_path: Optional[Union[str, Path]] = None,
    stop_after_swarms: Optional[int] = None,
    suspend_after_events: Optional[int] = None,
    fsync_every_n: int = 1,
    stacked: bool = False,
    max_retries: int = 0,
    task_timeout: Optional[float] = None,
    retry_backoff: float = 0.0,
    fault_plan: Optional[FaultPlan] = None,
) -> AdaptiveFleetResult:
    """One-call adaptive execution (see :class:`AdaptiveFleetDriver`).

    ``backend=`` is accepted for signature uniformity with ``run_swarm`` /
    ``run_scenario`` but the execution backend is declared on the spec, so
    any non-``None`` value is rejected.
    """
    if backend is not None:
        raise unsupported_option(
            "run_adaptive_fleet", "backend", backend,
            "the execution backend is declared on the fleet spec; construct "
            "AdaptiveFleetSpec(backend=...) instead",
        )
    driver = AdaptiveFleetDriver(
        spec,
        workers=workers,
        chunk_size=chunk_size,
        checkpoint_path=checkpoint_path,
        checkpoint_every=checkpoint_every,
        log_path=log_path,
        fsync_every_n=fsync_every_n,
        stacked=stacked,
        max_retries=max_retries,
        task_timeout=task_timeout,
        retry_backoff=retry_backoff,
        fault_plan=fault_plan,
    )
    return driver.run(
        seed=seed,
        stop_after_swarms=stop_after_swarms,
        suspend_after_events=suspend_after_events,
    )


def resume_adaptive_fleet(
    checkpoint_path: Union[str, Path],
    workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
    checkpoint_every: int = 1,
    fsync_every_n: int = 1,
    stacked: bool = False,
    max_retries: int = 0,
    task_timeout: Optional[float] = None,
    retry_backoff: float = 0.0,
    fault_plan: Optional[FaultPlan] = None,
) -> AdaptiveFleetResult:
    """Resume a killed adaptive fleet (see :meth:`AdaptiveFleetDriver.resume`)."""
    driver = AdaptiveFleetDriver.from_checkpoint(
        checkpoint_path,
        workers=workers,
        chunk_size=chunk_size,
        checkpoint_every=checkpoint_every,
        fsync_every_n=fsync_every_n,
        stacked=stacked,
        max_retries=max_retries,
        task_timeout=task_timeout,
        retry_backoff=retry_backoff,
        fault_plan=fault_plan,
    )
    return driver.resume()


__all__ = [
    "AdaptiveFleetDriver",
    "AdaptiveFleetResult",
    "AdaptiveFleetSpec",
    "CaptureGrid",
    "CellKey",
    "RoundSummary",
    "beta_mean_variance",
    "resume_adaptive_fleet",
    "run_adaptive_fleet",
]
