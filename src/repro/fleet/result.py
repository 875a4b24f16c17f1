"""Fleet aggregation: per-swarm records and the incremental FleetResult.

Workers reduce each finished swarm's :class:`~repro.swarm.metrics.SwarmMetrics`
stream to a compact, fully deterministic :class:`FleetSwarmRecord` — scalars
plus fixed-bin sojourn/download histograms — so a fleet of thousands of
swarms streams kilobytes, not metric arrays, back to the scheduler.  The
scheduler feeds records (in swarm-index order) into a :class:`FleetResult`,
which maintains the fleet-level census incrementally:

* **one-club prevalence** — the fraction of swarms captured by the
  missing-piece regime (:func:`~repro.markov.classify.is_captured` of the
  final one-club and population),
* **sojourn / download-time distributions** — summed fixed-bin histograms,
* **theory-vs-outcome confusion counts** — the scenario-aware Theorem-1
  verdict (piecewise over schedule segments; ``out-of-theory`` for classed
  scenarios) against the empirical trajectory verdict,
* **per-scenario breakdown** of all of the above.

Records and aggregates contain no wall-clock data, so two runs of the same
``(spec, seed)`` — at any worker count, interrupted and resumed or not —
produce *equal* :class:`FleetResult` objects; the checkpoint tests compare
them with ``==``.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from ..analysis.tables import format_table
from ..core.schedule_stability import piecewise_stability
from ..core.stability import analyze
from ..markov.classify import classify_trajectory, is_captured
from ..swarm.swarm import SwarmResult
from .spec import FleetSpec, SwarmTask

#: Upper edges of the sojourn / download-time histogram bins (time units);
#: the last bin is open-ended.
TIME_BIN_EDGES = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)

_TIME_BIN_EDGES_ARRAY = np.asarray(TIME_BIN_EDGES, dtype=np.float64)


def _histogram(values: List[float]) -> Tuple[int, ...]:
    if not values:
        return (0,) * (len(TIME_BIN_EDGES) + 1)
    # searchsorted(side="right") sends a value equal to an edge into the
    # next (right-open) bin, exactly like np.histogram over the
    # (0, e1], (e1, e2], ..., (e_last, inf) edge vector used previously —
    # but without histogram's per-call edge validation overhead.
    bins = np.searchsorted(
        _TIME_BIN_EDGES_ARRAY, np.asarray(values, dtype=np.float64), side="right"
    )
    counts = np.bincount(bins, minlength=len(TIME_BIN_EDGES) + 1)
    return tuple(int(c) for c in counts)


@dataclass(frozen=True)
class FleetSwarmRecord:
    """Deterministic summary of one finished swarm."""

    index: int
    scenario: str
    arrival_rate: float
    seed_rate: float
    peer_rate: float
    seed_departure_rate: float
    theory: str
    empirical: str
    captured: bool
    final_population: int
    final_one_club: int
    final_seeds: int
    events: int
    horizon_reached: bool
    sojourn_count: int
    sojourn_mean: float
    sojourn_hist: Tuple[int, ...]
    download_count: int
    download_mean: float
    download_hist: Tuple[int, ...]
    #: ``"ok"`` for a completed swarm, ``"failed"`` for one whose retries
    #: were exhausted and which degraded to a placeholder record.
    status: str = "ok"
    error: str = ""
    attempts: int = 0

    def key(self) -> Tuple:
        return astuple(self)

    @property
    def failed(self) -> bool:
        return self.status == "failed"


#: Identity-keyed memo of Theorem-1 verdicts.  ``SystemParameters`` holds a
#: dict (``arrival_rates``) and is unhashable, so the memo keys on object
#: identity and re-verifies the stored references on every hit — a recycled
#: ``id`` can never alias a stale verdict.  ``materialize_tasks`` shares one
#: params/scenario object per distinct mix choice (and pickling a chunk
#: preserves that sharing worker-side), so a fleet chunk computes each
#: distinct verdict once instead of once per swarm.
_VERDICT_MEMO: Dict[Tuple[int, int], Tuple[object, object, str]] = {}

_VERDICT_MEMO_MAX = 4096


def theory_verdict(task: SwarmTask) -> str:
    """Scenario-aware Theorem-1 verdict for one fleet task.

    Plain swarms get the classic constant-rate verdict; scenario swarms get
    the conservative piecewise whole-run verdict (``out-of-theory`` for
    heterogeneous classes).
    """
    key = (id(task.params), id(task.scenario))
    hit = _VERDICT_MEMO.get(key)
    if hit is not None and hit[0] is task.params and hit[1] is task.scenario:
        return hit[2]
    if task.scenario is None:
        verdict = analyze(task.params).verdict.value
    else:
        verdict = piecewise_stability(task.scenario).overall
    if len(_VERDICT_MEMO) >= _VERDICT_MEMO_MAX:
        _VERDICT_MEMO.clear()
    _VERDICT_MEMO[key] = (task.params, task.scenario, verdict)
    return verdict


def record_from_result(
    task: SwarmTask, spec: FleetSpec, result: SwarmResult
) -> FleetSwarmRecord:
    """Reduce one swarm's outcome to its fleet record (worker-side).

    ``spec`` is unused (the capture rule is :func:`is_captured`); the
    signature is kept for its callers.
    """
    metrics = result.metrics
    peak_arrival = (
        task.scenario.peak_arrival_rate
        if task.scenario is not None
        else task.params.lambda_total
    )
    classification = classify_trajectory(
        metrics.sample_times, metrics.population, arrival_rate=peak_arrival
    )
    final_population = metrics.final_population
    final_one_club = metrics.one_club_size[-1] if metrics.one_club_size else 0
    final_seeds = metrics.num_seeds[-1] if metrics.num_seeds else 0
    return FleetSwarmRecord(
        index=task.index,
        scenario=task.scenario_label,
        arrival_rate=task.params.lambda_total,
        seed_rate=task.params.seed_rate,
        peer_rate=task.params.peer_rate,
        seed_departure_rate=task.params.seed_departure_rate,
        theory=theory_verdict(task),
        empirical=classification.verdict.value,
        captured=is_captured(final_one_club, final_population),
        final_population=final_population,
        final_one_club=final_one_club,
        final_seeds=final_seeds,
        events=result.events_executed,
        horizon_reached=result.horizon_reached,
        sojourn_count=len(metrics.sojourn_times),
        sojourn_mean=(
            float(np.mean(metrics.sojourn_times)) if metrics.sojourn_times else 0.0
        ),
        sojourn_hist=_histogram(metrics.sojourn_times),
        download_count=len(metrics.download_times),
        download_mean=(
            float(np.mean(metrics.download_times)) if metrics.download_times else 0.0
        ),
        download_hist=_histogram(metrics.download_times),
    )


def failure_record(
    task: SwarmTask, spec: FleetSpec, error: str, attempts: int
) -> FleetSwarmRecord:
    """The schema-versioned ``failed`` placeholder for an exhausted swarm.

    Carries the task's full parameter point and theory verdict (both are
    pure functions of the spec) next to zeroed empirical fields, so a
    degraded fleet still reports *which* point failed and why — graceful
    degradation, never silent loss.  ``empirical="failed"`` keeps the
    record out of every capture statistic (``captured=False``, 0 events).
    """
    empty_hist = (0,) * (len(TIME_BIN_EDGES) + 1)
    return FleetSwarmRecord(
        index=task.index,
        scenario=task.scenario_label,
        arrival_rate=task.params.lambda_total,
        seed_rate=task.params.seed_rate,
        peer_rate=task.params.peer_rate,
        seed_departure_rate=task.params.seed_departure_rate,
        theory=theory_verdict(task),
        empirical="failed",
        captured=False,
        final_population=0,
        final_one_club=0,
        final_seeds=0,
        events=0,
        horizon_reached=False,
        sojourn_count=0,
        sojourn_mean=0.0,
        sojourn_hist=empty_hist,
        download_count=0,
        download_mean=0.0,
        download_hist=empty_hist,
        status="failed",
        error=error,
        attempts=attempts,
    )


@dataclass
class _ScenarioCensus:
    """Per-scenario incremental tallies."""

    swarms: int = 0
    captured: int = 0
    events: int = 0

    def add(self, record: FleetSwarmRecord) -> None:
        self.swarms += 1
        self.captured += int(record.captured)
        self.events += record.events


@dataclass
class FleetResult:
    """Incremental aggregate of a fleet run (equality is exact by value)."""

    spec_name: str
    num_swarms: int
    records: List[FleetSwarmRecord] = field(default_factory=list)
    complete: bool = False
    captured_count: int = 0
    failed_count: int = 0
    total_events: int = 0
    confusion: Dict[Tuple[str, str], int] = field(default_factory=dict)
    per_scenario: Dict[str, _ScenarioCensus] = field(default_factory=dict)
    sojourn_hist: Tuple[int, ...] = (0,) * (len(TIME_BIN_EDGES) + 1)
    download_hist: Tuple[int, ...] = (0,) * (len(TIME_BIN_EDGES) + 1)

    # -- streaming -----------------------------------------------------------

    def add(self, record: FleetSwarmRecord) -> None:
        """Fold one swarm record in; records must arrive in index order."""
        if record.index != len(self.records):
            raise ValueError(
                f"records must arrive in index order: got index {record.index}, "
                f"expected {len(self.records)}"
            )
        self.records.append(record)
        self.captured_count += int(record.captured)
        self.failed_count += int(record.failed)
        self.total_events += record.events
        pair = (record.theory, record.empirical)
        self.confusion[pair] = self.confusion.get(pair, 0) + 1
        self.per_scenario.setdefault(record.scenario, _ScenarioCensus()).add(record)
        self.sojourn_hist = tuple(
            a + b for a, b in zip(self.sojourn_hist, record.sojourn_hist)
        )
        self.download_hist = tuple(
            a + b for a, b in zip(self.download_hist, record.download_hist)
        )
        if len(self.records) == self.num_swarms:
            self.complete = True

    @classmethod
    def from_records(
        cls, spec_name: str, num_swarms: int, records: List[FleetSwarmRecord]
    ) -> "FleetResult":
        """Rebuild a result (e.g. from a checkpoint) by replaying records."""
        result = cls(spec_name=spec_name, num_swarms=num_swarms)
        for record in records:
            result.add(record)
        return result

    @classmethod
    def from_log(
        cls, path, max_records: "int | None" = None, strict: bool = True
    ) -> "FleetResult":
        """Rebuild the census of a (possibly still running) JSONL fleet log.

        Reads the one log file written by
        :class:`repro.fleet.persistence.FleetLogWriter` — tolerating a
        truncated tail line — and replays its records, so the
        reconstruction equals the census the run streamed incrementally.
        ``max_records`` truncates the replay (e.g. to a checkpoint's
        ``num_records``).  ``strict=False`` salvages a damaged log: records
        that fail their checksum are skipped with a warning and the replay
        folds the longest index-contiguous prefix of what survived.
        """
        # Local import: persistence imports FleetSwarmRecord from this module.
        from .persistence import read_log

        log = read_log(path, max_records=max_records, strict=strict)
        records: List[FleetSwarmRecord] = []
        for record in log.records:
            if record.index != len(records):
                if strict:
                    break  # from_records would raise; keep the prefix contract
                import warnings

                warnings.warn(
                    f"fleet log {path}: record index jumped from "
                    f"{len(records)} to {record.index}; replay stops at the "
                    f"contiguous prefix",
                    stacklevel=2,
                )
                break
            records.append(record)
        return cls.from_records(log.header.spec_name, log.header.num_swarms, records)

    # -- aggregates ----------------------------------------------------------

    def prevalence(self) -> float:
        """Fraction of completed swarms captured by the one-club regime."""
        if not self.records:
            return 0.0
        return self.captured_count / len(self.records)

    def failures(self) -> List[FleetSwarmRecord]:
        """The ``failed`` placeholder records (exhausted-retry swarms)."""
        return [record for record in self.records if record.failed]

    def mean_sojourn_time(self) -> float:
        """Departure-weighted mean sojourn time across the fleet."""
        total = sum(r.sojourn_count for r in self.records)
        if total == 0:
            return float("nan")
        return sum(r.sojourn_mean * r.sojourn_count for r in self.records) / total

    def mean_download_time(self) -> float:
        """Completion-weighted mean download time across the fleet."""
        total = sum(r.download_count for r in self.records)
        if total == 0:
            return float("nan")
        return sum(r.download_mean * r.download_count for r in self.records) / total

    def fingerprint(self) -> Tuple:
        """Order-stable value identity (used by checkpoint-equality tests)."""
        return (
            self.spec_name,
            self.num_swarms,
            self.complete,
            tuple(record.key() for record in self.records),
        )

    # -- reporting -----------------------------------------------------------

    def confusion_table(self) -> str:
        rows = [
            (theory, empirical, count)
            for (theory, empirical), count in sorted(self.confusion.items())
        ]
        return format_table(
            headers=["theory", "empirical", "swarms"],
            rows=rows,
            title="Theorem-1 verdict vs. empirical outcome",
        )

    def report(self) -> str:
        """Multi-table human-readable fleet summary."""
        failed = f", {self.failed_count} failed" if self.failed_count else ""
        lines = [
            f"fleet {self.spec_name!r}: {len(self.records)}/{self.num_swarms} "
            f"swarms, one-club prevalence {self.prevalence():.1%}, "
            f"{self.total_events} events{failed}",
        ]
        scenario_rows = [
            (
                name,
                census.swarms,
                census.captured,
                census.captured / census.swarms if census.swarms else 0.0,
                census.events,
            )
            for name, census in sorted(self.per_scenario.items())
        ]
        lines.append(
            format_table(
                headers=["scenario", "swarms", "captured", "prevalence", "events"],
                rows=scenario_rows,
                title="Per-scenario capture census",
            )
        )
        lines.append(self.confusion_table())
        edges = ("<=0.5",) + tuple(
            f"<={edge:g}" for edge in TIME_BIN_EDGES[1:]
        ) + (">last",)
        lines.append(
            format_table(
                headers=["bin"] + list(edges),
                rows=[
                    ["sojourn"] + list(self.sojourn_hist),
                    ["download"] + list(self.download_hist),
                ],
                title="Sojourn / download-time distributions (departed peers)",
            )
        )
        return "\n\n".join(lines)


__all__ = [
    "FleetResult",
    "FleetSwarmRecord",
    "TIME_BIN_EDGES",
    "failure_record",
    "record_from_result",
    "theory_verdict",
]
