"""Peer-level discrete-event simulator of the Zhu--Hajek swarm.

The simulator follows the model of Section III exactly:

* type-``C`` peers arrive as independent Poisson processes with rates
  ``λ_C``;
* the fixed seed contacts a uniformly chosen peer at the ticks of a rate
  ``U_s`` Poisson clock and uploads one useful piece chosen by the
  piece-selection policy (random useful by default);
* each peer contacts a uniformly chosen peer (possibly itself, in which case
  nothing useful can be transferred — matching the ``x_C/n`` normalisation of
  Eq. (1)) at the ticks of its own rate-``µ`` clock;
* a peer that completes the file stays as a peer seed for an Exp(γ) time
  (or departs immediately when ``γ = ∞``).

Because all peer clocks share the same rate, the simulation samples the
*aggregate* next event (arrival / seed tick / some peer's tick / some seed's
departure) instead of maintaining one timer per peer, which keeps a step at
O(population) worst case and usually O(1).

The optional ``retry_speedup`` factor implements the Section VIII-C extension:
a peer whose contact found no useful piece runs its clock faster by the given
factor until its next tick.

This module holds the object-per-peer *reference* backend.  The
structure-of-arrays fast backend lives in :mod:`repro.swarm.kernel`; both are
trajectory-equivalent under a shared seed and are selected via
:func:`make_simulator` / ``run_swarm(..., backend="object" | "array")``.

Every stochastic decision of either backend is taken from the shared blocked
:class:`~repro.swarm.drawbuf.DrawBuffer` (one uniform per decision,
inverse-transform exponentials), so the RNG-consumption contract is defined
entirely by *which* decisions happen in which order — and is invariant under
the buffer's block size.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.parameters import SystemParameters
from ..core.scenario import PeerClass, RateSchedule, ScenarioSpec
from ..core.state import SystemState
from ..core.types import PieceSet
from ..simulation.rng import SeedLike, make_rng
from .drawbuf import DrawBuffer
from .gossip import CensusSpec, GossipCensus, GossipState, build_gossip
from .groups import GroupSnapshot
from .metrics import SwarmMetrics, check_sample_grid
from .peer import Peer
from .policies import (
    CensusSource,
    OracleCensus,
    PieceSelectionPolicy,
    RandomUsefulSelection,
    SwarmView,
)
from .topology import OverlayState, TopologySpec, build_overlay


@dataclass
class SwarmResult:
    """Outcome of one swarm simulation run (or run segment).

    ``suspended`` is True when the run stopped at ``suspend_after_events``
    and can be continued bit-identically via ``run(..., resume=True)``
    (possibly on a fresh simulator after ``capture_state`` /
    ``restore_state``).

    ``events_executed`` counts the events *dispatched* so far in the current
    run, cumulatively across resumed segments.  Under a time-varying
    :class:`~repro.core.scenario.RateSchedule` the loop runs the scheduled
    processes at their maximum rate and thins candidates back down, and a
    candidate **rejected by thinning still counts** as one dispatched event
    (it consumed draws and advanced the clock); the number of such
    rejections is ``metrics.thinned_events``, so the accepted
    (post-thinning) event count is ``events_executed - thinned_events``.
    Without schedules the two notions coincide.
    """

    metrics: SwarmMetrics
    final_time: float
    final_population: int
    final_state: SystemState
    horizon_reached: bool
    suspended: bool = False
    events_executed: int = 0


def _pick_from_segments(segments: List[Tuple[float, List[int]]], u: float) -> int:
    """The handle that one uniform ``u`` picks over concatenated (unit
    weight, handles) segments.

    The threshold ``total * u`` is the same double as
    ``DrawBuffer.uniform(0.0, total)``; the in-segment index is a
    truncate-and-clamp.  ``total`` and the segment bounds are plain
    left-to-right sums, the same doubles as the array kernel's ``cumsum``
    tables (``sum()`` compensates float sums on Python ≥ 3.12).  Both
    backends' scalar heterogeneous picks and the array kernel's
    batch-stage walk call this one function.
    """
    total = 0.0
    for unit, handles in segments:
        total += unit * len(handles)
    threshold = total * u
    acc = 0.0
    for unit, handles in segments[:-1]:
        width = unit * len(handles)
        if threshold < acc + width:
            break
        acc += width
    else:
        unit, handles = segments[-1]
    index = int((threshold - acc) / unit)
    size = len(handles)
    return handles[index if index < size else size - 1]


class _SwarmEventLoop:
    """Shared event-loop driver of the two trajectory-equivalent backends.

    Both :class:`SwarmSimulator` and
    :class:`~repro.swarm.kernel.ArraySwarmKernel` inherit the aggregate-rate
    event loop from here, so the RNG-consumption contract (which draws happen,
    in which order, with which bounds) lives in exactly one place.  All draws
    come from ``self.draws`` — the blocked
    :class:`~repro.swarm.drawbuf.DrawBuffer` over ``self.rng`` — at exactly
    one uniform per decision, which is what lets the array kernel resolve
    runs of events against the pending block with vectorized ops (see
    :meth:`_batch_stage`) without changing any trajectory.  Subclasses
    provide the state representation and the four event handlers plus:

    * the ``population`` property and the flat ``_seeds`` list of peer-seed
      handles (:attr:`num_seeds` counts it, or ``_class_seeds``),
    * ``_total_peer_tick_rate()`` — maintained incrementally,
    * the population mutators, each of which sets ``_rates_dirty`` (below),
    * ``one_club_size()``, the ``_piece_counts`` census and
      ``_group_snapshot(time)`` — read by :meth:`_record_samples`, which
      appends one frozen row for the grid times of a gap,
    * ``current_state()`` — the final :class:`SystemState` aggregation,
    * ``_handle_arrival`` / ``_handle_seed_tick`` / ``_handle_peer_tick`` /
      ``_handle_seed_departure``,
    * ``backend_name`` plus ``_capture_backend_state()`` /
      ``_restore_backend_state(state)`` — the snapshot hooks behind the
      shared :meth:`capture_state` / :meth:`restore_state` API.

    Snapshot / resume contract
    --------------------------
    :meth:`run` keeps its loop state (sample grid position, cumulative event
    count) on the instance, so a run can be *suspended* after a given number
    of events (``suspend_after_events=``) and later continued with
    ``run(..., resume=True)``; the continuation consumes the RNG exactly as
    an uninterrupted run would, so the full trajectory is bit-identical.
    :meth:`capture_state` serialises everything mutable — RNG state, clock,
    metrics, population, scenario bookkeeping, run-loop position — into a
    picklable dict, and :meth:`restore_state` loads such a snapshot into a
    freshly constructed simulator with the *same constructor arguments*
    (params, policy, scenario, backend).  Schedules are stateless tables, so
    the scenario "position" is fully determined by the restored clock.

    Scenario support also lives here (see :mod:`repro.core.scenario`):

    * time-varying arrival / fixed-seed rate schedules are realised by
      *Poisson thinning* — the loop runs the affected process at the
      schedule's maximum rate and accepts a candidate event with probability
      ``factor(t) / max_factor``, consuming exactly one extra uniform draw
      per candidate, in the shared driver, so both backends stay
      bit-identical per seed;
    * heterogeneous peer classes are sampled through the shared
      ``_draw_*`` helpers below, which only require the backends to maintain
      per-class member / seed / sped-up lists (``_class_members``,
      ``_class_seeds``, ``_class_sped``) holding backend-native handles
      (peer ids for the object simulator, row indices for the array kernel)
      in the same arrival order.

    A ``scenario=None`` (or a trivial scenario) leaves every legacy code
    path — and therefore every legacy-seed trajectory — untouched.

    Cached event rates
    ------------------
    The four event rates, their partial sums and ``1 / total`` live in one
    cache that :meth:`_refresh_rates` rebuilds from :meth:`_event_rates`
    (same terms, same doubles) only when ``_rates_dirty`` is set.  The
    contract: **every mutation a rate reads sets ``_rates_dirty = True``** —
    in both backends ``_add_peer`` / ``_remove_peer``, ``_add_seed`` /
    ``_remove_seed``, ``_add_sped`` / ``_discard_sped`` (when they change the
    list), ``seed_population``, :meth:`restore_state` and the cull.  A
    non-completing transfer leaves the cache clean.  ``rate_refreshes``
    counts rebuilds (deterministic, draw-free, outside snapshots); stacked
    lanes read the same cache.
    """

    params: SystemParameters
    rng: "np.random.Generator"
    metrics: SwarmMetrics
    _time: float
    _arrival_total: float
    scenario: Optional[ScenarioSpec]
    _classes: Optional[Tuple[PeerClass, ...]]

    #: Overridden by each backend; recorded in snapshots so a state captured
    #: on one backend cannot be restored into the other by mistake.
    backend_name = "abstract"

    #: Flipped on by backends that implement the vectorized batching hook
    #: ``_batch_stage(limit)``: apply ``k >= 0`` events consuming exactly
    #: the scalar loop's draws, on a clean rate cache they leave unchanged,
    #: record any crossed grid points through :meth:`_record_until` and
    #: return ``k``; the first event not provably state-neutral (or
    #: crossing ``_run_horizon`` / ``limit``) is left unapplied.  A negative
    #: ``k`` (nothing applied) stops :meth:`_loop` early.
    _batch_enabled = False

    # -- scenario plumbing -----------------------------------------------------

    def _init_driver(
        self,
        scenario: Optional[ScenarioSpec],
        draw_block_size: Optional[int] = None,
    ) -> None:
        """Initialise the shared driver: scenario digestion, then fresh
        state through :meth:`_reset_run_state`.

        Backends call this after setting ``params``, ``rng``,
        ``_arrival_total`` and whatever their ``_reset_run_state`` reads.
        """
        #: The blocked draw buffer every stochastic decision comes from (see
        #: :mod:`repro.swarm.drawbuf`); both backends consume it identically.
        self.draws = DrawBuffer(self.rng, draw_block_size)
        self._init_scenario(scenario)
        # Rate terms that are constant for the simulator's lifetime, read by
        # `_event_rates` on every event (same products, so the same doubles).
        self._arrival_rate_bound = self._arrival_total * self._arrival_bound
        self._seed_tick_rate_bound = self.params.seed_rate * self._seed_bound
        self._immediate_departure = self.params.immediate_departure
        self._seed_departure_rate = self.params.seed_departure_rate
        self._reset_run_state()

    def _reset_run_state(self) -> None:
        """Fresh mutable state: clock, metrics, overlay, gossip, per-class
        lists, rate cache and run cursor.

        Digested configuration — scenario tables, rate bounds, the draw
        buffer — is left alone.  The array kernel extends this with its
        population columns, and stacked lanes cloned from a template call
        it for their fresh state, so the list of mutable fields lives in
        one place.
        """
        self._time = 0.0
        self.metrics = SwarmMetrics()
        #: Set by every rate-moving mutation; see "Cached event rates".
        self._rates_dirty = True
        #: Cache rebuilds so far (a deterministic work counter).
        self.rate_refreshes = 0
        #: Slot-indexed contact overlay shared (by construction, not by
        #: reference) between backends; ``None`` keeps uniform contacts.
        self._overlay: Optional[OverlayState] = build_overlay(self._topology)
        #: Slot-indexed flow-updating census state (same slot discipline as
        #: the overlay); ``None`` keeps the exact oracle census.
        self._gossip: Optional[GossipState] = build_gossip(
            self._census_spec, self.params.num_pieces
        )
        self._cull_done = False
        if self._classes is not None:
            num_classes = len(self._classes)
            self._class_members = [[] for _ in range(num_classes)]
            self._class_seeds = [[] for _ in range(num_classes)]
            self._class_sped = [[] for _ in range(num_classes)]
        self._run_active = False
        self._run_horizon: Optional[float] = None
        self._run_interval: Optional[float] = None
        self._next_sample = 0.0
        self._events = 0

    def _init_scenario(self, scenario: Optional[ScenarioSpec]) -> None:
        """Digest a :class:`ScenarioSpec` into the event loop's fast fields.

        Trivial pieces (constant-1 schedules, a single class equal to the
        base parameters) are normalised away so that the homogeneous hot
        path keeps its exact legacy behaviour and RNG consumption.
        """
        self.scenario = scenario
        self._classes = None
        self._arrival_schedule: Optional[RateSchedule] = None
        self._seed_schedule: Optional[RateSchedule] = None
        self._arrival_bound = 1.0
        self._seed_bound = 1.0
        self._thin_arrivals = False
        self._thin_seed = False
        self._class_cumprobs: Optional[np.ndarray] = None
        self._class_types: Optional[Tuple[Tuple[PieceSet, ...], ...]] = None
        self._class_type_cumprobs: Optional[List[np.ndarray]] = None
        self._class_members: Optional[List[List[int]]] = None
        self._class_seeds: Optional[List[List[int]]] = None
        self._class_sped: Optional[List[List[int]]] = None
        self._topology: Optional[TopologySpec] = None
        self._census_spec: Optional[CensusSpec] = None
        self._cull_time: Optional[float] = None
        self._cull_fraction = 0.0
        if scenario is None:
            return
        if scenario.params != self.params:
            raise ValueError(
                "scenario.params does not match the simulator's params; "
                "construct the simulator with scenario.params (or use "
                "run_scenario)"
            )
        arrival_schedule = scenario.arrival_schedule
        if not arrival_schedule.is_trivial:
            self._arrival_schedule = arrival_schedule
            self._arrival_bound = arrival_schedule.max_value
            self._thin_arrivals = not arrival_schedule.is_constant
        seed_schedule = scenario.seed_schedule
        if not seed_schedule.is_trivial:
            self._seed_schedule = seed_schedule
            self._seed_bound = seed_schedule.max_value
            self._thin_seed = not seed_schedule.is_constant
        topology = getattr(scenario, "topology", None)
        if topology is not None and not topology.is_complete:
            self._topology = topology
        census = getattr(scenario, "census", None)
        if census is not None and not census.is_oracle:
            self._census_spec = census
        cull_time = getattr(scenario, "cull_time", None)
        if cull_time is not None:
            self._cull_time = float(cull_time)
            self._cull_fraction = float(scenario.cull_fraction)
        if scenario.is_heterogeneous:
            self._classes = scenario.effective_classes()
            # Cumulative probabilities: one uniform draw + searchsorted per
            # arrival instead of rng.choice's per-call validation overhead.
            self._class_cumprobs = np.cumsum(
                np.asarray(scenario.class_fractions(), dtype=float)
            )
            type_tables = scenario.class_arrival_types()
            self._class_types = tuple(
                tuple(type_c for type_c, _prob in table) for table in type_tables
            )
            self._class_type_cumprobs = [
                np.cumsum([prob for _type_c, prob in table])
                for table in type_tables
            ]

    def _class_departs_immediately(self, class_index: int) -> bool:
        """Whether a completing peer of the given class leaves instantly."""
        if self._classes is None:
            return self._immediate_departure
        return self._classes[class_index].immediate_departure

    def _thin_accept(self, schedule: RateSchedule, bound: float) -> bool:
        """Poisson-thinning acceptance for one candidate scheduled event.

        The candidate process runs at ``bound`` (the schedule's cached
        maximum); accepting with probability ``value_at(t) / bound``
        recovers the inhomogeneous process.  The single uniform draw lives
        here in the shared driver so both backends consume the RNG
        identically.
        """
        accept = self.draws.uniform(0.0, bound) < schedule.value_at(self._time)
        if not accept:
            self.metrics.thinned_events += 1
        return accept

    # -- gossip census (shared by both backends) -------------------------------

    def _make_census(self) -> CensusSource:
        """The census source policies read through ``view.census``."""
        if self._gossip is not None:
            return GossipCensus(self._gossip)
        return OracleCensus(MappingProxyType(self._piece_counts))

    def _gossip_tick(self, ticker_slot: int, target_slot: int) -> None:
        """The one gossip decision of a peer contact tick.

        Called by both backends' ``_handle_peer_tick`` immediately after
        the ticker/target draws, *before* the transfer.  Consumes exactly
        one uniform on every call — self-contacts and zero-degree overlay
        ticks included — so the per-event draw count stays a pure function
        of the event type; the exchange itself fires only when the uniform
        clears the exchange rate and the contact has a valid distinct
        partner.  Seed ticks never gossip (the fixed seed has no slot).
        """
        gossip = self._gossip
        fire = self.draws.next() < gossip.exchange_rate
        if fire and target_slot >= 0 and target_slot != ticker_slot:
            gossip.exchange(ticker_slot, target_slot, self._time)

    # -- heterogeneous-class sampling (shared by both backends) ----------------

    def _draw_arrival_class_type(self) -> Tuple[int, int]:
        """Sample (class index, arrival-type index) for one arriving peer.

        Cumulative-probability tables keep this at one uniform draw (and
        one ``searchsorted``) per non-degenerate level, with no per-event
        probability-array validation.
        """
        if len(self._classes) == 1:
            class_index = 0
        else:
            class_index = self.draws.cum_choice(self._class_cumprobs)
        types = self._class_types[class_index]
        if len(types) == 1:
            type_index = 0
        else:
            type_index = self.draws.cum_choice(
                self._class_type_cumprobs[class_index]
            )
        return class_index, type_index

    def _draw_hetero_ticker(self) -> int:
        """Backend-native handle of the peer whose clock ticks.

        One uniform draw over the cumulative per-class tick weight (base
        weight ``µ_c`` per member plus ``(retry_speedup - 1) µ_c`` per
        sped-up member); the handle is read out of the per-class lists by
        index arithmetic, with no per-event weight-array rebuild.
        """
        return _pick_from_segments(self._ticker_segments(), self.draws.next())

    def _ticker_segments(self) -> List[Tuple[float, List[int]]]:
        """The (unit weight, handles) segments of the heterogeneous ticker
        pick: one per non-empty class, then one per class with sped-up
        members when ``retry_speedup > 1``."""
        extra = self.retry_speedup - 1.0
        segments: List[Tuple[float, List[int]]] = []
        for cls, members in zip(self._classes, self._class_members):
            if members:
                segments.append((cls.contact_rate, members))
        if extra > 0.0:
            for cls, sped in zip(self._classes, self._class_sped):
                if sped:
                    segments.append((extra * cls.contact_rate, sped))
        return segments

    def _draw_hetero_departing_seed(self) -> Optional[int]:
        """Backend-native handle of the departing peer seed (γ_c-weighted)."""
        segments = [
            (cls.seed_departure_rate, seeds)
            for cls, seeds in zip(self._classes, self._class_seeds)
            if seeds and not cls.immediate_departure
        ]
        if not segments:
            return None
        return _pick_from_segments(segments, self.draws.next())

    def _hetero_tick_rate(self) -> float:
        """Σ_c µ_c (n_c + (retry_speedup − 1) sped_c) over the peer classes."""
        extra = self.retry_speedup - 1.0
        total = 0.0
        for index, cls in enumerate(self._classes):
            weight = float(len(self._class_members[index]))
            if extra > 0.0:
                weight += extra * len(self._class_sped[index])
            total += cls.contact_rate * weight
        return total

    @property
    def num_seeds(self) -> int:
        """Peer seeds in the swarm (the flat ``_seeds`` list, or the
        per-class ``_class_seeds`` lists in heterogeneous mode)."""
        if self._classes is None:
            return len(self._seeds)
        return sum(len(seeds) for seeds in self._class_seeds)

    def _total_seed_departure_rate(self) -> float:
        """Aggregate peer-seed departure rate (γ-weighted in hetero mode)."""
        if self._classes is None:
            if self._immediate_departure:
                return 0.0
            return self._seed_departure_rate * self.num_seeds
        total = 0.0
        for cls, seeds in zip(self._classes, self._class_seeds):
            if seeds and not cls.immediate_departure:
                total += cls.seed_departure_rate * len(seeds)
        return total

    # -- aggregate-rate event loop ---------------------------------------------

    def _event_rates(self) -> Tuple[float, float, float, float]:
        """Rates of (arrival, fixed-seed tick, peer tick, seed departure).

        Scheduled processes contribute their *thinning-bound* rate
        (base rate × maximum schedule factor); `_apply_event` thins the
        candidates back down to the instantaneous rate.
        """
        seed_tick = self._seed_tick_rate_bound if self.population > 0 else 0.0
        return (
            self._arrival_rate_bound,
            seed_tick,
            self._total_peer_tick_rate(),
            self._total_seed_departure_rate(),
        )

    def _refresh_rates(self) -> None:
        """Rebuild the rate cache from :meth:`_event_rates` and clear the flag.

        ``total`` is the left fold ``((r0 + r1) + r2) + r3`` — exactly what
        ``sum(rates)`` computes — and ``scale`` the ``1.0 / total`` every
        inter-event exponential is drawn with, so cached and fresh values
        are the same doubles.
        """
        rates = self._rates = self._event_rates()
        r01 = self._rate_r01 = rates[0] + rates[1]
        r012 = self._rate_r012 = r01 + rates[2]
        total = self._rate_total = r012 + rates[3]
        self._rate_scale = 1.0 / total if total > 0.0 else 0.0
        self._rates_dirty = False
        self.rate_refreshes += 1

    def _apply_event(self, selector: float) -> None:
        """Apply the event an already drawn selector picks.

        ``selector`` is the event-type uniform times the cached total rate
        (``uniform(0, total)`` of one draw, bit for bit); the cache must be
        clean.  Scheduled arrival and fixed-seed-tick candidates pass the
        thinning acceptance first; peer ticks and departures draw their own
        rows.
        """
        if selector <= self._rates[0]:
            if self._thin_arrivals and not self._thin_accept(
                self._arrival_schedule, self._arrival_bound
            ):
                return
            self._handle_arrival()
        elif selector <= self._rate_r01:
            if self._thin_seed and not self._thin_accept(
                self._seed_schedule, self._seed_bound
            ):
                return
            self._handle_seed_tick()
        elif selector <= self._rate_r012:
            self._handle_peer_tick()
        else:
            self._handle_seed_departure()

    # -- flash-exit cull (scenario ``cull_time`` / ``cull_fraction``) ----------

    def _execute_cull(self) -> None:
        """Remove each incomplete peer independently with ``cull_fraction``.

        One uniform per incomplete peer in slot order, then removals in
        *descending* slot order (stable under the backends' swap-remove
        discipline); tracker-overlay rewiring draws happen inside each
        removal.  Runs in the shared driver so both backends consume the RNG
        identically.
        """
        fraction = self._cull_fraction
        draws = self.draws
        marked: List[int] = []
        for slot in range(self.population):
            if self._slot_is_complete(slot):
                continue
            if draws.next() < fraction:
                marked.append(slot)
        for slot in reversed(marked):
            self._remove_slot(slot)
        self.metrics.culled_peers += len(marked)
        self._cull_done = True
        self._rates_dirty = True

    def _slot_is_complete(self, slot: int) -> bool:
        """Whether the peer at population slot ``slot`` holds every piece."""
        raise NotImplementedError

    def _remove_slot(self, slot: int) -> None:
        """Remove the peer at population slot ``slot`` (departure semantics)."""
        raise NotImplementedError

    def step(self) -> bool:
        """Execute one event; returns False when no event can occur."""
        if self._rates_dirty:
            self._refresh_rates()
        total = self._rate_total
        if total <= 0:
            return False
        next_time = self._time + self.draws.exponential(self._rate_scale)
        if (
            self._cull_time is not None
            and not self._cull_done
            and next_time >= self._cull_time
        ):
            # The flash-exit cull fires as a deterministic interrupt; the
            # exponential is discarded (memoryless, so statistically exact)
            # and the selector has not been drawn yet.
            self._time = self._cull_time
            self._execute_cull()
            return True
        self._time = next_time
        self._apply_event(self.draws.next() * total)
        return True

    def run(
        self,
        horizon: float,
        initial_state: Optional[SystemState] = None,
        sample_interval: Optional[float] = None,
        max_events: Optional[int] = None,
        max_population: Optional[int] = None,
        resume: bool = False,
        suspend_after_events: Optional[int] = None,
    ) -> "SwarmResult":
        """Simulate until ``horizon`` (simulation time units).

        ``max_events`` and ``max_population`` provide safety caps for runs in
        the unstable regime, where the population grows linearly without
        bound; hitting either cap ends the run early with
        ``horizon_reached=False``.

        ``suspend_after_events`` *suspends* the run once the cumulative event
        count reaches the bound: unlike the ``max_events`` cap, the trailing
        sample grid is not flushed and the run stays continuable —
        ``run(horizon, resume=True)`` (on this simulator, or on a fresh one
        after ``capture_state`` / ``restore_state``) picks up exactly where
        the suspension left off, yielding the same trajectory an
        uninterrupted run would have produced.  Event-count bounds are
        cumulative across resumed segments.
        """
        self._begin_run(horizon, initial_state, sample_interval, resume)
        return self._result(
            *self._loop(horizon, max_events, max_population, suspend_after_events)
        )

    def _loop(
        self,
        horizon: float,
        max_events: Optional[int],
        max_population: Optional[int],
        suspend_after_events: Optional[int],
    ) -> Optional[Tuple[bool, bool]]:
        """Run a begun run's events; returns ``(horizon_reached,
        suspended)`` for :meth:`_result`.

        The grid cursor lives on the instance (see :meth:`_record_until`)
        and the event count is written back to ``_events`` whenever the
        loop returns, so it can be left and re-entered between any two
        events.  It returns early — ``None``, the run still open — only
        when :meth:`_batch_stage` reports a negative count, having applied
        nothing and consumed no draw (stacked lanes file their windows this
        way, see :mod:`repro.swarm.stacked`).
        """
        events = self._events
        horizon_reached = True
        suspended = False
        batch_enabled = self._batch_enabled
        draws = self.draws
        while True:
            if suspend_after_events is not None and events >= suspend_after_events:
                horizon_reached = False
                suspended = True
                break
            if max_events is not None and events >= max_events:
                horizon_reached = False
                break
            if max_population is not None and self.population >= max_population:
                horizon_reached = False
                break
            if self._rates_dirty:
                self._refresh_rates()
            total = self._rate_total
            if total <= 0:
                # No events possible (no arrivals configured and system empty).
                self._time = horizon
                break
            cull_time = self._cull_time
            cull_pending = cull_time is not None and not self._cull_done
            if batch_enabled and not cull_pending:
                # Vectorized fast path: consume a run of state-neutral events
                # (wasted peer ticks) in one go.  The stage consumes exactly
                # the draws the scalar path would and stops short of any
                # event that changes rates, crosses the horizon, or exceeds
                # the event caps, so trajectories stay bit-identical.
                limit = None
                if suspend_after_events is not None:
                    limit = suspend_after_events - events
                if max_events is not None:
                    remaining = max_events - events
                    limit = remaining if limit is None else min(limit, remaining)
                applied = self._batch_stage(limit)
                if applied:
                    if applied < 0:
                        self._events = events
                        return None
                    events += applied
                    continue
            # Inline ``draws.exponential(scale)`` / ``draws.next()``: read
            # the pending block directly, leaving the refill at a block
            # boundary to the buffer (same doubles, same positions).
            pos = draws._pos
            if pos < draws._len:
                draws._pos = pos + 1
                next_event_time = (
                    self._time + self._rate_scale * draws._exp.item(pos)
                )
            else:
                next_event_time = self._time + draws.exponential(self._rate_scale)
            if (
                cull_pending
                and cull_time <= horizon
                and next_event_time >= cull_time
            ):
                # Flash-exit interrupt: the cull fires *instead of* the drawn
                # event.  The consumed exponential is discarded (memoryless,
                # so statistically exact) before the selector draw, and both
                # backends take this exact path, preserving bit-identity.
                if self._next_sample < cull_time:
                    self._record_until(cull_time)
                self._time = cull_time
                self._execute_cull()
                events += 1
                continue
            # The current population holds until the next event: record every
            # grid point in between before applying it (time-correct sampling).
            if self._next_sample < next_event_time:
                self._record_until(next_event_time)
            if next_event_time > horizon:
                self._time = horizon
                break
            self._time = next_event_time
            pos = draws._pos
            if pos < draws._len:
                draws._pos = pos + 1
                self._apply_event(draws._uniforms.item(pos) * total)
            else:
                self._apply_event(draws.next() * total)
            events += 1
        self._events = events
        return horizon_reached, suspended

    def _begin_run(
        self,
        horizon: float,
        initial_state: Optional[SystemState],
        sample_interval: Optional[float],
        resume: bool,
    ) -> None:
        """Start a run (or check that a suspended one may continue).

        A fresh run seeds ``initial_state`` and resets the run cursor — the
        sample grid (``sample_interval``, default ``horizon / 200``) and
        the cumulative event count.  A resumed run keeps its cursor and its
        own interval; the horizon must match and ``sample_interval``, when
        given, must too.  ``horizon`` and ``sample_interval`` must be
        finite and positive (see :func:`~repro.swarm.metrics.check_sample_grid`).
        """
        check_sample_grid(horizon, sample_interval)
        if resume:
            if not self._run_active:
                raise RuntimeError(
                    "resume=True requires a suspended run (start one with "
                    "run(..., suspend_after_events=...) or restore_state)"
                )
            if initial_state is not None:
                raise ValueError("initial_state cannot be combined with resume=True")
            if horizon != self._run_horizon:
                raise ValueError(
                    f"resumed horizon {horizon} does not match the suspended "
                    f"run's horizon {self._run_horizon}"
                )
            if sample_interval is not None and sample_interval != self._run_interval:
                raise ValueError(
                    f"resumed sample_interval {sample_interval} does not match "
                    f"the suspended run's interval {self._run_interval}"
                )
            return
        if initial_state is not None:
            self.seed_population(initial_state)
        self._run_active = True
        self._run_horizon = horizon
        self._run_interval = (
            sample_interval if sample_interval is not None else horizon / 200.0
        )
        self._next_sample = 0.0
        self._events = 0

    def _result(self, horizon_reached: bool, suspended: bool) -> "SwarmResult":
        """The run's :class:`SwarmResult`; a run that is not suspended is
        closed first (trailing sample grid flushed, no longer resumable)."""
        if not suspended:
            self._record_until(math.inf)
            self._run_active = False
        return SwarmResult(
            metrics=self.metrics,
            final_time=self._time,
            final_population=self.population,
            final_state=self.current_state(),
            horizon_reached=horizon_reached,
            suspended=suspended,
            events_executed=self._events,
        )

    def _record_until(self, until: float) -> None:
        """Record the sample grid up to (excluding) ``until`` and move the
        cursor past it.

        The one walk of the grid: the times come from ``_next_sample`` by
        repeated addition of the run's interval, bounded by the run's
        horizon.  Callers only ever ask for grid points the current state
        holds at (the clock has not passed ``until`` yet, or the run is
        over), so :meth:`_record_samples` records them all as one frozen
        row.  The hot callers guard with ``self._next_sample < until``.
        """
        horizon = self._run_horizon
        interval = self._run_interval
        sample = self._next_sample
        times = []
        while sample <= horizon and sample < until:
            times.append(sample)
            sample += interval
        self._next_sample = sample
        if times:
            self._record_samples(times)

    def _record_samples(self, times: List[float]) -> None:
        """Append the current state's row at every grid time in ``times``."""
        gossip = self._gossip
        self.metrics.record_samples(
            times,
            population=self.population,
            num_seeds=self.num_seeds,
            one_club_size=self.one_club_size(),
            min_piece_count=min(self._piece_counts.values()),
            group_snapshot=(
                self._group_snapshot(times[0]) if self.track_groups else None
            ),
            census_error=(
                gossip.mean_error(self._piece_counts, self.population)
                if gossip is not None
                else None
            ),
            census_staleness=(
                [gossip.mean_staleness(time) for time in times]
                if gossip is not None
                else None
            ),
        )

    # -- snapshot / restore ------------------------------------------------------

    #: Version tag of the snapshot layout produced by :meth:`capture_state`;
    #: :meth:`restore_state` accepts only this format.
    SNAPSHOT_FORMAT = 2

    def capture_state(self) -> Dict[str, Any]:
        """Serialise the simulator's full mutable state into a picklable dict.

        The snapshot covers the RNG state, the event-loop clock, the metrics
        stream, the run-loop position (sample grid, cumulative event count)
        and the backend's population state, plus the per-class bookkeeping
        lists when a heterogeneous scenario is active.  Restoring it into a
        fresh simulator built with the same constructor arguments (see
        :meth:`restore_state`) continues the trajectory bit-identically.
        """
        snapshot: Dict[str, Any] = {
            "format": self.SNAPSHOT_FORMAT,
            "backend": self.backend_name,
            "num_pieces": self.params.num_pieces,
            "scenario": self.scenario.name if self.scenario is not None else None,
            "time": self._time,
            "rng_state": copy.deepcopy(self.rng.bit_generator.state),
            "draws": self.draws.capture(),
            "metrics": copy.deepcopy(self.metrics),
            "run": {
                "active": self._run_active,
                "horizon": self._run_horizon,
                "interval": self._run_interval,
                "next_sample": self._next_sample,
                "events": self._events,
            },
            "class_lists": None,
            "overlay": (
                self._overlay.capture() if self._overlay is not None else None
            ),
            "gossip": (
                self._gossip.capture() if self._gossip is not None else None
            ),
            "cull_done": self._cull_done,
            "backend_state": self._capture_backend_state(),
        }
        if self._classes is not None:
            snapshot["class_lists"] = copy.deepcopy(
                (self._class_members, self._class_seeds, self._class_sped)
            )
        return snapshot

    def restore_state(self, snapshot: Dict[str, Any]) -> None:
        """Load a :meth:`capture_state` snapshot into this simulator.

        The simulator must have been constructed with the same arguments as
        the one that produced the snapshot (backend, ``num_pieces``,
        scenario); mismatches raise ``ValueError``.  Every compatibility
        check runs before anything is loaded, so a rejected snapshot leaves
        the simulator exactly as it was.  The snapshot itself is never
        mutated, so the same snapshot can be restored repeatedly.
        """
        if snapshot.get("format") != self.SNAPSHOT_FORMAT:
            raise ValueError(
                f"unsupported snapshot format {snapshot.get('format')!r} "
                f"(supported: {self.SNAPSHOT_FORMAT})"
            )
        if snapshot["backend"] != self.backend_name:
            raise ValueError(
                f"snapshot was captured on backend {snapshot['backend']!r}, "
                f"cannot restore into {self.backend_name!r}"
            )
        if snapshot["num_pieces"] != self.params.num_pieces:
            raise ValueError(
                f"snapshot has K={snapshot['num_pieces']}, simulator has "
                f"K={self.params.num_pieces}"
            )
        expected_scenario = self.scenario.name if self.scenario is not None else None
        if snapshot["scenario"] != expected_scenario:
            raise ValueError(
                f"snapshot scenario {snapshot['scenario']!r} does not match "
                f"the simulator's scenario {expected_scenario!r}"
            )
        class_lists = snapshot["class_lists"]
        if (class_lists is not None) != (self._classes is not None):
            raise ValueError(
                "snapshot heterogeneous-class state does not match the "
                "simulator's scenario configuration"
            )
        if class_lists is not None and len(class_lists[0]) != len(
            self._class_members
        ):
            raise ValueError("snapshot class count does not match scenario")
        overlay_state = snapshot.get("overlay")
        gossip_state = snapshot.get("gossip")
        for state, live, what in (
            (overlay_state, self._overlay, "overlay state does not match the "
             "simulator's topology"),
            (gossip_state, self._gossip, "gossip state does not match the "
             "simulator's census"),
        ):
            if (state is not None) != (live is not None):
                raise ValueError(f"snapshot {what} configuration")
            if state is not None:
                live.check_restorable(state)
        self.rng.bit_generator.state = copy.deepcopy(snapshot["rng_state"])
        self.draws.restore(snapshot["draws"])
        self._time = snapshot["time"]
        self.metrics = copy.deepcopy(snapshot["metrics"])
        run = snapshot["run"]
        self._run_active = run["active"]
        self._run_horizon = run["horizon"]
        self._run_interval = run["interval"]
        self._next_sample = run["next_sample"]
        self._events = run["events"]
        if class_lists is not None:
            members, seeds, sped = copy.deepcopy(class_lists)
            for target, source in zip(self._class_members, members):
                target[:] = source
            for target, source in zip(self._class_seeds, seeds):
                target[:] = source
            for target, source in zip(self._class_sped, sped):
                target[:] = source
        if overlay_state is not None:
            self._overlay.restore(overlay_state)
        if gossip_state is not None:
            self._gossip.restore(gossip_state)
        self._cull_done = bool(snapshot.get("cull_done", False))
        self._restore_backend_state(copy.deepcopy(snapshot["backend_state"]))
        self._rates_dirty = True

    def _capture_backend_state(self) -> Dict[str, Any]:
        raise NotImplementedError

    def _restore_backend_state(self, state: Dict[str, Any]) -> None:
        raise NotImplementedError


class SwarmSimulator(_SwarmEventLoop):
    """Event-driven peer-level simulation of the P2P swarm."""

    backend_name = "object"

    def __init__(
        self,
        params: SystemParameters,
        policy: Optional[PieceSelectionPolicy] = None,
        seed: SeedLike = None,
        rare_piece: int = 1,
        retry_speedup: float = 1.0,
        track_groups: bool = False,
        scenario: Optional[ScenarioSpec] = None,
        draw_block_size: Optional[int] = None,
    ):
        if retry_speedup < 1.0:
            raise ValueError(f"retry_speedup must be >= 1, got {retry_speedup}")
        if not 1 <= rare_piece <= params.num_pieces:
            raise ValueError("rare_piece out of range")
        self.params = params
        self.policy = policy if policy is not None else RandomUsefulSelection()
        self.rng = make_rng(seed)
        self.rare_piece = rare_piece
        self.retry_speedup = retry_speedup
        self.track_groups = track_groups

        self._peers: Dict[int, Peer] = {}
        self._order: List[int] = []  # peer ids, for O(1) uniform sampling
        self._position: Dict[int, int] = {}
        self._seeds: List[int] = []  # ids of peer seeds (only when gamma < inf)
        self._seed_position: Dict[int, int] = {}
        # Sped-up peers (Section VIII-C retry extension), kept as a swap-remove
        # list so the total tick weight and the weighted peer sampling are O(1).
        self._sped_ids: List[int] = []
        self._sped_position: Dict[int, int] = {}
        self._arrival_types = list(params.arrival_rates)
        self._arrival_weights = np.array(
            [params.arrival_rates[t] for t in self._arrival_types], dtype=float
        )
        self._arrival_total = float(self._arrival_weights.sum())
        self._arrival_probs = self._arrival_weights / self._arrival_total
        self._arrival_cumprobs = np.cumsum(self._arrival_probs)
        self._single_arrival_type = (
            self._arrival_types[0] if len(self._arrival_types) == 1 else None
        )
        self._init_driver(scenario, draw_block_size)
        # In heterogeneous mode the seed/sped lists live per class
        # (self._class_seeds / self._class_sped, ids in arrival order) and the
        # position dicts index into the peer's class list; _member_pos indexes
        # the per-class membership lists used for µ_c-weighted tick sampling.
        self._member_pos: Dict[int, int] = {}
        self._piece_counts: Dict[int, int] = {
            k: 0 for k in range(1, params.num_pieces + 1)
        }
        self._next_peer_id = 0
        # One live view shared across policy calls; the oracle census is a
        # read-only proxy of the live count dict (zero-copy, but a mutating
        # policy fails loudly), the scalar fields are refreshed per call.
        self._view = SwarmView(
            num_pieces=params.num_pieces,
            census=self._make_census(),
            total_peers=0,
            time=0.0,
        )

    # -- population management -------------------------------------------------

    @property
    def now(self) -> float:
        return self._time

    @property
    def population(self) -> int:
        return len(self._order)

    def peers(self) -> Iterable[Peer]:
        """Iterate over the peers currently in the system."""
        return (self._peers[pid] for pid in self._order)

    def current_state(self) -> SystemState:
        """Aggregate the population into a :class:`SystemState`."""
        counts: Dict[PieceSet, int] = {}
        for peer in self.peers():
            counts[peer.pieces] = counts.get(peer.pieces, 0) + 1
        return SystemState(counts, self.params.num_pieces)

    def one_club_size(self) -> int:
        return sum(1 for peer in self.peers() if peer.is_one_club(self.rare_piece))

    def _add_peer(self, pieces: PieceSet, class_index: int = 0) -> Peer:
        peer = Peer(
            peer_id=self._next_peer_id,
            pieces=pieces,
            arrival_time=self._time,
            arrived_with=pieces,
            class_index=class_index,
        )
        self._next_peer_id += 1
        self._peers[peer.peer_id] = peer
        self._position[peer.peer_id] = len(self._order)
        self._order.append(peer.peer_id)
        if self._classes is not None:
            members = self._class_members[class_index]
            self._member_pos[peer.peer_id] = len(members)
            members.append(peer.peer_id)
        for piece in pieces:
            self._piece_counts[piece] += 1
        if peer.is_seed and not self._class_departs_immediately(class_index):
            self._add_seed(peer.peer_id)
        self._rates_dirty = True
        self.metrics.total_arrivals += 1
        if self._overlay is not None:
            self._overlay.on_arrival(len(self._order) - 1, self.draws)
        if self._gossip is not None:
            self._gossip.on_arrival(len(self._order) - 1, pieces.mask, self._time)
        return peer

    def _remove_peer(self, peer: Peer) -> None:
        pid = peer.peer_id
        if self._overlay is not None:
            # Detach (and, for tracker overlays, rewire) before the order
            # list mutates; the overlay applies the same swap-remove move.
            self._overlay.on_departure(self._position[pid], self.draws)
        if self._gossip is not None:
            # Same swap-remove move on the estimate rows, before the order
            # list mutates.
            self._gossip.on_departure(self._position[pid])
        index = self._position.pop(pid)
        last_id = self._order.pop()
        if last_id != pid:
            self._order[index] = last_id
            self._position[last_id] = index
        if self._classes is not None:
            members = self._class_members[peer.class_index]
            member_index = self._member_pos.pop(pid)
            last_member = members.pop()
            if last_member != pid:
                members[member_index] = last_member
                self._member_pos[last_member] = member_index
        self._discard_sped(pid)
        for piece in peer.pieces:
            self._piece_counts[piece] -= 1
        if pid in self._seed_position:
            self._remove_seed(pid)
        del self._peers[pid]
        self._rates_dirty = True
        peer.depart(self._time)
        self.metrics.record_departure(
            sojourn=peer.sojourn_time(self._time),
            download_time=peer.download_time(),
        )

    def _seed_list_of(self, peer_id: int) -> List[int]:
        if self._classes is None:
            return self._seeds
        return self._class_seeds[self._peers[peer_id].class_index]

    def _sped_list_of(self, peer_id: int) -> List[int]:
        if self._classes is None:
            return self._sped_ids
        return self._class_sped[self._peers[peer_id].class_index]

    def _add_seed(self, peer_id: int) -> None:
        seeds = self._seed_list_of(peer_id)
        self._seed_position[peer_id] = len(seeds)
        seeds.append(peer_id)
        self._rates_dirty = True

    def _remove_seed(self, peer_id: int) -> None:
        seeds = self._seed_list_of(peer_id)
        index = self._seed_position.pop(peer_id)
        last_id = seeds.pop()
        if last_id != peer_id:
            seeds[index] = last_id
            self._seed_position[last_id] = index
        self._rates_dirty = True

    def _add_sped(self, peer_id: int) -> None:
        if peer_id not in self._sped_position:
            sped = self._sped_list_of(peer_id)
            self._sped_position[peer_id] = len(sped)
            sped.append(peer_id)
            self._rates_dirty = True

    def _discard_sped(self, peer_id: int) -> None:
        index = self._sped_position.pop(peer_id, None)
        if index is None:
            return
        sped = self._sped_list_of(peer_id)
        last_id = sped.pop()
        if last_id != peer_id:
            sped[index] = last_id
            self._sped_position[last_id] = index
        self._rates_dirty = True

    def seed_population(self, initial_state: SystemState) -> None:
        """Populate the swarm from a :class:`SystemState` before running."""
        for type_c, count in initial_state.items():
            for _ in range(count):
                self._add_peer(type_c)
        # The pre-seeded peers are not exogenous arrivals.
        self.metrics.total_arrivals -= initial_state.total_peers

    # -- flash-exit cull hooks ---------------------------------------------------

    def _slot_is_complete(self, slot: int) -> bool:
        return self._peers[self._order[slot]].is_seed

    def _remove_slot(self, slot: int) -> None:
        self._remove_peer(self._peers[self._order[slot]])

    # -- overlay views -----------------------------------------------------------

    def peer_neighbors(self, peer_id: int) -> List[int]:
        """The overlay neighbor *peer ids* of a peer (empty without overlay).

        The per-peer neighbor list is a translated view of the shared
        slot-indexed :class:`~repro.swarm.topology.OverlayState`, so it is
        always consistent with what the array kernel's adjacency table holds
        for the same trajectory.
        """
        if self._overlay is None:
            return []
        slot = self._position[peer_id]
        return [self._order[s] for s in self._overlay.neighbors(slot)]

    # -- snapshot hooks ----------------------------------------------------------

    def _capture_backend_state(self) -> Dict[str, object]:
        return copy.deepcopy(
            {
                "peers": self._peers,
                "order": self._order,
                "position": self._position,
                "seeds": self._seeds,
                "seed_position": self._seed_position,
                "sped_ids": self._sped_ids,
                "sped_position": self._sped_position,
                "member_pos": self._member_pos,
                "piece_counts": self._piece_counts,
                "next_peer_id": self._next_peer_id,
            }
        )

    def _restore_backend_state(self, state: Dict[str, object]) -> None:
        self._peers = state["peers"]
        self._order = state["order"]
        self._position = state["position"]
        self._seeds = state["seeds"]
        self._seed_position = state["seed_position"]
        self._sped_ids = state["sped_ids"]
        self._sped_position = state["sped_position"]
        self._member_pos = state["member_pos"]
        # The SwarmView holds a read-only proxy of this exact dict, so the
        # census is updated in place rather than rebound.
        self._piece_counts.clear()
        self._piece_counts.update(state["piece_counts"])
        self._next_peer_id = state["next_peer_id"]

    # -- event mechanics -------------------------------------------------------------

    def _total_peer_tick_rate(self) -> float:
        if self._classes is not None:
            return self._hetero_tick_rate()
        # Maintained incrementally: every peer contributes weight 1 and every
        # sped-up peer an extra (retry_speedup - 1), so no O(n) rebuild.
        weight = self.population + (self.retry_speedup - 1.0) * len(self._sped_ids)
        return weight * self.params.peer_rate

    def _sample_arrival_type(self) -> PieceSet:
        if self._single_arrival_type is not None:
            return self._single_arrival_type
        # One buffered uniform + searchsorted over the cumulative mix (the
        # array kernel draws its arrival mask the same way).
        return self._arrival_types[self.draws.cum_choice(self._arrival_cumprobs)]

    def _sample_uniform_peer(self) -> Peer:
        index = self.draws.integers(self.population)
        return self._peers[self._order[index]]

    def _sample_ticking_peer(self) -> Peer:
        """Choose which peer's clock ticks (weighted when speedups are active).

        Each peer has tick weight 1, plus an extra ``retry_speedup - 1`` when
        it is in the sped-up list; a single uniform draw over the cumulative
        weight picks either a uniform peer (base segment) or a uniform sped-up
        peer (extra segment), with no per-event weight-array rebuild.  In
        heterogeneous mode the µ_c-weighted draw is delegated to the shared
        driver so both backends consume the RNG identically.
        """
        if self._classes is not None:
            return self._peers[self._draw_hetero_ticker()]
        population = self.population
        sped = len(self._sped_ids)
        if self.retry_speedup == 1.0 or not sped:
            return self._sample_uniform_peer()
        extra = self.retry_speedup - 1.0
        threshold = self.draws.uniform(0.0, population + extra * sped)
        if threshold < population:
            return self._peers[self._order[int(threshold)]]
        index = min(int((threshold - population) / extra), sped - 1)
        return self._peers[self._sped_ids[index]]

    def _swarm_view(self) -> SwarmView:
        view = self._view
        view.total_peers = self.population
        view.time = self._time
        if self._classes is not None:
            view.class_counts = tuple(len(m) for m in self._class_members)
        return view

    def _transfer(self, uploader_pieces: PieceSet, downloader: Peer, from_seed: bool) -> bool:
        """Attempt a useful upload into ``downloader``; returns True on success."""
        if self._gossip is not None:
            # The policy reads the census as the *downloader* estimates it.
            self._gossip.focus(
                self._position[downloader.peer_id], self.population, self._time
            )
        piece = self.policy.select_piece(
            downloader.pieces, uploader_pieces, self._swarm_view(), self.draws
        )
        if piece is None:
            self.metrics.wasted_contacts += 1
            return False
        downloader.receive_piece(piece, self._time, rare_piece=self.rare_piece)
        self._piece_counts[piece] += 1
        if self._gossip is not None:
            self._gossip.on_piece(
                self._position[downloader.peer_id], piece, self._time
            )
        self.metrics.total_downloads += 1
        if from_seed:
            self.metrics.total_seed_uploads += 1
        if downloader.is_seed:
            if self._class_departs_immediately(downloader.class_index):
                self._remove_peer(downloader)
            else:
                self._add_seed(downloader.peer_id)
        return True

    def _handle_arrival(self) -> None:
        if self._classes is None:
            self._add_peer(self._sample_arrival_type())
            return
        class_index, type_index = self._draw_arrival_class_type()
        self._add_peer(
            self._class_types[class_index][type_index], class_index=class_index
        )

    def _handle_seed_tick(self) -> None:
        if self.population == 0:
            return
        target = self._sample_uniform_peer()
        full = PieceSet.full(self.params.num_pieces)
        self._transfer(full, target, from_seed=True)

    def _handle_peer_tick(self) -> None:
        if self.population == 0:
            return
        uploader = self._sample_ticking_peer()
        # A ticking peer's speedup (if any) is consumed by this tick.
        self._discard_sped(uploader.peer_id)
        overlay = self._overlay
        if overlay is not None:
            # Overlay contact: the target is one uniform over the ticker's
            # neighbor row (a zero-degree ticker still consumes it).
            uploader_slot = self._position[uploader.peer_id]
            slot = overlay.draw_target(uploader_slot, self.draws.next())
            if self._gossip is not None:
                self._gossip_tick(uploader_slot, slot)
            if slot < 0:
                self.metrics.wasted_contacts += 1
                success = False
            else:
                target = self._peers[self._order[slot]]
                success = self._transfer(uploader.pieces, target, from_seed=False)
                if success:
                    uploader.record_upload()
            if success:
                self.metrics.neighbor_useful_ticks += 1
            else:
                self.metrics.neighbor_useless_ticks += 1
        else:
            target = self._sample_uniform_peer()
            if self._gossip is not None:
                self._gossip_tick(
                    self._position[uploader.peer_id],
                    self._position[target.peer_id],
                )
            if target.peer_id == uploader.peer_id:
                self.metrics.wasted_contacts += 1
                success = False
            else:
                success = self._transfer(uploader.pieces, target, from_seed=False)
                if success:
                    uploader.record_upload()
        # No peer is removed on a failed tick, so the uploader is still in
        # the system here (mirrors ArraySwarmKernel._handle_peer_tick).
        if not success and self.retry_speedup > 1.0:
            self._add_sped(uploader.peer_id)

    def _handle_seed_departure(self) -> None:
        if self._classes is not None:
            peer_id = self._draw_hetero_departing_seed()
            if peer_id is not None:
                self._remove_peer(self._peers[peer_id])
            return
        if not self._seeds:
            return
        index = self.draws.integers(len(self._seeds))
        peer = self._peers[self._seeds[index]]
        self._remove_peer(peer)

    def _group_snapshot(self, time: float) -> GroupSnapshot:
        return GroupSnapshot.from_peers(time, self.peers(), rare_piece=self.rare_piece)


#: Names of the available simulation backends (see :func:`make_simulator`).
BACKENDS = ("object", "array")

#: Hard limit of the array backend: one uint64 bitmask per peer.
MAX_ARRAY_BACKEND_PIECES = 64


def make_simulator(
    params: SystemParameters,
    policy: Optional[PieceSelectionPolicy] = None,
    seed: SeedLike = None,
    backend: str = "object",
    **kwargs,
):
    """Construct a simulator for the requested backend.

    ``backend="object"`` builds the reference :class:`SwarmSimulator`;
    ``backend="array"`` builds the structure-of-arrays
    :class:`~repro.swarm.kernel.ArraySwarmKernel` (requires ``K <= 64``; a
    larger ``K`` raises ``ValueError`` here, at construction).  Both backends
    consume the RNG identically, so a given seed produces the same trajectory
    on either one; the array kernel is simply much faster on large
    populations.  Pass ``scenario=`` (a
    :class:`~repro.core.scenario.ScenarioSpec`) to run heterogeneous peer
    classes and time-varying rate schedules on either backend.  Pass
    ``draw_block_size=`` to size the blocked RNG draw buffer (default 4096,
    or the ``DRAW_BLOCK_SIZE`` environment variable); every block size
    yields the same trajectory, so this is purely a performance knob.
    """
    if backend == "object":
        return SwarmSimulator(params, policy=policy, seed=seed, **kwargs)
    if backend == "array":
        if params.num_pieces > MAX_ARRAY_BACKEND_PIECES:
            raise ValueError(
                f"backend='array' packs piece sets into uint64 bitmasks and "
                f"supports at most {MAX_ARRAY_BACKEND_PIECES} pieces, got "
                f"K={params.num_pieces}; use backend='object' for larger K"
            )
        from .kernel import ArraySwarmKernel

        return ArraySwarmKernel(params, policy=policy, seed=seed, **kwargs)
    raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")


#: Keyword arguments consumed by the simulator constructors.
_SIM_KWARGS = (
    "rare_piece",
    "retry_speedup",
    "track_groups",
    "scenario",
    "draw_block_size",
)

#: Keyword arguments consumed by ``run``.
_RUN_KWARGS = ("sample_interval", "max_events", "max_population")


def unsupported_option(entry_point: str, option: str, value, hint: str) -> ValueError:
    """Build the uniformly phrased rejection raised by every entry point.

    The ``run_swarm`` / ``run_scenario`` / ``run_fleet`` /
    ``run_adaptive_fleet`` family accepts the same execution keywords
    (``backend=``, ``workers=``, ``stacked=``) wherever they are meaningful;
    a combination an entry point cannot honour is rejected with this single
    phrasing so callers can grep for one message shape.
    """
    return ValueError(f"{entry_point} does not support {option}={value!r}; {hint}")


def run_swarm(
    params: SystemParameters,
    horizon: float,
    seed: SeedLike = None,
    policy: Optional[PieceSelectionPolicy] = None,
    initial_state: Optional[SystemState] = None,
    backend: str = "object",
    workers: Optional[int] = None,
    stacked: bool = False,
    **kwargs,
) -> SwarmResult:
    """Convenience wrapper: build a simulator and run it.

    ``backend`` selects the simulation engine (``"object"`` or ``"array"``,
    see :func:`make_simulator`); the remaining keyword arguments are split
    between the constructor (including ``scenario=``) and
    :meth:`SwarmSimulator.run`.  ``workers=`` and ``stacked=`` are accepted
    for signature uniformity with the batched entry points but a single
    swarm run supports neither — pass them to :func:`run_scenario` /
    ``run_fleet`` instead.
    """
    if workers is not None:
        raise unsupported_option(
            "run_swarm", "workers", workers,
            "a single swarm run has nothing to parallelise; use "
            "run_scenario(workers=...) or run_fleet(workers=...)",
        )
    if stacked:
        raise unsupported_option(
            "run_swarm", "stacked", stacked,
            "stacked execution drives whole fleets of swarms; use "
            "run_fleet(stacked=True) or run_adaptive_fleet(stacked=True)",
        )
    unknown = set(kwargs) - set(_SIM_KWARGS) - set(_RUN_KWARGS)
    if unknown:
        raise TypeError(f"unknown run_swarm arguments: {sorted(unknown)}")
    simulator = make_simulator(params, policy=policy, seed=seed, backend=backend, **{
        key: value for key, value in kwargs.items() if key in _SIM_KWARGS
    })
    run_kwargs = {
        key: value for key, value in kwargs.items() if key in _RUN_KWARGS
    }
    return simulator.run(horizon, initial_state=initial_state, **run_kwargs)


__all__ = [
    "BACKENDS",
    "MAX_ARRAY_BACKEND_PIECES",
    "SwarmSimulator",
    "SwarmResult",
    "make_simulator",
    "run_swarm",
    "unsupported_option",
]
