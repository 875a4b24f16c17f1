"""Stacked fleet mega-kernel: one SoA driver over many independent swarms.

A fleet chunk of small swarms pays the per-swarm Python cost of the solo
event loop even though almost every event is a *wasted peer tick* that the
array kernel's batch stage classifies vectorially: each
:meth:`~repro.swarm.kernel.ArraySwarmKernel._batch_stage` call only ever
amortises over one swarm's streak (~15 events on scenario workloads), so a
200-swarm fleet makes thousands of short vector calls.
:class:`StackedSwarmKernel` lifts that classification across swarms: all
lanes' pending draw windows are concatenated into one candidate array per
round (a swarm-id column keyed gather against a shared mask sheet), so one
set of numpy ops resolves every lane's streak at once.

Determinism contract
--------------------
Each lane is a full :class:`~repro.swarm.kernel.ArraySwarmKernel` with its
own :class:`~repro.swarm.drawbuf.DrawBuffer` (seeded exactly as a solo run
would be), and the stacked driver consumes each lane's buffer with the same
per-decision semantics — batched wasted ticks eat four draws, thinned
candidates three, scalar events go through the lane's own
``_apply_event`` — in the same per-lane order as the solo loop.  Block
refills happen at fixed 4096-draw boundaries of the *per-lane* stream
regardless of how draws are grouped, so every lane's trajectory (metrics,
samples, snapshots) is **bit-identical to a solo run on the same seed**;
``tests/test_stacked.py`` asserts this per lane and at fleet scale.
Interleaving lanes is free because swarms are independent: no draw of one
lane can influence another.

Structure
---------
* A shared uint64 **mask sheet** holds every lane's piece-mask column at a
  per-lane base offset (``lane._masks`` is a view into the sheet), so the
  cross-lane usefulness test is two gathers on one array instead of one
  small gather per swarm.  Lane growth re-homes the lane at the sheet's
  tail (the old segment is abandoned — growth is rare and the sheet is
  transient).
* Per round, each active lane contributes one *action*: a batched run of
  wasted ticks (global classification), a batched run of thinning-rejected
  candidates (the lane's own ``_batch_thinned``), one scalar event, a
  suspension, or its finalisation.  Finished lanes retire from the active
  list; their :class:`~repro.swarm.swarm.SwarmResult` is exactly what the
  solo loop would have returned.
* Snapshots stay per-swarm: ``lane.capture_state()`` emits the ordinary
  format-2 payload (backend ``"array"``), and ``add_lane(snapshot=...)``
  restores one, so fleet checkpoint/resume interoperates freely with the
  per-swarm path.

Limits: lanes inherit the array kernel's ``K <= 64`` bitmask bound, and
custom piece-selection policies are only batched under the same conditions
as the solo batch stage (``rng_free_when_useless`` and no retry speedup);
other lanes simply take the scalar route every round.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.parameters import SystemParameters
from ..core.scenario import ScenarioSpec
from ..core.state import SystemState
from ..simulation.rng import SeedLike, make_rng
from .drawbuf import DrawBuffer
from .gossip import build_gossip
from .kernel import ArraySwarmKernel
from .metrics import SwarmMetrics
from .policies import PieceSelectionPolicy, SwarmView
from .swarm import SwarmResult
from .topology import build_overlay

#: Sentinel larger than any candidate window (first-bad reduction).
_BIG = np.int64(1) << np.int64(40)

#: Initial / ceiling per-lane candidate window of the global classification
#: (doubled after a fully clean round, streak-sized after a broken one).
#: The floor trades re-classification of the window tail behind a breaker
#: against per-round dispatch overhead; the ceiling bounds how far one
#: deep-streak lane can pad the round's clock matrix (lanes classify at
#: the round's widest window).  Since the cohort restructure drained
#: scalar events inside the round, rounds are window-paced, so a high
#: ceiling amortises the per-round numpy glue better (swept 16..64 x
#: 512..2048 on the 200-swarm fleet workload).
_MIN_WINDOW = 16
_MAX_WINDOW = 1024

#: Below this block size per-lane windows cannot amortise anything (CI pins
#: ``DRAW_BLOCK_SIZE=1``); lanes are simply driven by their own solo loop.
#: (The stream is block-size invariant by construction, so a *bigger*
#: stacked block was tried too: it loses — event-capped fleet lanes only
#: consume a couple thousand draws, so wider blocks just generate and
#: exp-transform uniforms nobody reads.)
_MIN_STACKED_BLOCK = 8


class _StackedLane(ArraySwarmKernel):
    """An array kernel whose mask column lives in the stack's shared sheet."""

    _stack: Optional["StackedSwarmKernel"] = None

    def _grow(self) -> None:
        # The base grow detaches every column (including ``_masks``) into
        # private doubled arrays; re-home the masks on the sheet afterwards.
        super()._grow()
        if self._stack is not None:
            self._stack._adopt(self)

    def _record_grid_until(self, until: float, horizon: float, interval: float) -> None:
        """Record the sample-grid points before ``until`` (the solo loop's
        time-correct walk, with the grid cursor kept on the lane)."""
        next_sample = self._next_sample
        while next_sample <= horizon and next_sample < until:
            self._record_sample(next_sample)
            next_sample += interval
        self._next_sample = next_sample


def _clone_lane(template: _StackedLane, seed: SeedLike) -> _StackedLane:
    """A fresh lane sharing the template's immutable digested configuration.

    Building a kernel from scratch re-derives the same arrival tables,
    schedule digests and class tables for every swarm of a fleet point;
    since :func:`~repro.fleet.spec.materialize_tasks` shares one
    params/scenario object per distinct point, those digests can be shared
    too.  Everything mutable — RNG, draw buffer, metrics, population
    arrays, per-class lists, run-loop state — is rebuilt per lane, so
    clones are trajectory-independent; only when the policy is the stateless
    built-in default do callers clone at all.
    """
    lane = object.__new__(_StackedLane)
    lane.__dict__.update(template.__dict__)
    lane._stack = None
    lane.rng = make_rng(seed)
    lane.draws = DrawBuffer(lane.rng, template.draws.block_size)
    lane.metrics = SwarmMetrics()
    capacity = len(template._arrival_time)
    lane._masks = np.zeros(capacity, dtype=np.uint64)
    lane._arrival_time = np.zeros(capacity, dtype=np.float64)
    lane._completed_at = np.full(capacity, np.nan, dtype=np.float64)
    lane._arrived_with_rare = np.zeros(capacity, dtype=np.bool_)
    lane._infected = np.zeros(capacity, dtype=np.bool_)
    lane._was_one_club = np.zeros(capacity, dtype=np.bool_)
    lane._seed_slot = np.full(capacity, -1, dtype=np.int64)
    lane._sped_slot = np.full(capacity, -1, dtype=np.int64)
    lane._n = 0
    lane._seeds = []
    lane._sped = []
    lane._one_club_count = 0
    lane._piece_counts = {k: 0 for k in range(1, template.params.num_pieces + 1)}
    lane._time = 0.0
    # The dict update aliased the template's mutable overlay (and its cull
    # progress); rebuild both per lane.  Same for the gossip census state.
    lane._overlay = build_overlay(template._topology)
    lane._gossip = build_gossip(template._census_spec, template.params.num_pieces)
    lane._cull_done = False
    lane._rates_dirty = True
    lane.rate_refreshes = 0
    lane._membership_version = 0
    lane._view_version = -1
    lane._ticker_cache = None
    lane._class_member_bufs = None
    lane._reset_probe_gate()
    lane._run_active = False
    lane._run_horizon = None
    lane._run_interval = None
    lane._next_sample = 0.0
    lane._events = 0
    if lane._classes is not None:
        lane._class_idx = np.zeros(capacity, dtype=np.int32)
        lane._member_slot = np.full(capacity, -1, dtype=np.int64)
        num_classes = len(lane._classes)
        lane._class_members = [[] for _ in range(num_classes)]
        lane._class_seeds = [[] for _ in range(num_classes)]
        lane._class_sped = [[] for _ in range(num_classes)]
        lane._class_member_revs = [0] * num_classes
    lane._view = SwarmView(
        num_pieces=template.params.num_pieces,
        census=lane._make_census(),
        total_peers=0,
        time=0.0,
    )
    return lane


class StackedSwarmKernel:
    """N independent array-kernel swarms driven by one round-based loop.

    Usage::

        stack = StackedSwarmKernel()
        for task in chunk:
            stack.add_lane(task.params, seed=..., scenario=task.scenario)
        results = stack.run_all(horizon, initial_states=[...], ...)

    ``run_all`` returns one :class:`~repro.swarm.swarm.SwarmResult` per
    lane, in lane order, each bit-identical to the solo run.
    """

    def __init__(self) -> None:
        self._lanes: List[_StackedLane] = []
        self._sheet = np.zeros(1024, dtype=np.uint64)
        self._sheet_used = 0
        self._templates: Dict[Tuple[int, int], _StackedLane] = {}

    # -- lane management -----------------------------------------------------

    @property
    def num_lanes(self) -> int:
        return len(self._lanes)

    def lane(self, slot: int) -> ArraySwarmKernel:
        """The underlying kernel of one lane (e.g. for ``capture_state``)."""
        return self._lanes[slot]

    def _adopt(self, lane: _StackedLane) -> None:
        """(Re-)home a lane's mask column inside the shared sheet."""
        masks = lane._masks
        capacity = len(masks)
        if self._sheet_used + capacity > len(self._sheet):
            new_size = max(len(self._sheet) * 2, 1024)
            while new_size < self._sheet_used + capacity:
                new_size *= 2
            sheet = np.zeros(new_size, dtype=np.uint64)
            sheet[: self._sheet_used] = self._sheet[: self._sheet_used]
            self._sheet = sheet
            # Slice views into the old sheet died with it: rebind them all.
            for other in self._lanes:
                base = other._sheet_base
                if other is not lane:
                    other._masks = sheet[base : base + len(other._masks)]
        base = self._sheet_used
        self._sheet_used = base + capacity
        self._sheet[base : base + capacity] = masks
        lane._masks = self._sheet[base : base + capacity]
        lane._sheet_base = base

    def add_lane(
        self,
        params: SystemParameters,
        *,
        seed: SeedLike = None,
        scenario: Optional[ScenarioSpec] = None,
        policy: Optional[PieceSelectionPolicy] = None,
        initial_capacity: int = 1024,
        snapshot: Optional[Dict[str, object]] = None,
    ) -> int:
        """Append one swarm lane; returns its slot index.

        Lanes with a shared ``(params, scenario)`` object pair (what
        ``materialize_tasks`` produces for swarms of the same fleet point)
        are cloned from a per-pair template instead of re-digesting the
        configuration; a custom ``policy`` disables cloning since its
        statefulness is unknown.  ``snapshot`` restores a format-2 per-swarm
        snapshot (``capture_state`` of either the solo kernel or a stacked
        lane) into the new lane; ``run_all`` then resumes it.
        """
        if policy is None:
            key = (id(params), id(scenario))
            template = self._templates.get(key)
            if template is None:
                lane = _StackedLane(
                    params,
                    scenario=scenario,
                    initial_capacity=initial_capacity,
                    seed=seed,
                )
                self._templates[key] = lane
            else:
                lane = _clone_lane(template, seed)
        else:
            lane = _StackedLane(
                params,
                policy=policy,
                scenario=scenario,
                initial_capacity=initial_capacity,
                seed=seed,
            )
        if snapshot is not None:
            lane.restore_state(snapshot)
        slot = len(self._lanes)
        self._adopt(lane)
        self._lanes.append(lane)
        lane._stack = self
        return slot

    # -- finalisation helpers --------------------------------------------------

    @staticmethod
    def _finalize(
        lane: _StackedLane, horizon: float, interval: float, horizon_reached: bool
    ) -> SwarmResult:
        """Flush the trailing sample grid and close the lane's run (solo
        epilogue semantics)."""
        lane._next_sample = lane._flush_samples(
            lane._next_sample, horizon, interval
        )
        lane._run_active = False
        return SwarmResult(
            metrics=lane.metrics,
            final_time=lane._time,
            final_population=lane.population,
            final_state=lane.current_state(),
            horizon_reached=horizon_reached,
            suspended=False,
            events_executed=lane._events,
        )

    @staticmethod
    def _suspend(lane: _StackedLane) -> SwarmResult:
        """Suspend a lane mid-run (no sample flush, run stays continuable)."""
        return SwarmResult(
            metrics=lane.metrics,
            final_time=lane._time,
            final_population=lane.population,
            final_state=lane.current_state(),
            horizon_reached=False,
            suspended=True,
            events_executed=lane._events,
        )

    # -- the stacked event loop ------------------------------------------------

    def run_all(
        self,
        horizon: float,
        *,
        initial_states: Optional[Sequence[Optional[SystemState]]] = None,
        sample_interval: Optional[float] = None,
        max_events: Optional[int] = None,
        max_population: Optional[int] = None,
        suspend_after_events: Optional[int] = None,
    ) -> List[SwarmResult]:
        """Run every lane to ``horizon`` (or its cap); one result per lane.

        Lanes restored from a suspended snapshot resume where they left off
        (their recorded horizon / sample interval must match); the rest
        start fresh, optionally pre-seeded from ``initial_states``.
        ``suspend_after_events`` suspends each lane once its cumulative
        event count reaches the bound, exactly like the solo loop's
        parameter — the suspended lane's ``capture_state()`` equals the
        solo snapshot bit for bit.
        """
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        lanes = self._lanes
        results: List[Optional[SwarmResult]] = [None] * len(lanes)
        interval = (
            sample_interval if sample_interval is not None else horizon / 200.0
        )
        for slot, lane in enumerate(lanes):
            if lane._run_active:  # restored mid-run: resume
                if horizon != lane._run_horizon:
                    raise ValueError(
                        f"resumed horizon {horizon} does not match the "
                        f"suspended run's horizon {lane._run_horizon}"
                    )
                if (
                    sample_interval is not None
                    and sample_interval != lane._run_interval
                ):
                    raise ValueError(
                        f"resumed sample_interval {sample_interval} does not "
                        f"match the suspended run's interval {lane._run_interval}"
                    )
            else:
                state = (
                    initial_states[slot] if initial_states is not None else None
                )
                if state is not None:
                    lane.seed_population(state)
                lane._run_active = True
                lane._run_horizon = horizon
                lane._run_interval = interval
                lane._next_sample = 0.0
                lane._events = 0
            lane._stk_window = _MIN_WINDOW
            # Overlay lanes cannot join the cross-lane classification:
            # phases 3/4 draw contact targets uniformly over the mask sheet,
            # but an overlay target is one uniform over the ticker's
            # *neighbor* row.  Such lanes batch through their own
            # (adjacency-aware) solo stage in ``classify`` instead.
            lane._stk_windowable = (
                lane._batch_enabled and lane._overlay is None
            )

        # Tiny draw blocks (CI's DRAW_BLOCK_SIZE=1 equivalence mode) leave
        # nothing to stack; the solo loop is the same trajectory.
        if lanes and lanes[0].draws.block_size < _MIN_STACKED_BLOCK:
            for slot, lane in enumerate(lanes):
                results[slot] = lane.run(
                    horizon,
                    resume=True,
                    max_events=max_events,
                    max_population=max_population,
                    suspend_after_events=suspend_after_events,
                )
            return results

        # -- cohort classification (phase 1) -------------------------------
        # Per round, every pending lane is classified from its own draw
        # stream — the next exponential and selector are *peeked*, never
        # consumed — and filed into exactly one cohort: a batchable
        # wasted-tick window (resolved by the global phase-2
        # classification), a thinned-reject run (the lane's own
        # ``_batch_thinned``), or a typed scalar cohort (arrival /
        # seed-tick / peer-tick / departure) applied through the kernel's
        # cohort primitives.  Per-lane draw *order* is untouched, so
        # trajectories stay bit-identical to solo runs.

        def classify(slot: int, lane: _StackedLane) -> None:
            """Advance one lane to its next pending decision and file it.

            This is the solo loop top — caps, the lane's rate cache (the
            driver's ``_refresh_rates`` seam, rebuilt only when a mutator
            dirtied it), thinned batching — in exactly the solo order; lanes
            whose run ends here store their result and retire from the
            active set.
            """
            while True:
                events = lane._events
                if (
                    suspend_after_events is not None
                    and events >= suspend_after_events
                ):
                    results[slot] = self._suspend(lane)
                    return
                if max_events is not None and events >= max_events:
                    results[slot] = self._finalize(lane, horizon, interval, False)
                    return
                if max_population is not None and lane._n >= max_population:
                    results[slot] = self._finalize(lane, horizon, interval, False)
                    return
                if lane._rates_dirty:
                    lane._refresh_rates()
                rates = lane._rates
                total = lane._rate_total
                if total <= 0.0:
                    lane._time = horizon
                    results[slot] = self._finalize(lane, horizon, interval, True)
                    return
                draws = lane.draws
                remaining = draws._len - draws._pos
                if remaining == 0:
                    # Refilling an *empty* buffer is bit-free: blocks sit at
                    # fixed positions of the per-lane stream, so the next
                    # scalar draw would trigger the identical refill.
                    draws._refill()
                    remaining = draws._len
                cull_time = lane._cull_time
                cull_pending = cull_time is not None and not lane._cull_done
                if remaining == 1:
                    # The selector sits in the next block: the solo loop takes
                    # this one event (refill mid-event, cull and horizon
                    # included), consuming exactly the draws it always would.
                    result = lane.run(
                        horizon,
                        resume=True,
                        max_events=max_events,
                        max_population=max_population,
                        suspend_after_events=events + 1,
                    )
                    if not result.suspended:
                        results[slot] = result
                        return
                    continue
                budget = max_events - events if max_events is not None else None
                if suspend_after_events is not None:
                    left = suspend_after_events - events
                    budget = left if budget is None else min(budget, left)
                # Inline peek_uniform(1): this runs once per lane per round.
                sel = draws._uniforms.item(draws._pos + 1) * total
                if (
                    not cull_pending
                    and lane._batch_enabled
                    and lane._rate_r01 < sel <= lane._rate_r012
                ):
                    window = remaining >> 2
                    if window > lane._stk_window:
                        window = lane._stk_window
                    if budget is not None and window > budget:
                        window = budget
                    if window > 0:
                        if lane._stk_windowable:
                            win_slots.append(slot)
                            win_lanes.append(lane)
                            win_widths.append(window)
                            return
                        # Overlay lane: batch through its own solo stage
                        # (adjacency-aware classification); draw-invisible,
                        # so the trajectory stays bit-identical to solo.
                        applied_b, next_sample = lane._batch_stage(
                            horizon,
                            interval,
                            lane._next_sample,
                            budget,
                        )
                        # The stage may have recorded grid samples even when
                        # it applied nothing (a first candidate crossing the
                        # horizon): keep its grid cursor unconditionally,
                        # like the solo loop does.
                        lane._next_sample = next_sample
                        if applied_b:
                            lane._events = events + applied_b
                            continue
                    # remaining < 4 (or nothing batchable): the tick takes
                    # the typed scalar path below, exactly like the solo
                    # batch stage declining.
                elif not cull_pending and (
                    (sel <= rates[0] and lane._thin_arrivals)
                    or (rates[0] < sel <= lane._rate_r01 and lane._thin_seed)
                ):
                    applied_thin, next_sample = lane._batch_thinned(
                        horizon, interval, lane._next_sample, budget
                    )
                    # Keep the grid cursor even on zero applied events: the
                    # probe may have recorded samples before a first
                    # candidate crossed the horizon (solo loop semantics).
                    lane._next_sample = next_sample
                    if applied_thin:
                        lane._events = events + applied_thin
                        continue
                    # The first candidate is accepted (or crosses the
                    # horizon): file it as a typed scalar event below.
                # Typed scalar candidate: its event time and selector are
                # classified here; the cohort apply consumes the draws.
                net = lane._time + lane._rate_scale * draws._exp.item(draws._pos)
                if cull_pending and cull_time <= horizon and net >= cull_time:
                    # Flash-exit interrupt: consume (and discard) the peeked
                    # exponential, fire the cull; the selector stays pending.
                    draws._pos += 1
                    lane._record_grid_until(cull_time, horizon, interval)
                    lane._time = cull_time
                    lane._execute_cull()
                    lane._events = events + 1
                    continue
                if net > horizon:
                    # Solo crossing semantics: the exponential is consumed,
                    # the grid flushed, the run closed.
                    draws._pos += 1
                    lane._time = horizon
                    results[slot] = self._finalize(lane, horizon, interval, True)
                    return
                if sel <= rates[0]:
                    arrival_cohort.append((slot, lane, net))
                elif sel <= lane._rate_r01:
                    seed_cohort.append((slot, lane, net))
                elif sel <= lane._rate_r012:
                    tick_cohort.append((slot, lane, net))
                else:
                    depart_cohort.append((slot, lane, net))
                return

        def apply_cohort(cohort, primitive) -> None:
            """Apply one classified scalar event per (slot, lane, net) entry.

            Consumes the peeked exponential + selector, walks the sample
            grid to the event time, then hands off to the typed primitive
            (which consumes the branch's own draws, thinning included) —
            draw for draw what ``_apply_event`` would have done.
            """
            for _slot, lane, net in cohort:
                lane._record_grid_until(net, horizon, interval)
                lane._time = net
                # Inline advance(2): classify guaranteed >= 2 pending draws
                # before filing the lane (the exponential + the selector).
                lane.draws._pos += 2
                primitive(lane)
                lane._events += 1

        active: List[Tuple[int, _StackedLane]] = list(enumerate(lanes))
        while active:
            # -- phases 1+2: classify and drain the scalar cohorts ---------
            # Every lane is classified; lanes that took a typed scalar event
            # are re-classified *within the round* until each active lane is
            # either windowed or retired, so the per-round numpy phases
            # amortize over every lane each round instead of one scalar
            # event costing a lane its whole round.  (Lanes are independent;
            # only the per-lane order is draw-identical to solo, and that is
            # untouched by how classification interleaves across lanes.)
            win_slots: List[int] = []
            win_lanes: List[_StackedLane] = []
            win_widths: List[int] = []
            pending = active
            while pending:
                arrival_cohort: List[Tuple[int, _StackedLane, float]] = []
                seed_cohort: List[Tuple[int, _StackedLane, float]] = []
                tick_cohort: List[Tuple[int, _StackedLane, float]] = []
                depart_cohort: List[Tuple[int, _StackedLane, float]] = []
                for slot, lane in pending:
                    # Inline fast path for the dominant case — a clean-rates
                    # lane whose next candidate is a batchable wasted tick.
                    # Exactly ``classify``'s window branch with the checks a
                    # clean cache makes redundant (a zero total scales the
                    # selector to 0, which fails the peer-tick test and falls
                    # through); everything else falls through to the full
                    # classifier.
                    if not lane._rates_dirty:
                        events = lane._events
                        if (
                            (
                                suspend_after_events is None
                                or events < suspend_after_events
                            )
                            and (max_events is None or events < max_events)
                            and (
                                max_population is None
                                or lane._n < max_population
                            )
                        ):
                            draws = lane.draws
                            rem = draws._len - draws._pos
                            if rem >= 4:
                                sel = (
                                    draws._uniforms.item(draws._pos + 1)
                                    * lane._rate_total
                                )
                                if (
                                    lane._stk_windowable
                                    and (
                                        lane._cull_time is None
                                        or lane._cull_done
                                    )
                                    and lane._rate_r01 < sel <= lane._rate_r012
                                ):
                                    window = rem >> 2
                                    if window > lane._stk_window:
                                        window = lane._stk_window
                                    if max_events is not None:
                                        left = max_events - events
                                        if window > left:
                                            window = left
                                    if suspend_after_events is not None:
                                        left = suspend_after_events - events
                                        if window > left:
                                            window = left
                                    win_slots.append(slot)
                                    win_lanes.append(lane)
                                    win_widths.append(window)
                                    continue
                    classify(slot, lane)

                # Apply the typed scalar cohorts.  (Before the window
                # classification: arrivals may grow the mask sheet, and the
                # gathers below must read the final layout.)
                if arrival_cohort:
                    apply_cohort(
                        arrival_cohort, _StackedLane._apply_arrival_event
                    )
                if seed_cohort:
                    apply_cohort(
                        seed_cohort, _StackedLane._apply_seed_tick_event
                    )
                if tick_cohort:
                    apply_cohort(tick_cohort, _StackedLane._handle_peer_tick)
                if depart_cohort:
                    apply_cohort(
                        depart_cohort, _StackedLane._handle_seed_departure
                    )
                pending = [
                    (slot, lane)
                    for cohort in (
                        arrival_cohort,
                        seed_cohort,
                        tick_cohort,
                        depart_cohort,
                    )
                    for slot, lane, _net in cohort
                ]

            # -- phase 3: one global wasted-tick classification ------------
            if win_lanes:
                nseg = len(win_lanes)
                w_arr = np.array(win_widths, dtype=np.int64)
                seg_starts = np.zeros(nseg, dtype=np.int64)
                np.cumsum(w_arr[:-1], out=seg_starts[1:])
                lane_of = np.repeat(np.arange(nseg), w_arr)
                # Direct pending-draw slices (``uniforms_view`` / ``exp_view``
                # inlined — two method calls per lane-window add up here).
                # Only every 4th exponential (the inter-event gap) is read,
                # so the exp gather is strided per lane: lane spans are
                # 4-aligned in ``ubuf``, making this exactly ``ebuf[0::4]``
                # of the full concatenation.
                ubuf = np.concatenate(
                    [lane.draws._uniforms[lane.draws._pos:
                                          lane.draws._pos + 4 * w]
                     for lane, w in zip(win_lanes, win_widths)]
                )
                exp0 = np.concatenate(
                    [lane.draws._exp[lane.draws._pos:
                                     lane.draws._pos + 4 * w: 4]
                     for lane, w in zip(win_lanes, win_widths)]
                )
                # One gather of every per-lane scalar (row counts and sheet
                # bases are exact in float64) instead of seven array builds;
                # a flat list skips numpy's nested-sequence row parsing.
                scalars = np.array(
                    [
                        v
                        for lane in win_lanes
                        for v in (
                            lane._rate_total,
                            lane._rate_r01,
                            lane._rate_r012,
                            lane._rate_scale,
                            lane._time,
                            lane._n,
                            lane._sheet_base,
                        )
                    ],
                    dtype=np.float64,
                ).reshape(nseg, 7)
                tot = scalars[:, 0]
                r01 = scalars[:, 1]
                r012 = scalars[:, 2]
                scale = scalars[:, 3]
                t0 = scalars[:, 4]
                n_arr = scalars[:, 5].astype(np.int64)
                base = scalars[:, 6].astype(np.int64)
                sel = ubuf[1::4] * tot[lane_of]
                is_tick = (sel > r01[lane_of]) & (sel <= r012[lane_of])
                tick_u = ubuf[2::4]
                n_of = n_arr[lane_of]
                ticker = (tick_u * n_of).astype(np.int64)
                np.minimum(ticker, n_of - 1, out=ticker)
                # Heterogeneous lanes replay the per-class segment walk.
                # Lanes whose class tables have the same segment count are
                # resolved together: their tables stack into one matrix and
                # one set of array ops classifies every window (the walk's
                # doubles are untouched — same products, same truncation —
                # so rows equal the per-lane ``_batch_hetero_tickers``).
                hetero_groups: Dict[int, List[Tuple[int, dict]]] = {}
                for i, lane in enumerate(win_lanes):
                    if lane._classes is None:
                        continue
                    tabs = lane._ticker_tables()
                    if tabs is None:
                        s = seg_starts[i]
                        is_tick[s : s + win_widths[i]] = False
                    else:
                        hetero_groups.setdefault(
                            len(tabs["boundaries"]), []
                        ).append((i, tabs))
                for nsegs, group in hetero_groups.items():
                    if len(group) == 1:
                        i, tabs = group[0]
                        s = seg_starts[i]
                        e = s + win_widths[i]
                        boundaries = tabs["boundaries"]
                        thr = tick_u[s:e] * float(boundaries[-1])
                        seg = np.searchsorted(boundaries, thr, side="right")
                        np.minimum(seg, nsegs - 1, out=seg)
                        idx = (
                            (thr - tabs["starts"][seg]) / tabs["units"][seg]
                        ).astype(np.int64)
                        np.minimum(idx, tabs["sizes"][seg] - 1, out=idx)
                        ticker[s:e] = tabs["handles"][tabs["offsets"][seg] + idx]
                        continue
                    bound_m = np.stack([t["boundaries"] for _, t in group])
                    start_m = np.stack([t["starts"] for _, t in group])
                    unit_m = np.stack([t["units"] for _, t in group])
                    size_m = np.stack([t["sizes"] for _, t in group])
                    off_m = np.stack([t["offsets"] for _, t in group])
                    # One boolean mask covers every lane of the group: the
                    # gather (and the final scatter) walk the group's spans
                    # in ascending candidate order, identical to span-wise
                    # concatenation, without per-lane numpy calls.
                    hmask = np.zeros(len(tick_u), dtype=bool)
                    widths_g: List[int] = []
                    for i, _tabs in group:
                        s = int(seg_starts[i])
                        w = win_widths[i]
                        hmask[s : s + w] = True
                        widths_g.append(w)
                    u_h = tick_u[hmask]
                    lane_h = np.repeat(np.arange(len(group)), widths_g)
                    thr = u_h * bound_m[lane_h, nsegs - 1]
                    # Count of boundaries <= threshold == searchsorted
                    # (side="right") on each lane's sorted boundary row.
                    seg = (bound_m[lane_h] <= thr[:, None]).sum(axis=1)
                    np.minimum(seg, nsegs - 1, out=seg)
                    idx = (
                        (thr - start_m[lane_h, seg]) / unit_m[lane_h, seg]
                    ).astype(np.int64)
                    np.minimum(idx, size_m[lane_h, seg] - 1, out=idx)
                    loc = off_m[lane_h, seg] + idx
                    # The per-lane handle rows concatenate into one table;
                    # per-lane offsets lift ``loc`` into it, so one gather
                    # and one scatter resolve the whole group.
                    h_sizes = [len(t["handles"]) for _, t in group]
                    h_off = np.zeros(len(group), dtype=np.int64)
                    np.cumsum(h_sizes[:-1], out=h_off[1:])
                    h_cat = np.concatenate([t["handles"] for _, t in group])
                    ticker[hmask] = h_cat[h_off[lane_h] + loc]
                target = (ubuf[3::4] * n_of).astype(np.int64)
                np.minimum(target, n_of - 1, out=target)
                sheet = self._sheet
                g = base[lane_of]
                useless = (sheet[g + ticker] & ~sheet[g + target]) == 0
                ok = is_tick & ((ticker == target) | useless)
                pos = np.arange(len(ok), dtype=np.int64) - seg_starts[lane_of]
                first_bad = np.minimum.reduceat(
                    np.where(ok, _BIG, pos), seg_starts
                )
                counts = np.minimum(first_bad, w_arr)
                # Exact per-lane clock walk: sequential accumulation along
                # axis 1 reproduces the scalar left-fold double for double.
                maxw = int(w_arr.max())
                times = np.empty((nseg, maxw + 1), dtype=np.float64)
                times[:, 0] = t0
                steps = exp0 * scale[lane_of]
                if int(w_arr.min()) == maxw:
                    # Uniform widths (the common case: windows double in
                    # lockstep): a plain reshape replaces the fancy scatter.
                    times[:, 1:] = steps.reshape(nseg, maxw)
                else:
                    times[:, 1:] = 0.0
                    times[lane_of, pos + 1] = steps
                np.cumsum(times, axis=1, out=times)
                rows_idx = np.arange(nseg)
                end_time = times[rows_idx, counts]
                crossed = end_time > horizon
                applied = counts
                if crossed.any():
                    # Horizon crossings happen once per lane per run, and
                    # each clock row is strictly increasing: a per-lane
                    # bisect replaces a full crossing matrix.
                    applied = counts.copy()
                    for i in np.flatnonzero(crossed):
                        applied[i] = int(
                            np.searchsorted(
                                times[i, 1 : counts[i] + 1],
                                horizon,
                                side="right",
                            )
                        )
                    end_time = times[rows_idx, applied]
                applied_list = applied.tolist()
                newtime_list = end_time.tolist()
                crossed_list = crossed.tolist()
                seg_list = seg_starts.tolist()
                # -- phase 4: apply each lane's prefix, then its breaker ---
                for i, lane in enumerate(win_lanes):
                    slot = win_slots[i]
                    k = applied_list[i]
                    if k:
                        t_new = newtime_list[i]
                        lane._record_grid_until(t_new, horizon, interval)
                        lane._time = t_new
                        lane.metrics.wasted_contacts += k
                        # Inline advance(4k): the window width was capped at
                        # remaining >> 2, so 4k draws are always pending.
                        lane.draws._pos += 4 * k
                        lane._events += k
                    if crossed_list[i]:
                        # The candidate after the prefix crosses the
                        # horizon: its exponential is consumed, the run
                        # closes (solo crossing semantics).
                        lane.draws._pos += 1
                        lane._time = horizon
                        results[slot] = self._finalize(
                            lane, horizon, interval, True
                        )
                        continue
                    if k == win_widths[i]:
                        window = lane._stk_window * 2
                        lane._stk_window = (
                            window if window < _MAX_WINDOW else _MAX_WINDOW
                        )
                        continue
                    # Broken streak: the breaking candidate is already
                    # classified — apply it through the cohort primitives
                    # instead of burning a round on a scalar re-step.  The
                    # next window is sized to the streak the lane actually
                    # ran (plus a small margin) rather than blind halving:
                    # a broken lane re-windows every round regardless of
                    # width, so anything past its streak is pure speculative
                    # classification waste.
                    window = k + 8
                    lane._stk_window = (
                        window if window > _MIN_WINDOW else _MIN_WINDOW
                    )
                    ev = lane._events
                    if (
                        (
                            suspend_after_events is not None
                            and ev >= suspend_after_events
                        )
                        or (max_events is not None and ev >= max_events)
                        or (
                            max_population is not None
                            and lane._n >= max_population
                        )
                    ):
                        continue  # retires at the next classification
                    t_next = float(times[i, k + 1])
                    if t_next > horizon:
                        lane.draws._pos += 1
                        lane._time = horizon
                        results[slot] = self._finalize(
                            lane, horizon, interval, True
                        )
                        continue
                    gi = seg_list[i] + k
                    s_val = float(sel[gi])
                    r0 = lane._rates[0]
                    if (s_val <= r0 and lane._thin_arrivals) or (
                        r0 < s_val <= lane._rate_r01 and lane._thin_seed
                    ):
                        # Thinnable candidate: leave it (draws untouched)
                        # for the next round's thinned-reject batch.
                        continue
                    lane._record_grid_until(t_next, horizon, interval)
                    lane._time = t_next
                    if is_tick[gi]:
                        # A useful peer tick — the canonical streak breaker.
                        # Ticker / target rows come from the classification
                        # above; the transfer primitive consumes the piece
                        # pick exactly like the scalar handler.  Inline
                        # advance(4): candidate k+1 sits fully inside the
                        # window's 4·width pending draws.
                        lane.draws._pos += 4
                        lane._apply_transfer_tick(int(ticker[gi]), int(target[gi]))
                    else:
                        lane.draws._pos += 2
                        lane._apply_event(s_val)
                    lane._events = ev + 1

            active = [
                (slot, lane) for slot, lane in active if results[slot] is None
            ]
        return results


__all__ = ["StackedSwarmKernel"]
