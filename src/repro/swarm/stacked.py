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
* A round has three steps.  :meth:`StackedSwarmKernel._advance` runs each
  active lane's solo loop top (caps, rate cache, thinned and overlay
  batches, cull, horizon) and applies every scalar event in place through
  the lane's own ``_apply_event``, until the lane's next candidate is a
  batchable wasted tick — the lane is then filed into the round's windows
  — or its run ends.  :meth:`~StackedSwarmKernel._classify_windows`
  resolves every filed window with one set of numpy ops, and
  :meth:`~StackedSwarmKernel._apply_windows` applies each lane's
  wasted-tick prefix and then the candidate that broke it, again through
  ``_apply_event``.
* Runs start, suspend and close through the solo driver's own
  ``_begin_run`` / ``_result``, so a finished lane's
  :class:`~repro.swarm.swarm.SwarmResult` is exactly what the solo loop
  would have returned.
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
from .kernel import ArraySwarmKernel
from .policies import PieceSelectionPolicy
from .swarm import SwarmResult

#: Sentinel larger than any candidate window (first-bad reduction).
_BIG = np.int64(1) << np.int64(40)

#: Initial / ceiling per-lane candidate window of the global classification
#: (doubled after a fully clean round, streak-sized after a broken one).
#: The floor trades re-classification of the window tail behind a breaker
#: against per-round dispatch overhead; the ceiling bounds how far one
#: deep-streak lane can pad the round's clock matrix (lanes classify at
#: the round's widest window).  Scalar events are drained inside each
#: lane's advance, so rounds are window-paced and a high ceiling amortises
#: the per-round numpy glue better (swept 16..64 x 512..2048 on the
#: 200-swarm fleet workload).
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

    def _record_grid_until(self, until: float) -> None:
        """Record the run's sample-grid points before ``until`` (the solo
        loop's time-correct walk, with the grid cursor kept on the lane)."""
        horizon = self._run_horizon
        interval = self._run_interval
        next_sample = self._next_sample
        while next_sample <= horizon and next_sample < until:
            self._record_sample(next_sample)
            next_sample += interval
        self._next_sample = next_sample

    def _apply_scalar(self, when: float, selector: float) -> None:
        """The solo loop's scalar step for a peeked candidate: walk the
        grid to its event time, consume its exponential and selector, and
        apply it through ``_apply_event``."""
        self._record_grid_until(when)
        self._time = when
        # Inline advance(2): callers guarantee both draws are pending.
        self.draws._pos += 2
        self._apply_event(selector)
        self._events += 1

    def _close_at_horizon(self) -> SwarmResult:
        """Solo crossing semantics: the candidate's exponential is consumed,
        the clock stops at the horizon and the run closes."""
        self.draws._pos += 1
        self._time = self._run_horizon
        return self._result(True, False)


def _clone_lane(template: _StackedLane, seed: SeedLike) -> _StackedLane:
    """A fresh lane sharing the template's immutable digested configuration.

    Building a kernel from scratch re-derives the same arrival tables,
    schedule digests and class tables for every swarm of a fleet point;
    since :func:`~repro.fleet.spec.materialize_tasks` shares one
    params/scenario object per distinct point, those digests can be shared
    too.  The RNG and draw buffer are seeded per lane and everything else
    mutable is rebuilt by the kernel's own ``_reset_run_state``, so clones
    are trajectory-independent; only when the policy is the stateless
    built-in default do callers clone at all.
    """
    lane = object.__new__(_StackedLane)
    lane.__dict__.update(template.__dict__)
    lane._stack = None
    lane.rng = make_rng(seed)
    lane.draws = DrawBuffer(lane.rng, template.draws.block_size)
    lane._reset_run_state()
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

        Lanes restored from a suspended snapshot resume where they left off,
        on their own sample grid, exactly like the solo ``run(horizon,
        resume=True)`` — the same horizon / interval checks, and an
        ``initial_states`` entry for such a lane is an error.  The rest
        start fresh, optionally pre-seeded from ``initial_states``.
        ``suspend_after_events`` suspends each lane once its cumulative
        event count reaches the bound, exactly like the solo loop's
        parameter — the suspended lane's ``capture_state()`` equals the
        solo snapshot bit for bit.
        """
        lanes = self._lanes
        for slot, lane in enumerate(lanes):
            lane._begin_run(
                horizon,
                initial_states[slot] if initial_states is not None else None,
                sample_interval,
                resume=lane._run_active,
            )
            lane._stk_window = _MIN_WINDOW
            # Overlay lanes cannot join the cross-lane classification: it
            # draws contact targets uniformly over the mask sheet, but an
            # overlay target is one uniform over the ticker's *neighbor*
            # row.  Such lanes batch through their own (adjacency-aware)
            # solo stage in ``_advance`` instead.
            lane._stk_windowable = lane._batch_enabled and lane._overlay is None

        # Tiny draw blocks (CI's DRAW_BLOCK_SIZE=1 equivalence mode) leave
        # nothing to stack; the solo loop is the same trajectory.
        if lanes and lanes[0].draws.block_size < _MIN_STACKED_BLOCK:
            return [
                lane.run(
                    horizon,
                    resume=True,
                    max_events=max_events,
                    max_population=max_population,
                    suspend_after_events=suspend_after_events,
                )
                for lane in lanes
            ]

        event_caps = [c for c in (max_events, suspend_after_events) if c is not None]
        self._horizon = horizon
        self._caps = (
            suspend_after_events,
            max_events,
            max_population,
            min(event_caps) if event_caps else None,
        )
        self._results: List[Optional[SwarmResult]] = [None] * len(lanes)
        active: List[Tuple[int, _StackedLane]] = list(enumerate(lanes))
        while active:
            #: (slot, lane, width) of every lane whose next candidate is a
            #: batchable wasted tick, filed by ``_advance`` this round.
            self._windows: List[Tuple[int, _StackedLane, int]] = []
            for slot, lane in active:
                self._advance(slot, lane)
            # Classification reads the mask sheet after every lane has
            # advanced: arrivals during the advance may have re-homed it.
            if self._windows:
                self._apply_windows(*self._classify_windows())
            results = self._results
            active = [(slot, lane) for slot, lane in active if results[slot] is None]
        return self._results

    def _advance(self, slot: int, lane: _StackedLane) -> None:
        """Drive one lane until it is filed into the round's windows or its
        run ends.

        This is the solo loop top — caps, the lane's rate cache (rebuilt
        only when a mutator dirtied it), thinned and overlay batches, the
        cull and the horizon — in exactly the solo order, with the next
        exponential and selector *peeked*; any other candidate is applied
        in place through the lane's own ``_apply_event``.  A lane whose run
        ends stores its result.
        """
        horizon = self._horizon
        suspend_after, max_events, max_population, event_cap = self._caps
        results = self._results
        while True:
            events = lane._events
            if suspend_after is not None and events >= suspend_after:
                results[slot] = lane._result(False, True)
                return
            if (max_events is not None and events >= max_events) or (
                max_population is not None and lane._n >= max_population
            ):
                results[slot] = lane._result(False, False)
                return
            if lane._rates_dirty:
                lane._refresh_rates()
            total = lane._rate_total
            if total <= 0.0:
                lane._time = horizon
                results[slot] = lane._result(True, False)
                return
            draws = lane.draws
            remaining = draws._len - draws._pos
            if remaining == 0:
                # Refilling an *empty* buffer is bit-free: blocks sit at
                # fixed positions of the per-lane stream, so the next
                # scalar draw would trigger the identical refill.
                draws._refill()
                remaining = draws._len
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
            # Inline peek_uniform(1): this runs once per lane per event.
            sel = draws._uniforms.item(draws._pos + 1) * total
            cull_time = lane._cull_time
            cull_pending = cull_time is not None and not lane._cull_done
            if not cull_pending:
                budget = event_cap - events if event_cap is not None else None
                r0 = lane._rates[0]
                if lane._batch_enabled and lane._rate_r01 < sel <= lane._rate_r012:
                    window = min(remaining >> 2, lane._stk_window)
                    if budget is not None:
                        window = min(window, budget)
                    if window > 0:
                        if lane._stk_windowable:
                            self._windows.append((slot, lane, window))
                            return
                        # Overlay lane: batch through its own solo stage
                        # (adjacency-aware, draw-invisible).  The stage may
                        # record grid samples even when it applies nothing
                        # (a first candidate crossing the horizon): keep its
                        # grid cursor unconditionally, like the solo loop.
                        applied, lane._next_sample = lane._batch_stage(
                            horizon, lane._run_interval, lane._next_sample, budget
                        )
                        if applied:
                            lane._events = events + applied
                            continue
                    # remaining < 4 (or nothing batchable): the tick takes
                    # the scalar path below, exactly like the solo batch
                    # stage declining.
                elif (sel <= r0 and lane._thin_arrivals) or (
                    r0 < sel <= lane._rate_r01 and lane._thin_seed
                ):
                    # Same grid-cursor rule as the overlay stage above.
                    applied, lane._next_sample = lane._batch_thinned(
                        horizon, lane._run_interval, lane._next_sample, budget
                    )
                    if applied:
                        lane._events = events + applied
                        continue
                    # The first candidate is accepted (or crosses the
                    # horizon): it takes the scalar path below.
            net = lane._time + lane._rate_scale * draws._exp.item(draws._pos)
            if cull_pending and cull_time <= horizon and net >= cull_time:
                # Flash-exit interrupt: consume (and discard) the peeked
                # exponential, fire the cull; the selector stays pending.
                draws._pos += 1
                lane._record_grid_until(cull_time)
                lane._time = cull_time
                lane._execute_cull()
                lane._events = events + 1
                continue
            if net > horizon:
                results[slot] = lane._close_at_horizon()
                return
            lane._apply_scalar(net, sel)

    def _classify_windows(
        self,
    ) -> Tuple[List[int], List[float], List[bool], List[float], List[float]]:
        """Classify every filed window with one set of numpy ops.

        Returns, per window: the length ``k`` of its leading run of wasted
        ticks that stays within the horizon, the clock after them, whether
        the run stops at a horizon crossing, and the event time and
        selector of the candidate after a streak that broke early.
        """
        windows = self._windows
        nseg = len(windows)
        w_arr = np.array([width for _, _, width in windows], dtype=np.int64)
        seg_starts = np.zeros(nseg, dtype=np.int64)
        np.cumsum(w_arr[:-1], out=seg_starts[1:])
        lane_of = np.repeat(np.arange(nseg), w_arr)
        # Direct pending-draw slices (``uniforms_view`` / ``exp_view``
        # inlined — two method calls per lane-window add up here).  Only
        # every 4th exponential (the inter-event gap) is read, so the exp
        # gather is strided per lane: lane spans are 4-aligned in ``ubuf``,
        # making this exactly ``ebuf[0::4]`` of the full concatenation.
        ubuf = np.concatenate(
            [
                lane.draws._uniforms[lane.draws._pos : lane.draws._pos + 4 * w]
                for _, lane, w in windows
            ]
        )
        exp0 = np.concatenate(
            [
                lane.draws._exp[lane.draws._pos : lane.draws._pos + 4 * w : 4]
                for _, lane, w in windows
            ]
        )
        # One gather of every per-lane scalar (row counts and sheet bases
        # are exact in float64) instead of seven array builds; a flat list
        # skips numpy's nested-sequence row parsing.
        scalars = np.array(
            [
                v
                for _, lane, _w in windows
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
        for i, (_, lane, width) in enumerate(windows):
            if lane._classes is not None:
                # Heterogeneous lane: its own vectorized per-class walk; a
                # lane with no class members cannot tick at all.
                s = int(seg_starts[i])
                rows = lane._batch_hetero_tickers(tick_u[s : s + width])
                if rows is None:
                    is_tick[s : s + width] = False
                else:
                    ticker[s : s + width] = rows
        target = (ubuf[3::4] * n_of).astype(np.int64)
        np.minimum(target, n_of - 1, out=target)
        sheet = self._sheet
        g = base[lane_of]
        useless = (sheet[g + ticker] & ~sheet[g + target]) == 0
        ok = is_tick & ((ticker == target) | useless)
        pos = np.arange(len(ok), dtype=np.int64) - seg_starts[lane_of]
        first_bad = np.minimum.reduceat(np.where(ok, _BIG, pos), seg_starts)
        counts = np.minimum(first_bad, w_arr)
        # Exact per-lane clock walk: sequential accumulation along axis 1
        # reproduces the scalar left-fold double for double.
        maxw = int(w_arr.max())
        times = np.empty((nseg, maxw + 1), dtype=np.float64)
        times[:, 0] = t0
        steps = exp0 * scale[lane_of]
        if int(w_arr.min()) == maxw:
            # Uniform widths (the common case: windows double in lockstep):
            # a plain reshape replaces the fancy scatter.
            times[:, 1:] = steps.reshape(nseg, maxw)
        else:
            times[:, 1:] = 0.0
            times[lane_of, pos + 1] = steps
        np.cumsum(times, axis=1, out=times)
        rows_idx = np.arange(nseg)
        end_time = times[rows_idx, counts]
        horizon = self._horizon
        crossed = end_time > horizon
        applied = counts
        if crossed.any():
            # Horizon crossings happen once per lane per run, and each
            # clock row is strictly increasing: a per-lane bisect replaces
            # a full crossing matrix.
            applied = counts.copy()
            for i in np.flatnonzero(crossed):
                applied[i] = int(
                    np.searchsorted(
                        times[i, 1 : counts[i] + 1], horizon, side="right"
                    )
                )
            end_time = times[rows_idx, applied]
        # The breaking candidate of a streak shorter than its window (only
        # read for those rows; the clamp keeps full windows in range).
        brk = np.minimum(applied, w_arr - 1)
        return (
            applied.tolist(),
            end_time.tolist(),
            crossed.tolist(),
            times[rows_idx, brk + 1].tolist(),
            sel[seg_starts + brk].tolist(),
        )

    def _apply_windows(
        self,
        applied: List[int],
        end_time: List[float],
        crossed: List[bool],
        breaker_time: List[float],
        breaker_sel: List[float],
    ) -> None:
        """Apply each window's wasted-tick prefix, then the candidate that
        broke it (see :meth:`_classify_windows`).

        The breaker is applied here, not left pending: the next round
        would file the same tick into a window again and break at it
        forever.  No cap check is needed before it — a window is never
        wider than the lane's remaining event budget, and wasted ticks
        leave the population unchanged.
        """
        results = self._results
        for i, (slot, lane, width) in enumerate(self._windows):
            k = applied[i]
            if k:
                t_new = end_time[i]
                lane._record_grid_until(t_new)
                lane._time = t_new
                lane.metrics.wasted_contacts += k
                # Inline advance(4k): the window width was capped at
                # remaining >> 2, so 4k draws are always pending.
                lane.draws._pos += 4 * k
                lane._events += k
            if crossed[i]:
                results[slot] = lane._close_at_horizon()
            elif k == width:
                lane._stk_window = min(2 * lane._stk_window, _MAX_WINDOW)
            else:
                # Broken streak: size the next window to the streak the
                # lane actually ran (plus a small margin) rather than blind
                # halving — anything past its streak is speculative
                # classification waste.
                lane._stk_window = max(k + 8, _MIN_WINDOW)
                if breaker_time[i] > self._horizon:
                    results[slot] = lane._close_at_horizon()
                else:
                    lane._apply_scalar(breaker_time[i], breaker_sel[i])


__all__ = ["StackedSwarmKernel"]
