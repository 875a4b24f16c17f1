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
would be), driven by its own solo event loop; the stack only takes over the
lane's runs of wasted peer ticks, consuming four draws per batched tick
exactly like the solo batch stage.  Block refills happen at fixed
4096-draw boundaries of the *per-lane* stream regardless of how draws are
grouped, so every lane's trajectory (metrics, samples, snapshots) is
**bit-identical to a solo run on the same seed**; ``tests/test_stacked.py``
asserts this per lane, at the default block size and at
``DRAW_BLOCK_SIZE=1``, and at fleet scale.  Interleaving lanes is free
because swarms are independent: no draw of one lane can influence another.

Structure
---------
* A shared uint64 **mask sheet** holds every lane's piece-mask column at a
  per-lane base offset (``lane._masks`` is a view into the sheet), so the
  cross-lane usefulness test is two gathers on one array instead of one
  small gather per swarm.  Lane growth re-homes the lane at the sheet's
  tail (the old segment is abandoned — growth is rare and the sheet is
  transient).
* A round has three steps.  :meth:`StackedSwarmKernel._advance` re-enters
  a lane's solo loop (``_SwarmEventLoop._loop``): caps, rate cache, cull,
  horizon, block refills, overlay batches and every scalar event are the
  solo code.  The lane's ``_batch_stage`` override stops that loop when
  its next candidate is a peer tick and files the lane's window into the
  round instead.
  :meth:`~StackedSwarmKernel._classify_windows` resolves every filed
  window with one set of numpy ops, and
  :meth:`~StackedSwarmKernel._apply_windows` applies each lane's
  wasted-tick prefix, recording the lane's sample grid up to its new
  clock through the solo driver's one grid walk
  (``_SwarmEventLoop._record_until``).  A prefix shorter than its window
  marks the candidate after it as the lane's breaker, which the lane's
  solo loop then applies — or closes the run at the horizon — in the
  next round.
* Runs start, suspend and close through the solo driver's own
  ``_begin_run`` / ``_result``, so a finished lane's
  :class:`~repro.swarm.swarm.SwarmResult` is exactly what the solo loop
  would have returned.  Outside ``run_all`` a lane is an ordinary kernel:
  ``stack.lane(i).run(horizon, resume=True)`` continues it solo.
* Snapshots stay per-swarm: ``lane.capture_state()`` emits the ordinary
  format-2 payload (backend ``"array"``), and ``add_lane(snapshot=...)``
  restores one, so fleet checkpoint/resume interoperates freely with the
  per-swarm path.

Limits: lanes inherit the array kernel's ``K <= 64`` bitmask bound, and
custom piece-selection policies are only batched under the same conditions
as the solo batch stage (``rng_free_when_useless`` and no retry speedup);
other lanes never file a window and run their solo loop to the end.
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
#: 200-swarm fleet workload).  Bigger draw blocks for lanes lose: capped
#: fleet lanes read a couple thousand draws, the rest is wasted refill.
_MIN_WINDOW = 16
_MAX_WINDOW = 1024


class _StackedLane(ArraySwarmKernel):
    """An array kernel whose mask column lives in the stack's shared sheet."""

    _stack: Optional["StackedSwarmKernel"] = None
    #: Whether the lane files its peer-tick windows with the stack; only
    #: true while ``run_all`` drives it.
    _stk_windowable = False

    def _grow(self) -> None:
        # The base grow detaches every column (including ``_masks``) into
        # private doubled arrays; re-home the masks on the sheet afterwards.
        super()._grow()
        if self._stack is not None:
            self._stack._adopt(self)

    def _batch_stage(self, limit: Optional[int]) -> int:
        """File the lane's next window with the stack, or batch solo.

        While ``run_all`` drives the lane, a pending peer tick that is not
        a known breaker (``_breaker_time``) and fits a window of at least
        one four-draw group is filed into the round's windows; the negative
        count then stops the lane's solo loop, draws untouched.  Every
        other entry — a candidate that is not a peer tick, a breaker, a block
        too small for a window, a lane outside ``run_all`` — is the solo
        batch stage.
        """
        if self._stk_windowable and self._breaker_time != self._time:
            draws = self.draws
            pos = draws._pos
            width = (draws._len - pos) >> 2
            if width and (
                self._rate_r01
                < draws._uniforms_mv[pos + 1] * self._rate_total
                <= self._rate_r012
            ):
                if width > self._stk_window:
                    width = self._stk_window
                if limit is not None and width > limit:
                    width = limit
                self._stack._windows.append((self, width))
                return -1
        return ArraySwarmKernel._batch_stage(self, limit)


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
            # Slice views into the old sheet died with it: rebind them all,
            # with their scalar memoryviews.
            for other in self._lanes:
                base = other._sheet_base
                if other is not lane:
                    other._masks = sheet[base : base + len(other._masks)]
                    other._bind_views()
        base = self._sheet_used
        self._sheet_used = base + capacity
        self._sheet[base : base + capacity] = masks
        lane._masks = self._sheet[base : base + capacity]
        lane._bind_views()
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
        if initial_states is not None and len(initial_states) != len(lanes):
            raise ValueError(
                f"initial_states has {len(initial_states)} entries for "
                f"{len(lanes)} lanes"
            )
        self._horizon = horizon
        self._caps = (max_events, max_population, suspend_after_events)
        self._results: List[Optional[SwarmResult]] = [None] * len(lanes)
        try:
            for slot, lane in enumerate(lanes):
                lane._begin_run(
                    horizon,
                    initial_states[slot] if initial_states is not None else None,
                    sample_interval,
                    resume=lane._run_active,
                )
                lane._stk_window = _MIN_WINDOW
                # Overlay lanes cannot join the cross-lane classification:
                # it draws contact targets uniformly over the mask sheet,
                # but an overlay target is one uniform over the ticker's
                # *neighbor* row.  Such lanes batch through their own
                # (adjacency-aware) solo stage instead.
                lane._stk_windowable = lane._overlay is None
            active: List[Tuple[int, _StackedLane]] = list(enumerate(lanes))
            while active:
                #: (lane, width) of every lane whose next candidate is a
                #: peer tick, filed by its ``_batch_stage`` this round.
                self._windows: List[Tuple[_StackedLane, int]] = []
                for slot, lane in active:
                    self._advance(slot, lane)
                # Classification reads the mask sheet after every lane has
                # advanced: arrivals during the advance may have re-homed it.
                if self._windows:
                    self._apply_windows(*self._classify_windows())
                results = self._results
                active = [
                    (slot, lane) for slot, lane in active if results[slot] is None
                ]
        finally:
            for lane in lanes:
                lane._stk_windowable = False
        return self._results

    def _advance(self, slot: int, lane: _StackedLane) -> None:
        """Run one lane's solo loop until it files a window or its run
        ends; a lane whose run ends stores its result."""
        outcome = lane._loop(self._horizon, *self._caps)
        if outcome is not None:
            self._results[slot] = lane._result(*outcome)

    def _classify_windows(self) -> Tuple[List[int], List[float]]:
        """Classify every filed window with one set of numpy ops.

        Returns, per window, the length ``k`` of its leading run of wasted
        ticks that stays within the horizon and the clock after them.
        """
        windows = self._windows
        nseg = len(windows)
        w_arr = np.array([width for _, width in windows], dtype=np.int64)
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
                for lane, w in windows
            ]
        )
        exp0 = np.concatenate(
            [
                lane.draws._exp[lane.draws._pos : lane.draws._pos + 4 * w : 4]
                for lane, w in windows
            ]
        )
        # One gather of every per-lane scalar (row counts and sheet bases
        # are exact in float64) instead of seven array builds; a flat list
        # skips numpy's nested-sequence row parsing.
        scalars = np.array(
            [
                v
                for lane, _w in windows
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
        for i, (lane, width) in enumerate(windows):
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
        if crossed.any():
            # Horizon crossings happen once per lane per run, and each
            # clock row is strictly increasing: a per-lane bisect replaces
            # a full crossing matrix.
            for i in np.flatnonzero(crossed):
                row = times[i, 1 : counts[i] + 1]
                counts[i] = np.searchsorted(row, horizon, side="right")
            end_time = times[rows_idx, counts]
        return counts.tolist(), end_time.tolist()

    def _apply_windows(self, applied: List[int], end_time: List[float]) -> None:
        """Apply each window's wasted-tick prefix (see
        :meth:`_classify_windows`).

        A prefix shorter than its window stopped at a candidate that is
        not a wasted tick, or that crosses the horizon: it becomes the
        lane's breaker, so the next round's solo loop takes it on the
        scalar path instead of filing the same tick again.  No cap check
        is needed — a window is never wider than the lane's remaining
        event budget, and wasted ticks leave the population unchanged.
        """
        for i, (lane, width) in enumerate(self._windows):
            k = applied[i]
            if k:
                t_new = end_time[i]
                # The solo loop's time-correct grid recording up to the new
                # clock (wasted ticks leave the sampled state frozen).
                if lane._next_sample < t_new:
                    lane._record_until(t_new)
                lane._time = t_new
                lane.metrics.wasted_contacts += k
                # Inline advance(4k): the window width was capped at
                # remaining >> 2, so 4k draws are always pending.
                lane.draws._pos += 4 * k
                lane._events += k
            if k == width:
                lane._stk_window = min(2 * lane._stk_window, _MAX_WINDOW)
            else:
                # Broken streak: size the next window to the streak the
                # lane actually ran (plus a small margin) rather than blind
                # halving — anything past its streak is speculative
                # classification waste.
                lane._stk_window = max(k + 8, _MIN_WINDOW)
                lane._breaker_time = lane._time


__all__ = ["StackedSwarmKernel"]
