"""Array-backed swarm kernel: the structure-of-arrays fast path.

:class:`ArraySwarmKernel` simulates exactly the same Section-III dynamics as
:class:`repro.swarm.swarm.SwarmSimulator`, but stores the population as a
structure of arrays (SoA) instead of one Python object per peer:

* ``_masks`` — ``numpy.uint64`` piece bitmasks (bit ``i-1`` = piece ``i``),
  one row per live peer (``K ≤ 64``);
* ``_arrival_time`` / ``_completed_at`` — float64 lifecycle timestamps
  (``nan`` marks "never completed");
* ``_arrived_with_rare`` / ``_infected`` / ``_was_one_club`` — boolean flags
  of the Figure-2 group decomposition;
* ``_seed_slot`` / ``_sped_slot`` — int64 back-pointers into the peer-seed
  and sped-up swap-remove lists (``-1`` when absent).

The numpy columns are the one store.  The scalar per-event path reads and
writes the mask column through ``_mask_view``, a zero-copy ``memoryview``
of ``_masks`` (indexing it yields a plain Python int, at about half the
cost of ``ndarray.item``); ``_bind_mask_view`` rebinds it wherever
``_masks`` is rebound (reset, growth, a stacked lane's adoption into the
shared sheet), so no view outlives its array.  The vectorised paths — the
batch stage's escalation, the census, snapshots — use the arrays, and no
memoryview reaches a snapshot.

Rows are dense: peer ``i`` lives in row ``i`` for ``i < population``.  A
departure swap-removes the last row into the vacated slot (O(1)), with the
back-pointer columns keeping the seed/sped lists consistent.  All aggregate
observables — per-piece census, one-club size, seed count, total tick
weight — are maintained incrementally on every event, so recording a sample
point is O(K) instead of the object simulator's O(population) rescan, and
event sampling uses cumulative rates with no per-event array rebuilds.

Equivalence contract
--------------------
The aggregate-rate event loop (``run`` / event dispatch) is
inherited from the shared :class:`~repro.swarm.swarm._SwarmEventLoop` driver,
so the RNG-consumption contract has a single implementation; the kernel only
supplies the SoA state representation, the event handlers and the sampling
hooks, and it consumes the shared blocked
:class:`~repro.swarm.drawbuf.DrawBuffer` in *exactly* the same order and
with the same bounds as the object simulator (same swap-remove bookkeeping,
same draw per handler).  Running both backends from the same seed therefore
produces bit-identical trajectories (populations, piece censuses, one-club
sizes, metrics).  ``tests/test_property_based.py`` asserts this property;
any change to a handler of either backend must preserve it (or update both).

The driver's rate cache is rebuilt only when ``_rates_dirty`` is set (see
``_SwarmEventLoop``), so every code path here that moves a row, a seed or a
sped-up entry must go through ``_add_peer`` / ``_remove_peer`` /
``_add_seed`` / ``_remove_seed`` / ``_add_sped`` / ``_discard_sped`` /
``seed_population``, which set it, or set it itself.  A useful peer tick
that completes nobody (the stable regime's dominant event) keeps the cache
clean and draws its ticker and target rows inline; where the batch stage is
licensed (no gossip, no retry speedup, an rng-free-when-useless policy) a
flat tick also decides a wasted contact inline, with no policy call.

On top of the scalar handlers the kernel adds a **batch stage**
(:meth:`_batch_stage`): runs of wasted peer ticks — the dominant event of a
captured swarm, and the one kind of event it batches — are classified
against the pending draw block and applied wholesale, consuming exactly the
draws the scalar loop would, so the batching is invisible in the trajectory
(enforced at ``DRAW_BLOCK_SIZE=1`` vs. default in CI).  Short runs are
classified by a scalar walk, long ones with numpy array ops.  A yield gate
backs the stage off after unproductive probes, so transfer-heavy
(stable-regime) swarms do not pay a failed probe before nearly every scalar
event.

The contract extends to declarative scenarios
(:class:`~repro.core.scenario.ScenarioSpec`): rate schedules thin in the
shared driver — every scheduled candidate, accepted or rejected, takes the
scalar path — and heterogeneous peer classes add a ``_class_idx`` column
plus per-class member/seed/sped row lists mirroring the object simulator's
per-class id lists, so scenario runs stay bit-identical across backends too.

Piece selection goes through the mask-level
:meth:`~repro.swarm.policies.PieceSelectionPolicy.select_piece_mask`
primitive, the one contract every policy implements.

Use :func:`repro.swarm.swarm.run_swarm` with ``backend="array"`` (or
:func:`repro.swarm.swarm.make_simulator`) rather than instantiating the
kernel directly.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, List, Optional

import numpy as np

from ..core.parameters import SystemParameters
from ..core.scenario import ScenarioSpec
from ..core.state import SystemState
from ..core.types import PieceSet
from ..simulation.rng import SeedLike, make_rng
from .groups import GroupSnapshot
from .policies import PieceSelectionPolicy, RandomUsefulSelection, SwarmView
from .swarm import _SwarmEventLoop, _pick_from_segments

_MAX_ARRAY_PIECES = 64

#: Candidates the batch stage's scalar walk looks at before it escalates to
#: the array classification of the whole pending block.
_PROBE_WINDOW = 16
#: A probe that batches fewer events than this counts as unproductive and
#: backs the yield gate off (see :meth:`ArraySwarmKernel._batch_stage`).
_PROBE_MIN_YIELD = 2
#: Longest back-off of the yield gate, in skipped batch-stage entries.
_PROBE_MAX_BACKOFF = 64


class ArraySwarmKernel(_SwarmEventLoop):
    """Structure-of-arrays peer-level simulation of the P2P swarm.

    Drop-in behavioural replacement for
    :class:`~repro.swarm.swarm.SwarmSimulator` (same constructor, ``run``,
    and observables), limited to ``num_pieces <= 64`` so that one uint64
    bitmask per peer suffices.
    """

    backend_name = "array"

    def __init__(
        self,
        params: SystemParameters,
        policy: Optional[PieceSelectionPolicy] = None,
        seed: SeedLike = None,
        rare_piece: int = 1,
        retry_speedup: float = 1.0,
        track_groups: bool = False,
        scenario: Optional[ScenarioSpec] = None,
        initial_capacity: int = 1024,
        draw_block_size: Optional[int] = None,
    ):
        if retry_speedup < 1.0:
            raise ValueError(f"retry_speedup must be >= 1, got {retry_speedup}")
        if not 1 <= rare_piece <= params.num_pieces:
            raise ValueError("rare_piece out of range")
        if params.num_pieces > _MAX_ARRAY_PIECES:
            raise ValueError(
                f"the array backend packs piece sets into uint64 bitmasks and "
                f"supports at most {_MAX_ARRAY_PIECES} pieces, got "
                f"{params.num_pieces}; fall back to backend=\"object\", which "
                f"has no piece-count limit"
            )
        self.params = params
        self.policy = policy if policy is not None else RandomUsefulSelection()
        self.rng = make_rng(seed)
        self.rare_piece = rare_piece
        self.retry_speedup = retry_speedup
        self.track_groups = track_groups

        num_pieces = params.num_pieces
        self._full_mask = (1 << num_pieces) - 1
        self._rare_bit = 1 << (rare_piece - 1)
        self._club_mask = self._full_mask & ~self._rare_bit

        #: Column capacity a fresh (or reset) kernel starts with.
        self._initial_capacity = max(int(initial_capacity), 16)
        self._arrival_types = list(params.arrival_rates)
        self._arrival_masks = [t.mask for t in self._arrival_types]
        self._arrival_weights = np.array(
            [params.arrival_rates[t] for t in self._arrival_types], dtype=float
        )
        self._arrival_total = float(self._arrival_weights.sum())
        self._arrival_probs = self._arrival_weights / self._arrival_total
        self._arrival_cumprobs = np.cumsum(self._arrival_probs)
        self._single_arrival_mask = (
            self._arrival_masks[0] if len(self._arrival_masks) == 1 else None
        )
        self._init_driver(scenario, draw_block_size)
        # The vectorized batch stage needs wasted peer ticks to be provably
        # state-neutral: retry speedups turn a wasted tick into a rate
        # change, and only policies flagged rng-free-when-useless are known
        # not to consume draws on a useless contact.  A gossip census adds a
        # draw (and a state mutation) to *every* peer tick, so gossip swarms
        # stay on the scalar per-event path wholesale.
        self._batch_enabled = (
            retry_speedup == 1.0
            and getattr(self.policy, "rng_free_when_useless", False)
            and self._gossip is None
        )
        # Homogeneous uniform contacts: peer ticks take the flat inline path.
        self._flat_ticks = self._classes is None and self._overlay is None
        if self._classes is not None:
            self._class_type_masks = tuple(
                tuple(type_c.mask for type_c in types)
                for types in self._class_types
            )

    def _reset_run_state(self) -> None:
        """The driver's fresh state plus empty population columns, lists,
        census counts, caches, probe gate and policy view."""
        super()._reset_run_state()
        capacity = self._initial_capacity
        self._masks = np.zeros(capacity, dtype=np.uint64)
        self._arrival_time = np.zeros(capacity, dtype=np.float64)
        self._completed_at = np.full(capacity, np.nan, dtype=np.float64)
        self._arrived_with_rare = np.zeros(capacity, dtype=np.bool_)
        self._infected = np.zeros(capacity, dtype=np.bool_)
        self._was_one_club = np.zeros(capacity, dtype=np.bool_)
        self._seed_slot = np.full(capacity, -1, dtype=np.int64)
        self._sped_slot = np.full(capacity, -1, dtype=np.int64)
        self._bind_mask_view()
        self._n = 0  # live rows: peers occupy rows 0.._n-1
        self._seeds: List[int] = []  # row indices of peer seeds (gamma < inf)
        self._sped: List[int] = []  # row indices of sped-up peers
        self._one_club_count = 0
        self._piece_counts: Dict[int, int] = {
            k: 0 for k in range(1, self.params.num_pieces + 1)
        }
        self._reset_probe_gate()
        self._membership_version = 0
        # Membership version the view's ``class_counts`` was built at.
        self._view_version = -1
        self._ticker_cache: Optional[dict] = None
        # Incremental numpy mirror of ``_class_members`` (built lazily on
        # the first ticker-table rebuild, kept in sync by the membership
        # mutators): rebuilds slice a view instead of re-converting lists.
        self._class_member_bufs: Optional[List[np.ndarray]] = None
        # Heterogeneous mode mirrors the object simulator's per-class
        # bookkeeping at the row level: _class_idx holds each row's class,
        # _member_slot its index in the per-class membership list, and the
        # per-class seed/sped lists replace the flat ones (the _seed_slot /
        # _sped_slot columns then index into the row's class list).
        if self._classes is not None:
            self._class_idx = np.zeros(capacity, dtype=np.int32)
            self._member_slot = np.full(capacity, -1, dtype=np.int64)
            # Per-class membership revisions: bumped whenever that class's
            # member list mutates, so the batch ticker cache can keep the
            # row arrays of untouched classes across rebuilds.
            self._class_member_revs = [0] * len(self._classes)
        self._view = SwarmView(
            num_pieces=self.params.num_pieces,
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
        return self._n

    def current_state(self) -> SystemState:
        """Aggregate the population into a :class:`SystemState`."""
        num_pieces = self.params.num_pieces
        if num_pieces <= 16:
            # Small piece spaces: a bincount over the mask column beats the
            # sort inside ``np.unique`` (same ascending-mask grouping).
            tallies = np.bincount(
                self._masks[: self._n], minlength=1 << num_pieces
            )
            masks = np.flatnonzero(tallies)
            counts = tallies[masks]
        else:
            masks, counts = np.unique(self._masks[: self._n], return_counts=True)
        return SystemState(
            {
                PieceSet.from_mask(int(mask), num_pieces): int(count)
                for mask, count in zip(masks, counts)
            },
            num_pieces,
        )

    def one_club_size(self) -> int:
        return self._one_club_count

    def _grow(self) -> None:
        capacity = len(self._masks) * 2
        names = [
            "_masks",
            "_arrival_time",
            "_completed_at",
            "_arrived_with_rare",
            "_infected",
            "_was_one_club",
            "_seed_slot",
            "_sped_slot",
        ]
        if self._classes is not None:
            names += ["_class_idx", "_member_slot"]
        for name in names:
            old = getattr(self, name)
            grown = np.empty(capacity, dtype=old.dtype)
            grown[: len(old)] = old
            if name == "_completed_at":
                grown[len(old) :] = np.nan
            elif name in ("_seed_slot", "_sped_slot", "_member_slot"):
                grown[len(old) :] = -1
            else:
                grown[len(old) :] = 0
            setattr(self, name, grown)
        self._bind_mask_view()

    def _bind_mask_view(self) -> None:
        """Bind ``_mask_view``, the scalar path's memoryview of ``_masks``.

        Called wherever ``_masks`` is rebound (reset, growth, the stacked
        sheet's adoption), so the view always aliases the live column: a
        view left on a replaced array would silently drop writes.
        """
        self._mask_view = memoryview(self._masks)

    def _add_peer(self, mask: int, class_index: int = 0) -> int:
        if self._n == len(self._masks):
            self._grow()
        self._membership_version += 1
        row = self._n
        self._n += 1
        self._mask_view[row] = mask
        self._arrival_time[row] = self._time
        self._completed_at[row] = np.nan
        self._arrived_with_rare[row] = bool(mask & self._rare_bit)
        self._infected[row] = False
        self._was_one_club[row] = False
        self._seed_slot[row] = -1
        self._sped_slot[row] = -1
        if self._classes is not None:
            self._class_idx[row] = class_index
            members = self._class_members[class_index]
            self._member_slot[row] = len(members)
            members.append(row)
            self._class_member_revs[class_index] += 1
            bufs = self._class_member_bufs
            if bufs is not None:
                buf = bufs[class_index]
                slot = len(members) - 1
                if slot >= len(buf):
                    grown_buf = np.empty(
                        max(2 * len(buf), 8), dtype=np.int64
                    )
                    grown_buf[: len(buf)] = buf
                    buf = bufs[class_index] = grown_buf
                buf[slot] = row
        bits = mask
        counts = self._piece_counts
        while bits:
            low = bits & -bits
            counts[low.bit_length()] += 1
            bits ^= low
        if mask == self._club_mask:
            self._one_club_count += 1
        if mask == self._full_mask and not self._class_departs_immediately(
            class_index
        ):
            self._add_seed(row)
        self._rates_dirty = True
        self.metrics.total_arrivals += 1
        if self._overlay is not None:
            self._overlay.on_arrival(row, self.draws)
        if self._gossip is not None:
            self._gossip.on_arrival(row, mask, self._time)
        return row

    def _remove_peer(self, row: int) -> None:
        if self._overlay is not None:
            # Detach (and, for tracker overlays, rewire) before the rows
            # move; the overlay applies the same swap-remove internally.
            self._overlay.on_departure(row, self.draws)
        if self._gossip is not None:
            # Same swap-remove move on the estimate rows.
            self._gossip.on_departure(row)
        self._membership_version += 1
        arrival = float(self._arrival_time[row])
        sojourn = self._time - arrival
        completed = float(self._completed_at[row])
        mask_view = self._mask_view
        mask = mask_view[row]
        bits = mask
        counts = self._piece_counts
        while bits:
            low = bits & -bits
            counts[low.bit_length()] -= 1
            bits ^= low
        if mask == self._club_mask:
            self._one_club_count -= 1
        if self._seed_slot[row] >= 0:
            self._remove_seed(row)
        if self._sped_slot[row] >= 0:
            self._discard_sped(row)
        hetero = self._classes is not None
        if hetero:
            row_class = int(self._class_idx[row])
            members = self._class_members[row_class]
            member_index = int(self._member_slot[row])
            self._member_slot[row] = -1
            last_member = members.pop()
            if last_member != row:
                members[member_index] = last_member
                self._member_slot[last_member] = member_index
                bufs = self._class_member_bufs
                if bufs is not None:
                    bufs[row_class][member_index] = last_member
            self._class_member_revs[row_class] += 1
        # Swap-remove: the last live row fills the vacated slot; the slot
        # columns keep the seed/sped/member lists pointing at the moved row.
        last = self._n - 1
        self._n = last
        if row != last:
            mask_view[row] = mask_view[last]
            self._arrival_time[row] = self._arrival_time[last]
            self._completed_at[row] = self._completed_at[last]
            self._arrived_with_rare[row] = self._arrived_with_rare[last]
            self._infected[row] = self._infected[last]
            self._was_one_club[row] = self._was_one_club[last]
            if hetero:
                last_class = int(self._class_idx[last])
                self._class_idx[row] = last_class
                member_slot = int(self._member_slot[last])
                self._member_slot[row] = member_slot
                self._member_slot[last] = -1
                if member_slot >= 0:
                    self._class_members[last_class][member_slot] = row
                    self._class_member_revs[last_class] += 1
                    bufs = self._class_member_bufs
                    if bufs is not None:
                        bufs[last_class][member_slot] = row
            seed_slot = int(self._seed_slot[last])
            self._seed_slot[row] = seed_slot
            if seed_slot >= 0:
                self._seed_list_of(last)[seed_slot] = row
            sped_slot = int(self._sped_slot[last])
            self._sped_slot[row] = sped_slot
            if sped_slot >= 0:
                self._sped_list_of(last)[sped_slot] = row
        self._rates_dirty = True
        self.metrics.record_departure(
            sojourn=sojourn,
            download_time=None if math.isnan(completed) else completed - arrival,
        )

    def _seed_list_of(self, row: int) -> List[int]:
        if self._classes is None:
            return self._seeds
        return self._class_seeds[int(self._class_idx[row])]

    def _sped_list_of(self, row: int) -> List[int]:
        if self._classes is None:
            return self._sped
        return self._class_sped[int(self._class_idx[row])]

    def _add_seed(self, row: int) -> None:
        seeds = self._seed_list_of(row)
        self._seed_slot[row] = len(seeds)
        seeds.append(row)
        self._rates_dirty = True

    def _remove_seed(self, row: int) -> None:
        seeds = self._seed_list_of(row)
        index = int(self._seed_slot[row])
        self._seed_slot[row] = -1
        last_row = seeds.pop()
        if last_row != row:
            seeds[index] = last_row
            self._seed_slot[last_row] = index
        self._rates_dirty = True

    def _add_sped(self, row: int) -> None:
        if self._sped_slot[row] < 0:
            sped = self._sped_list_of(row)
            self._sped_slot[row] = len(sped)
            sped.append(row)
            self._rates_dirty = True

    def _discard_sped(self, row: int) -> None:
        index = int(self._sped_slot[row])
        if index < 0:
            return
        sped = self._sped_list_of(row)
        self._sped_slot[row] = -1
        last_row = sped.pop()
        if last_row != row:
            sped[index] = last_row
            self._sped_slot[last_row] = index
        self._rates_dirty = True

    # -- snapshot hooks ----------------------------------------------------------

    #: The per-row columns captured by a snapshot (hetero columns added when
    #: a heterogeneous scenario is active).
    _SNAPSHOT_COLUMNS = (
        "masks",
        "arrival_time",
        "completed_at",
        "arrived_with_rare",
        "infected",
        "was_one_club",
        "seed_slot",
        "sped_slot",
    )

    def _capture_backend_state(self) -> Dict[str, object]:
        n = self._n
        state: Dict[str, object] = {
            "n": n,
            "seeds": list(self._seeds),
            "sped": list(self._sped),
            "one_club_count": self._one_club_count,
            "piece_counts": dict(self._piece_counts),
        }
        columns = list(self._SNAPSHOT_COLUMNS)
        if self._classes is not None:
            columns += ["class_idx", "member_slot"]
        for name in columns:
            state[name] = getattr(self, "_" + name)[:n].copy()
        return state

    def _restore_backend_state(self, state: Dict[str, object]) -> None:
        n = int(state["n"])
        while len(self._masks) < n:
            self._grow()
        # The restored membership has nothing to do with whatever this
        # simulator ran before, so the batch stage's cached ticker arrays
        # must not survive the restore.
        self._membership_version += 1
        self._ticker_cache = None
        self._class_member_bufs = None
        self._n = n
        columns = list(self._SNAPSHOT_COLUMNS)
        if self._classes is not None:
            columns += ["class_idx", "member_slot"]
        for name in columns:
            getattr(self, "_" + name)[:n] = state[name]
        self._seeds[:] = state["seeds"]
        self._sped[:] = state["sped"]
        self._one_club_count = state["one_club_count"]
        # The SwarmView proxies this dict, so update it in place.
        self._piece_counts.clear()
        self._piece_counts.update(state["piece_counts"])

    def seed_population(self, initial_state: SystemState) -> None:
        """Populate the swarm from a :class:`SystemState` before running.

        Bulk array fill: one broadcast per peer type instead of one
        ``_add_peer`` per peer.  Seeding draws no RNG and appends rows, class
        members and peer seeds in exactly the per-peer loop's order, so the
        trajectory is unchanged; on fleet workloads (hundreds of swarms,
        each pre-seeded with a one-club) the per-peer loop used to dominate
        the whole run.

        Under a topology overlay the bulk fill cannot be used: overlay
        wiring consumes draws per arrival in slot order, so seeding falls
        back to the object simulator's per-peer loop (and, like it, cancels
        the arrival counting — pre-seeded peers are not exogenous arrivals).
        """
        if self._overlay is not None:
            for type_c, count in initial_state.items():
                for _ in range(count):
                    self._add_peer(type_c.mask)
            self.metrics.total_arrivals -= initial_state.total_peers
            return
        for type_c, count in initial_state.items():
            if count <= 0:
                continue
            mask = type_c.mask
            self._membership_version += 1
            self._rates_dirty = True
            while self._n + count > len(self._masks):
                self._grow()
            start = self._n
            stop = start + count
            self._n = stop
            rows = range(start, stop)
            self._masks[start:stop] = mask
            self._arrival_time[start:stop] = self._time
            self._completed_at[start:stop] = np.nan
            self._arrived_with_rare[start:stop] = bool(mask & self._rare_bit)
            self._infected[start:stop] = False
            self._was_one_club[start:stop] = False
            self._seed_slot[start:stop] = -1
            self._sped_slot[start:stop] = -1
            if self._classes is not None:
                # Pre-seeded peers join class 0, like the scalar path did.
                self._class_idx[start:stop] = 0
                members = self._class_members[0]
                self._member_slot[start:stop] = np.arange(
                    len(members), len(members) + count, dtype=np.int64
                )
                members.extend(rows)
                self._class_member_revs[0] += 1
                # Bulk extend: drop the incremental mirror, it is rebuilt
                # lazily from the lists on the next ticker-table miss.
                self._class_member_bufs = None
            counts = self._piece_counts
            bits = mask
            while bits:
                low = bits & -bits
                counts[low.bit_length()] += count
                bits ^= low
            if mask == self._club_mask:
                self._one_club_count += count
            if mask == self._full_mask and not self._class_departs_immediately(0):
                seeds = self._seed_list_of(start)
                self._seed_slot[start:stop] = np.arange(
                    len(seeds), len(seeds) + count, dtype=np.int64
                )
                seeds.extend(rows)
            if self._gossip is not None:
                # Draw-free bulk init, matching per-slot on_arrival exactly.
                self._gossip.on_bulk_arrivals(start, stop, mask, self._time)

    # -- event mechanics -------------------------------------------------------

    def _total_peer_tick_rate(self) -> float:
        if self._classes is not None:
            return self._hetero_tick_rate()
        weight = self._n + (self.retry_speedup - 1.0) * len(self._sped)
        return weight * self.params.peer_rate

    def _sample_arrival_mask(self) -> int:
        if self._single_arrival_mask is not None:
            return self._single_arrival_mask
        # One buffered uniform + searchsorted, mirroring the object
        # simulator's arrival-type draw bit for bit.
        return self._arrival_masks[self.draws.cum_choice(self._arrival_cumprobs)]

    def _sample_ticking_row(self) -> int:
        if self._classes is not None:
            return self._draw_hetero_ticker()
        population = self._n
        sped = len(self._sped)
        if self.retry_speedup == 1.0 or not sped:
            return self.draws.integers(population)
        extra = self.retry_speedup - 1.0
        threshold = self.draws.uniform(0.0, population + extra * sped)
        if threshold < population:
            return int(threshold)
        return self._sped[min(int((threshold - population) / extra), sped - 1)]

    def _transfer(self, uploader_mask: int, row: int, from_seed: bool) -> bool:
        """Attempt a useful upload into the peer at ``row``."""
        masks = self._mask_view
        downloader_mask = masks[row]
        if self._gossip is not None:
            # The policy reads the census as the *downloader* estimates it.
            self._gossip.focus(row, self._n, self._time)
        # Refresh the live view in place; the per-class counts only move
        # when membership does.
        view = self._view
        view.total_peers = self._n
        view.time = self._time
        if (
            self._classes is not None
            and self._view_version != self._membership_version
        ):
            view.class_counts = tuple(len(m) for m in self._class_members)
            self._view_version = self._membership_version
        piece = self.policy.select_piece_mask(
            downloader_mask, uploader_mask, view, self.draws
        )
        if piece is None:
            self.metrics.wasted_contacts += 1
            return False
        piece_bit = 1 << (piece - 1)
        if downloader_mask & piece_bit:
            # Match the object backend, which fails loudly (via
            # Peer.receive_piece) when a buggy policy violates usefulness.
            raise ValueError(
                f"policy {self.policy.name!r} selected piece {piece}, "
                f"which the downloader already holds"
            )
        rare = self.rare_piece
        if downloader_mask == self._club_mask:
            self._was_one_club[row] = True
            self._one_club_count -= 1
        if (
            piece == rare
            and not self._arrived_with_rare.item(row)
            and self.params.num_pieces - downloader_mask.bit_count() >= 2
            and not self._infected.item(row)
        ):
            self._infected[row] = True
        new_mask = downloader_mask | piece_bit
        masks[row] = new_mask
        if new_mask == self._club_mask:
            self._one_club_count += 1
        self._piece_counts[piece] += 1
        if self._gossip is not None:
            self._gossip.on_piece(row, piece, self._time)
        self.metrics.total_downloads += 1
        if from_seed:
            self.metrics.total_seed_uploads += 1
        if new_mask == self._full_mask:
            self._completed_at[row] = self._time
            departs = (
                self._immediate_departure
                if self._classes is None
                else self._classes[self._class_idx.item(row)].immediate_departure
            )
            if departs:
                self._remove_peer(row)
            else:
                self._add_seed(row)
        return True

    def _handle_arrival(self) -> None:
        if self._classes is None:
            self._add_peer(self._sample_arrival_mask())
            return
        class_index, type_index = self._draw_arrival_class_type()
        self._add_peer(
            self._class_type_masks[class_index][type_index], class_index=class_index
        )

    def _handle_seed_tick(self) -> None:
        if self._n == 0:
            return
        target = self.draws.integers(self._n)
        self._transfer(self._full_mask, target, from_seed=True)

    def _handle_peer_tick(self) -> None:
        n = self._n
        if n == 0:
            return
        if self._flat_ticks and not self._sped:
            # Flat tick: ticker and target are two ``draws.integers(n)``
            # read straight from the pending block (same truncate-and-clamp),
            # falling back to the buffer when they straddle a block boundary.
            draws = self.draws
            pos = draws._pos
            if pos + 1 < draws._len:
                uniforms = draws._uniforms_mv
                uploader = int(uniforms[pos] * n)
                if uploader >= n:
                    uploader = n - 1
                target = int(uniforms[pos + 1] * n)
                if target >= n:
                    target = n - 1
                draws._pos = pos + 2
            else:
                uploader = draws.integers(n)
                target = draws.integers(n)
            if self._batch_enabled:
                # No gossip, no speedup and a policy that draws nothing on
                # a useless contact (what licenses the batch stage): a
                # self-contact or a useless contact is a wasted tick, decided
                # here without a policy call.
                masks = self._mask_view
                uploader_mask = masks[uploader]
                if target != uploader and uploader_mask & ~masks[target]:
                    self._transfer(uploader_mask, target, from_seed=False)
                else:
                    self.metrics.wasted_contacts += 1
                return
            self._apply_transfer_tick(uploader, target)
            return
        uploader = self._sample_ticking_row()
        overlay = self._overlay
        if overlay is not None:
            # Overlay contact: the target is one uniform over the ticker's
            # neighbor row (a zero-degree ticker still consumes it).
            self._discard_sped(uploader)
            slot = overlay.draw_target(uploader, self.draws.next())
            if self._gossip is not None:
                self._gossip_tick(uploader, slot)
            if slot < 0:
                self.metrics.wasted_contacts += 1
                success = False
            else:
                success = self._transfer(
                    self._mask_view[uploader], slot, from_seed=False
                )
            if success:
                self.metrics.neighbor_useful_ticks += 1
            else:
                self.metrics.neighbor_useless_ticks += 1
                if self.retry_speedup > 1.0:
                    self._add_sped(uploader)
            return
        target = self.draws.integers(self._n)
        self._apply_transfer_tick(uploader, target)

    def _apply_transfer_tick(self, uploader: int, target: int) -> None:
        """Peer tick whose ticker / target rows were already drawn: the
        rest of ``_handle_peer_tick`` (gossip, then the transfer's piece
        pick when the contact is useful)."""
        # A ticking peer's speedup (if any) is consumed by this tick.
        if self._sped_slot.item(uploader) >= 0:
            self._discard_sped(uploader)
        if self._gossip is not None:
            # One gossip uniform per peer tick, after the ticker/target
            # draws and before the transfer — mirroring the object backend.
            self._gossip_tick(uploader, target)
        if target == uploader:
            self.metrics.wasted_contacts += 1
            success = False
        else:
            success = self._transfer(
                self._mask_view[uploader], target, from_seed=False
            )
        if not success and self.retry_speedup > 1.0:
            self._add_sped(uploader)

    # -- flash-exit cull hooks ---------------------------------------------------

    def _slot_is_complete(self, slot: int) -> bool:
        return self._mask_view[slot] == self._full_mask

    def _remove_slot(self, slot: int) -> None:
        self._remove_peer(slot)

    def _handle_seed_departure(self) -> None:
        if self._classes is not None:
            row = self._draw_hetero_departing_seed()
            if row is not None:
                self._remove_peer(row)
            return
        if not self._seeds:
            return
        index = self.draws.integers(len(self._seeds))
        self._remove_peer(self._seeds[index])

    # -- vectorized event batching ----------------------------------------------

    def _reset_probe_gate(self) -> None:
        """Engage the batch stage's yield gate and zero its counters.

        The gate only decides *whether* a batch-stage entry looks for a
        batchable run, never which draws are consumed, so neither the gate
        nor the counters are part of a snapshot: a restored kernel continues
        the same trajectory whatever state its gate is in.
        """
        self._probe_skip = 0  # batch-stage entries still to skip
        self._probe_backoff = 0  # length of the current back-off
        # Clock of the last productive batch (or stacked window) that
        # stopped at a breaker: the next candidate, while the clock has not
        # moved, is that breaker.
        self._breaker_time = math.nan
        #: Probes run, batch-stage entries that skipped their probe (gate
        #: back-off or a known breaker), probes whose scalar walk filled
        #: ``_PROBE_WINDOW`` and escalated to the array classification, and
        #: wasted ticks applied by the batch stage.
        self.probes_run = 0
        self.probes_skipped = 0
        self.probes_escalated = 0
        self.events_batched = 0

    def _batch_hetero_tickers(self, uniforms: np.ndarray) -> Optional[np.ndarray]:
        """Vectorized ``_draw_hetero_ticker`` for a chunk of uniforms.

        Replays the shared driver's segment walk with array ops: the segment
        boundaries are the cumulative ``µ_c · n_c`` widths (same summation
        order as ``_pick_from_segments``, so the same doubles), the in-segment
        index the same truncate-and-clamp.  Valid only while class
        memberships are frozen, which batched (state-neutral) events
        guarantee; the per-class row arrays are cached until any peer is
        added or removed.
        """
        cache = self._ticker_tables()
        if cache is None:
            return None
        boundaries = cache["boundaries"]
        threshold = uniforms * float(boundaries[-1])
        segment = np.searchsorted(boundaries, threshold, side="right")
        np.minimum(segment, len(boundaries) - 1, out=segment)
        index = (
            (threshold - cache["starts"][segment]) / cache["units"][segment]
        ).astype(np.int64)
        np.minimum(index, cache["sizes"][segment] - 1, out=index)
        return cache["handles"][cache["offsets"][segment] + index]

    def _ticker_tables(self) -> Optional[dict]:
        """The cached segment tables behind :meth:`_batch_hetero_tickers`.

        ``None`` when no class has members (no tick can fire).  The cache
        is rebuilt when any membership changed, reusing the row arrays of
        classes whose revision is untouched.
        """
        cache = self._ticker_cache
        if cache is None or cache["version"] != self._membership_version:
            revs = self._class_member_revs
            old_rows = cache["class_rows"] if cache is not None else None
            old_revs = cache["revs"] if cache is not None else None
            bufs = self._class_member_bufs
            if bufs is None:
                # Seed the incremental mirror: per-class int64 buffers the
                # membership mutators keep in sync, so a rebuild slices a
                # view instead of converting the whole Python list.
                bufs = self._class_member_bufs = [
                    np.array(m, dtype=np.int64) for m in self._class_members
                ]
            class_rows: List[Optional[np.ndarray]] = []
            units: List[float] = []
            arrays: List[np.ndarray] = []
            for index, (cls, members) in enumerate(
                zip(self._classes, self._class_members)
            ):
                if old_rows is not None and old_revs[index] == revs[index]:
                    rows = old_rows[index]
                elif members:
                    rows = bufs[index][: len(members)]
                else:
                    rows = None
                class_rows.append(rows)
                if rows is not None:
                    units.append(cls.contact_rate)
                    arrays.append(rows)
            if not arrays:
                return None
            sizes = np.array([len(rows) for rows in arrays], dtype=np.int64)
            units_arr = np.array(units, dtype=np.float64)
            boundaries = np.cumsum(units_arr * sizes)
            offsets = np.zeros(len(arrays), dtype=np.int64)
            np.cumsum(sizes[:-1], out=offsets[1:])
            cache = self._ticker_cache = {
                "version": self._membership_version,
                "revs": list(revs),
                "class_rows": class_rows,
                "units": units_arr,
                "sizes": sizes,
                "boundaries": boundaries,
                "starts": np.concatenate(([0.0], boundaries[:-1])),
                "offsets": offsets,
                "handles": np.concatenate(arrays),
            }
        return cache

    def _batch_stage(self, limit: Optional[int]) -> int:
        """Consume a run of wasted peer ticks: a scalar walk, then numpy.

        A wasted peer tick — the dominant event in a captured (one-club)
        swarm — consumes exactly four buffered draws (inter-event
        exponential, event-type selection, ticking peer, contact target) and
        mutates nothing but the clock and ``metrics.wasted_contacts``, so
        the event rates provably stay constant across any run of them.  The
        stage classifies the pending draw block in groups of four (event
        type, ticker/target rows, usefulness of the contact via the mask
        census) and applies the maximal state-neutral prefix; the first
        event that transfers a piece, arrives, departs, ticks the fixed
        seed, or crosses the horizon is left — draws untouched — for the
        scalar path.  Each batched event consumes the same draws with the
        same semantics as the scalar loop, so trajectories are
        bit-identical (enforced by the equivalence and checkpoint property
        tests at ``DRAW_BLOCK_SIZE=1`` vs. default).

        **Walk, then escalate.**  The classification starts as a plain
        Python walk over at most ``_PROBE_WINDOW`` candidates, reusing the
        scalar dispatch's arithmetic: the selector band, the ticker row
        (flat truncate-and-clamp, or the classed pick
        :func:`~repro.swarm.swarm._pick_from_segments`), the target
        (uniform, or :meth:`~repro.swarm.topology.OverlayState.draw_target`
        under an overlay) and usefulness, all read through the draw
        buffer's and the mask column's memoryviews.  In small swarms and
        transfer-heavy phases runs of wasted ticks are short, so most walks
        stop inside the window and their run is applied without any array
        setup.  Only a walk that fills the window escalates to
        :meth:`_leading_wasted`, the same classification with array ops
        over the whole pending block, which is what keeps the long runs of
        a large captured swarm cheap.

        **Yield gate.**  In the stable regime most contacts move a piece, so
        the walk nearly always stops at its first candidate.  Even that
        costs a call and block reads per entry on top of the scalar event
        it precedes, so the gate stays in front of the walk: a probe that
        batches fewer than ``_PROBE_MIN_YIELD`` events backs the stage off —
        the run loop counts down ``_probe_skip`` over the next 1, 2, 4, … up
        to ``_PROBE_MAX_BACKOFF`` entries without calling the stage — and
        the first productive probe re-engages it.  The entry right after a
        productive batch skips its probe too when its candidate is the peer
        tick that stopped the batch (a known transfer), so a captured swarm
        does not back off at the end of every run of wasted ticks.  A
        skipped entry only hands the pending events to the scalar loop,
        which consumes the very same draws, so the gate never changes a
        trajectory — it is fixed scheduling, with no knob, and stays out of
        snapshots.  ``probes_run`` /
        ``probes_skipped`` / ``probes_escalated`` / ``events_batched``
        count what the stage did.
        """
        n = self._n
        if n == 0:
            return 0
        draws = self.draws
        pos = draws._pos
        remaining = draws._len - pos
        if remaining < 2:
            return 0
        uniforms = draws._uniforms_mv
        total = self._rate_total
        r01 = self._rate_r01
        r012 = self._rate_r012
        # The walk's first step, candidate 0's event type, also gates the
        # entry: anything but a peer tick leaves before a probe is counted.
        selector = uniforms[pos + 1] * total
        if not r01 < selector <= r012:
            return 0
        if self._breaker_time == self._time:
            # The last batch stopped at this very peer tick, so it moves a
            # piece and a probe would find nothing.
            self.probes_skipped += 1
            return 0
        candidates = remaining >> 2
        if limit is not None and candidates > limit:
            candidates = limit
        if candidates <= 0:
            return 0
        self.probes_run += 1
        window = _PROBE_WINDOW if candidates > _PROBE_WINDOW else candidates
        masks = self._mask_view
        overlay = self._overlay
        segments = self._ticker_segments() if self._classes is not None else None
        count = 0
        while True:
            if segments is None:
                ticker = int(uniforms[pos + 2] * n)
                if ticker >= n:
                    ticker = n - 1
            else:
                ticker = _pick_from_segments(segments, uniforms[pos + 2])
            if overlay is None:
                target = int(uniforms[pos + 3] * n)
                if target >= n:
                    target = n - 1
            else:
                # A zero-degree ticker (-1) wastes its tick.
                target = overlay.draw_target(ticker, uniforms[pos + 3])
            if target >= 0 and masks[ticker] & ~masks[target]:
                break  # a useful contact
            count += 1
            if count == window:
                break
            pos += 4
            selector = uniforms[pos + 1] * total
            if not r01 < selector <= r012:
                break
        if count == window and candidates > window:
            self.probes_escalated += 1
            count = self._leading_wasted(candidates)
        # An unproductive probe doubles the gate's back-off (the following
        # entries are skipped before any classification); a productive one
        # re-engages the gate.
        if count < _PROBE_MIN_YIELD:
            backoff = 2 * self._probe_backoff or 1
            if backoff > _PROBE_MAX_BACKOFF:
                backoff = _PROBE_MAX_BACKOFF
            self._probe_backoff = self._probe_skip = backoff
        else:
            self._probe_backoff = 0
        if count == 0:
            return 0
        # Exact sequential clock walk over the accepted prefix: same
        # accumulation order and horizon comparison as the scalar loop (the
        # exponentials are the block's precomputed inverse-transform
        # values, so the doubles match too).  The walk leaves the sampled
        # state frozen, so the grid is recorded once, up to the last
        # candidate it reached.
        horizon = self._run_horizon
        scale = self._rate_scale
        time = self._time
        applied = 0
        for exp_draw in draws.exp_view(4 * count)[::4].tolist():
            next_event_time = time + exp_draw * scale
            if next_event_time > horizon:
                break
            time = next_event_time
            applied += 1
        if self._next_sample < next_event_time:
            self._record_until(next_event_time)
        if count >= _PROBE_MIN_YIELD and applied == count < candidates:
            # Candidate ``count`` broke the run; the next entry starts there.
            self._breaker_time = time
        if applied:
            self._time = time
            self.metrics.wasted_contacts += applied
            if overlay is not None:
                # Both scalar overlay waste cases (zero degree, useless
                # neighbor) bump the locality counter too.
                self.metrics.neighbor_useless_ticks += applied
            draws.advance(4 * applied)
            self.events_batched += applied
        return applied

    def _leading_wasted(self, candidates: int) -> int:
        """The number of leading wasted peer ticks among the next
        ``candidates`` four-draw groups of the pending block: the batch
        stage's walk, with array ops over the whole block."""
        n = self._n
        total = self._rate_total
        chunk = self.draws.uniforms_view(4 * candidates)
        masks = self._masks
        overlay = self._overlay
        selector = chunk[1::4] * total
        is_peer_tick = (selector > self._rate_r01) & (selector <= self._rate_r012)
        if self._classes is not None:
            ticker = self._batch_hetero_tickers(chunk[2::4])
            if ticker is None:
                return 0
        else:
            ticker = (chunk[2::4] * n).astype(np.int64)
            np.minimum(ticker, n - 1, out=ticker)
        if overlay is not None:
            # Adjacency gather: the target draw maps onto the ticker's
            # neighbor row with the scalar truncate-and-clamp.  A
            # zero-degree ticker wastes its tick regardless of the
            # (clamped, garbage) gather, so the `zero` mask gates it.
            degree = overlay.deg[ticker]
            index = (chunk[3::4] * degree).astype(np.int64)
            np.minimum(index, degree - 1, out=index)
            np.maximum(index, 0, out=index)
            target = overlay.adj[ticker, index]
            useless = (masks[ticker] & ~masks[target]) == 0
            ok = is_peer_tick & ((degree == 0) | useless)
        else:
            target = (chunk[3::4] * n).astype(np.int64)
            np.minimum(target, n - 1, out=target)
            useless = (masks[ticker] & ~masks[target]) == 0
            ok = is_peer_tick & ((ticker == target) | useless)
        bad = np.flatnonzero(~ok)
        return int(bad[0]) if bad.size else candidates

    # -- sampling ---------------------------------------------------------------

    def _group_snapshot(self, sample_time: float) -> GroupSnapshot:
        n = self._n
        masks = self._masks[:n]
        gifted = self._arrived_with_rare[:n]
        infected = self._infected[:n] & ~gifted
        labelled = gifted | infected
        one_club = (masks == np.uint64(self._club_mask)) & ~labelled
        labelled = labelled | one_club
        has_rare = (masks & np.uint64(self._rare_bit)) != 0
        former = self._was_one_club[:n] & has_rare & ~labelled
        normal = n - int(gifted.sum()) - int(infected.sum()) - int(
            one_club.sum()
        ) - int(former.sum())
        return GroupSnapshot(
            time=sample_time,
            normal_young=normal,
            infected=int(infected.sum()),
            gifted=int(gifted.sum()),
            one_club=int(one_club.sum()),
            former_one_club=int(former.sum()),
        )


__all__ = ["ArraySwarmKernel"]
