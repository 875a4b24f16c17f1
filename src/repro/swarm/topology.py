"""Contact-topology overlays: who a ticking peer may actually contact.

Both swarm kernels (and the Zhu–Hajek theory they reproduce) default to
*uniform random contacts over the whole population* — a complete contact
graph.  Real swarms contact a bounded, tracker-sampled neighbor set.  This
module adds that layer:

* :class:`TopologySpec` — a frozen, picklable, hashable description of an
  overlay graph generator (``complete``, ``k-regular``, ``random-regular``,
  ``scale-free``, ``tracker``, ``partitioned``).
* :class:`OverlayState` — the mutable adjacency state both backends share: a
  SoA table (fixed-width ``int32`` neighbor matrix + degree vector) indexed
  by *population slot*.

Why slot-indexed and shared
---------------------------

The two backends maintain the invariant that array row ``i`` holds the same
peer as ``object._order[i]`` at all times (identical append and swap-remove
discipline).  Keying the adjacency by slot therefore lets ONE overlay
implementation serve both: the object backend translates peer ids through
``_position``, the array kernel uses rows directly, and the two contact
streams stay bit-identical by construction.  The object backend's per-peer
neighbor lists (``SwarmSimulator.peer_neighbors``) are a translated *view*
of this state, not a second copy.

Determinism contract
--------------------

Every stochastic decision consumes **exactly one uniform** from the shared
:class:`~repro.swarm.drawbuf.DrawBuffer`, and the number of draws per
overlay operation is a pure function of prior events — never of float
comparisons against graph state.  Concretely:

* arrival wiring — ``k-regular`` draws 0 uniforms; ``random-regular`` and
  ``tracker`` draw exactly ``degree`` uniforms (when at least one other peer
  exists); ``scale-free`` draws ``max(1, degree // 2)`` preferential-
  attachment uniforms; ``partitioned`` draws exactly ``degree`` uniforms,
  each remapped into either a bridge draw or an own-component draw.  A
  candidate that is a duplicate or would exceed ``max_degree`` simply fails
  to link — the uniform is consumed either way.
* contact tick — the ticking slot's target is one uniform over its neighbor
  row (``min(int(u * degree), degree - 1)``); a zero-degree ticker still
  consumes the uniform and wastes the tick.
* departure — neighbors are detached draw-free; ``tracker`` then draws
  exactly one replacement uniform per ex-neighbor (in detached-row order)
  when at least two peers remain.

Because the adjacency table is part of :meth:`OverlayState.capture` /
:meth:`OverlayState.restore`, format-2 snapshots remain exact under
overlays; block-size invariance is inherited from the draw buffer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import numpy as np

from .drawbuf import DrawBuffer

#: Every overlay generator the spec accepts.  ``complete`` is the legacy
#: uniform-contact model: the kernels recognise it and build no overlay at
#: all, so it is bit-identical to the pre-topology code path.
TOPOLOGY_KINDS = (
    "complete",
    "k-regular",
    "random-regular",
    "scale-free",
    "tracker",
    "partitioned",
)


@dataclass(frozen=True)
class TopologySpec:
    """Declarative description of a contact overlay.

    Parameters
    ----------
    kind:
        One of :data:`TOPOLOGY_KINDS`.
    degree:
        Target neighbor count a peer wires up at arrival (``k-regular``
        links to the ``degree // 2`` slots immediately below; ``scale-free``
        attaches ``max(1, degree // 2)`` preferential edges).
    max_degree:
        Hard per-peer neighbor-list bound (the adjacency row width).
        Defaults to ``2 * degree``; links beyond it are dropped.
    num_components:
        ``partitioned`` only — number of weakly-bridged components
        (arrivals are assigned round-robin).
    bridge_prob:
        ``partitioned`` only — probability that one wiring draw reaches
        across components instead of inside the arrival's own component.
    """

    kind: str = "complete"
    degree: int = 8
    max_degree: Optional[int] = None
    num_components: int = 2
    bridge_prob: float = 0.05

    def __post_init__(self) -> None:
        if self.kind not in TOPOLOGY_KINDS:
            raise ValueError(
                f"unknown topology kind {self.kind!r}; expected one of "
                f"{', '.join(TOPOLOGY_KINDS)}"
            )
        if self.degree < 1:
            raise ValueError(f"degree must be >= 1, got {self.degree}")
        if self.max_degree is not None and self.max_degree < self.degree:
            raise ValueError(
                f"max_degree ({self.max_degree}) must be >= degree "
                f"({self.degree})"
            )
        if self.num_components < 1:
            raise ValueError(
                f"num_components must be >= 1, got {self.num_components}"
            )
        if not 0.0 <= self.bridge_prob <= 1.0:
            raise ValueError(
                f"bridge_prob must be in [0, 1], got {self.bridge_prob}"
            )

    @property
    def is_complete(self) -> bool:
        return self.kind == "complete"

    @property
    def effective_max_degree(self) -> int:
        return self.max_degree if self.max_degree is not None else 2 * self.degree


class OverlayState:
    """Slot-indexed adjacency state for one swarm (see module docstring).

    ``adj`` is a ``(capacity, max_degree)`` ``int32`` matrix whose row ``s``
    holds the neighbor slots of population slot ``s`` in its first
    ``deg[s]`` entries (unused entries are ``-1``).  Rows move with the
    kernels' swap-remove discipline: removing slot ``s`` detaches it, moves
    the last slot's row into ``s`` and renames the moved slot inside each
    neighbor's row — every step O(degree).
    """

    __slots__ = (
        "spec",
        "kind",
        "degree",
        "max_degree",
        "n",
        "edges",
        "arrivals",
        "adj",
        "deg",
        "component",
        "_comp_members",
        "_comp_pos",
    )

    def __init__(self, spec: TopologySpec, capacity: int = 16):
        if spec.is_complete:
            raise ValueError(
                "the 'complete' topology is the legacy uniform-contact path; "
                "it does not build an OverlayState"
            )
        self.spec = spec
        self.kind = spec.kind
        self.degree = spec.degree
        self.max_degree = spec.effective_max_degree
        self.n = 0
        self.edges = 0
        self.arrivals = 0
        cap = max(capacity, 16)
        self.adj = np.full((cap, self.max_degree), -1, dtype=np.int32)
        self.deg = np.zeros(cap, dtype=np.int32)
        if spec.kind == "partitioned":
            self.component: Optional[np.ndarray] = np.full(cap, -1, dtype=np.int32)
            self._comp_members: Optional[List[List[int]]] = [
                [] for _ in range(spec.num_components)
            ]
            self._comp_pos: Optional[np.ndarray] = np.full(cap, -1, dtype=np.int32)
        else:
            self.component = None
            self._comp_members = None
            self._comp_pos = None

    # -- capacity ------------------------------------------------------------

    def _grow(self, need: int) -> None:
        cap = self.adj.shape[0]
        new_cap = max(cap * 2, need)
        adj = np.full((new_cap, self.max_degree), -1, dtype=np.int32)
        adj[:cap] = self.adj
        self.adj = adj
        deg = np.zeros(new_cap, dtype=np.int32)
        deg[:cap] = self.deg
        self.deg = deg
        if self.component is not None:
            component = np.full(new_cap, -1, dtype=np.int32)
            component[:cap] = self.component
            self.component = component
            comp_pos = np.full(new_cap, -1, dtype=np.int32)
            comp_pos[:cap] = self._comp_pos
            self._comp_pos = comp_pos

    # -- edge primitives -----------------------------------------------------

    def _link(self, a: int, b: int) -> bool:
        """Add the undirected edge (a, b) unless duplicate or over-degree."""
        deg = self.deg
        da = int(deg[a])
        db = int(deg[b])
        if da >= self.max_degree or db >= self.max_degree:
            return False
        row = self.adj[a]
        for i in range(da):
            if row[i] == b:
                return False
        row[da] = b
        self.adj[b, db] = a
        deg[a] = da + 1
        deg[b] = db + 1
        self.edges += 1
        return True

    def _drop_edge_ref(self, node: int, other: int) -> None:
        d = int(self.deg[node])
        row = self.adj[node]
        for i in range(d):
            if row[i] == other:
                row[i] = row[d - 1]
                row[d - 1] = -1
                self.deg[node] = d - 1
                return
        raise AssertionError(
            f"overlay inconsistency: slot {other} missing from the neighbor "
            f"row of slot {node}"
        )

    def _rename_ref(self, node: int, old: int, new: int) -> None:
        d = int(self.deg[node])
        row = self.adj[node]
        for i in range(d):
            if row[i] == old:
                row[i] = new
                return
        raise AssertionError(
            f"overlay inconsistency: slot {old} missing from the neighbor "
            f"row of slot {node}"
        )

    def _comp_remove(self, slot: int) -> None:
        comp = int(self.component[slot])
        pos = int(self._comp_pos[slot])
        members = self._comp_members[comp]
        last_member = members[-1]
        members[pos] = last_member
        self._comp_pos[last_member] = pos
        members.pop()
        self.component[slot] = -1
        self._comp_pos[slot] = -1

    # -- lifecycle hooks -----------------------------------------------------

    def on_arrival(self, slot: int, draws: DrawBuffer) -> None:
        """Wire the peer that just joined at ``slot`` (== population - 1)."""
        if slot >= self.adj.shape[0]:
            self._grow(slot + 1)
        n = slot + 1
        self.n = n
        self.deg[slot] = 0
        self.adj[slot] = -1
        self.arrivals += 1
        kind = self.kind
        if kind == "k-regular":
            # Ring-lattice wiring is draw-free: link to the slots immediately
            # below, half the target degree each side of the "ring".
            half = max(1, self.degree // 2)
            for offset in range(1, half + 1):
                other = slot - offset
                if other < 0:
                    break
                self._link(slot, other)
        elif kind == "partitioned":
            comp_index = (self.arrivals - 1) % self.spec.num_components
            if n >= 2:
                bridge = self.spec.bridge_prob
                members = self._comp_members[comp_index]
                for _ in range(self.degree):
                    u = draws.next()
                    if u < bridge:
                        # Remap the accepted uniform back onto [0, 1): one
                        # draw decides both bridge-vs-local and the target.
                        v = u / bridge
                        cand = int(v * (n - 1))
                        if cand >= n - 1:
                            cand = n - 2
                    else:
                        if not members:
                            continue  # draw consumed; no local candidate yet
                        v = (u - bridge) / (1.0 - bridge) if bridge < 1.0 else 0.0
                        idx = int(v * len(members))
                        if idx >= len(members):
                            idx = len(members) - 1
                        cand = members[idx]
                    self._link(slot, cand)
            self.component[slot] = comp_index
            self._comp_pos[slot] = len(self._comp_members[comp_index])
            self._comp_members[comp_index].append(slot)
        elif kind == "scale-free":
            if n >= 2:
                # Barabási–Albert-style: each of m edges picks an existing
                # slot with probability proportional to degree + 1 (the +1
                # smoothing keeps isolated slots reachable).  Weights are
                # recomputed between draws, so edges made during this
                # arrival already attract the next draw.
                m = max(1, self.degree // 2)
                for _ in range(m):
                    u = draws.next()
                    weights = self.deg[: n - 1].astype(np.float64)
                    weights += 1.0
                    cum = np.cumsum(weights)
                    cand = int(np.searchsorted(cum, u * cum[-1], side="right"))
                    if cand >= n - 1:
                        cand = n - 2
                    self._link(slot, cand)
        else:  # random-regular, tracker: uniform sample of existing slots
            if n >= 2:
                for _ in range(self.degree):
                    cand = draws.integers(n - 1)
                    self._link(slot, cand)

    def on_departure(self, slot: int, draws: DrawBuffer) -> None:
        """Detach ``slot``, move the last slot into it, and (tracker only)
        rewire the departed peer's ex-neighbors."""
        n_before = self.n
        last = n_before - 1
        adj = self.adj
        deg = self.deg
        ex_neighbors = [int(x) for x in adj[slot, : deg[slot]]]
        for neighbor in ex_neighbors:
            self._drop_edge_ref(neighbor, slot)
        self.edges -= len(ex_neighbors)
        deg[slot] = 0
        adj[slot] = -1
        if self.component is not None:
            self._comp_remove(slot)
        if slot != last:
            d_last = int(deg[last])
            adj[slot, :d_last] = adj[last, :d_last]
            adj[slot, d_last:] = -1
            deg[slot] = d_last
            for i in range(d_last):
                self._rename_ref(int(adj[slot, i]), last, slot)
            deg[last] = 0
            adj[last] = -1
            if self.component is not None:
                comp = int(self.component[last])
                self.component[slot] = comp
                pos = int(self._comp_pos[last])
                self._comp_members[comp][pos] = slot
                self._comp_pos[slot] = pos
                self.component[last] = -1
                self._comp_pos[last] = -1
            ex_neighbors = [
                slot if neighbor == last else neighbor
                for neighbor in ex_neighbors
            ]
        self.n = n_before - 1
        if self.kind == "tracker" and self.n >= 2:
            # Churn-driven rewiring: each orphaned peer re-samples one
            # tracker candidate — exactly one uniform per ex-neighbor, in
            # detached-row order, whether or not the link succeeds.
            n_after = self.n
            for orphan in ex_neighbors:
                cand = draws.integers(n_after)
                if cand != orphan:
                    self._link(orphan, cand)

    # -- contact sampling ----------------------------------------------------

    def draw_target(self, ticker_slot: int, u: float) -> int:
        """The contact target of ``ticker_slot`` for one uniform ``u``, or
        ``-1`` when the ticker has no neighbors (the tick is wasted; the
        uniform is consumed by the caller either way)."""
        d = int(self.deg[ticker_slot])
        if d == 0:
            return -1
        idx = int(u * d)
        if idx >= d:
            idx = d - 1
        return int(self.adj[ticker_slot, idx])

    def neighbors(self, slot: int) -> List[int]:
        """The neighbor slots of ``slot`` (row order, a copy)."""
        return [int(x) for x in self.adj[slot, : self.deg[slot]]]

    # -- snapshots -----------------------------------------------------------

    def capture(self) -> Dict[str, Any]:
        n = self.n
        state: Dict[str, Any] = {
            "kind": self.kind,
            "n": n,
            "edges": self.edges,
            "arrivals": self.arrivals,
            "adj": self.adj[:n].copy(),
            "deg": self.deg[:n].copy(),
        }
        if self.component is not None:
            state["component"] = self.component[:n].copy()
            state["comp_members"] = [list(m) for m in self._comp_members]
            state["comp_pos"] = self._comp_pos[:n].copy()
        return state

    def check_restorable(self, state: Dict[str, Any]) -> None:
        """Raise ``ValueError`` unless :meth:`restore` accepts ``state``."""
        if state["kind"] != self.kind:
            raise ValueError(
                f"snapshot overlay kind {state['kind']!r} does not match the "
                f"configured topology {self.kind!r}"
            )

    def restore(self, state: Dict[str, Any]) -> None:
        self.check_restorable(state)
        n = int(state["n"])
        if n > self.adj.shape[0]:
            self._grow(n)
        self.n = n
        self.edges = int(state["edges"])
        self.arrivals = int(state["arrivals"])
        self.adj[:n] = state["adj"]
        self.adj[n:] = -1
        self.deg[:n] = state["deg"]
        self.deg[n:] = 0
        if self.component is not None:
            self.component[:n] = state["component"]
            self.component[n:] = -1
            self._comp_members = [list(m) for m in state["comp_members"]]
            self._comp_pos[:n] = state["comp_pos"]
            self._comp_pos[n:] = -1


def build_overlay(spec: Optional[TopologySpec], capacity: int = 16) -> Optional[OverlayState]:
    """The overlay for a spec, or ``None`` for no spec / ``complete``."""
    if spec is None or spec.is_complete:
        return None
    return OverlayState(spec, capacity=capacity)


__all__ = [
    "OverlayState",
    "TOPOLOGY_KINDS",
    "TopologySpec",
    "build_overlay",
]
