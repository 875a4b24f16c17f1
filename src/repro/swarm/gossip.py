"""Flow-updating gossip census: decentralised piece-frequency estimates.

Every other census in this repo is an oracle: policies read the exact
global piece counts through :class:`~repro.swarm.policies.OracleCensus`.
Real swarm clients have no such oracle — they estimate piece rarity from
neighbor gossip.  This module provides that estimator as an in-simulation
aggregation protocol in the *flow-updating* family (Jesus, Baquero &
Almeida): each peer keeps a local estimate of the mean piece-indicator
vector, and on contact ticks a pair of peers moves flow between their
estimates so both converge toward the population average.  Multiplying
the (clamped) average estimate by the live population size recovers an
estimated piece-frequency vector, which
:class:`~repro.swarm.policies.SwarmView` exposes to policies through the
``view.census`` seam.

Flow-updating bookkeeping, aggregated
-------------------------------------
The textbook protocol stores one flow per (peer, neighbor) edge and
derives the estimate as ``value - sum(flows)``.  Because our exchanges
are symmetric pairwise averages over *contact* edges (which the overlay
resamples constantly), per-edge flows collapse: only the aggregate flow
``f_i`` matters, and ``est_i = v_i - f_i`` means storing ``est_i``
directly is the same protocol with the flow matrix implicit.  Piece
receipt changes the peer's own value ``v_i`` (flow untouched), so the
estimate moves by the same indicator delta — exactly what
:meth:`GossipState.on_piece` applies.  Mass conservation holds: every
exchange moves equal and opposite flow, so the population's summed
estimate equals the summed true indicator vector (churn aside — a
departing peer takes its flow imbalance with it, the usual flow-updating
churn loss).

Draw-stream contract
--------------------
One uniform per stochastic choice from the shared
:class:`~repro.swarm.drawbuf.DrawBuffer`: when gossip is active, every
*peer* contact tick consumes exactly one extra uniform — drawn after the
ticker/target draws, before the transfer — regardless of whether the
exchange fires (self-contacts and zero-degree overlay ticks included),
so the per-event draw count stays a pure function of the event type.
The exchange itself executes only when the uniform clears the exchange
rate *and* the contact has a valid distinct partner.  Seed ticks never
gossip (the fixed seed is not a peer slot).  Everything else in this
module is draw-free, so object/array bit-identity, ``DRAW_BLOCK_SIZE``
invariance and snapshot exactness all carry over from the driver.

Slot discipline mirrors :mod:`repro.swarm.topology`: row ``i`` of the
estimate matrix is the peer in backend slot ``i`` (object ``_order[i]``,
array row ``i``), maintained by identical append / swap-remove moves, so
one :class:`GossipState` implementation serves both backends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional

import numpy as np

from .policies import CensusSource

#: Census kinds accepted by :class:`CensusSpec` (and, as strings, by
#: ``ScenarioSpec(census=...)``).
CENSUS_KINDS = ("oracle", "gossip")

#: Default probability that a peer contact tick triggers a gossip
#: exchange.
DEFAULT_EXCHANGE_RATE = 0.35

#: Default averaging step of an exchange (1.0 = full pairwise average).
DEFAULT_DAMPING = 1.0


@dataclass(frozen=True)
class CensusSpec:
    """How policies see the piece-frequency census of a swarm.

    ``kind="oracle"`` is the exact global census (the historical
    behaviour and the default); ``kind="gossip"`` replaces it with the
    flow-updating estimator of this module.  ``exchange_rate`` is the
    probability that a peer contact tick performs an exchange with its
    contact target; ``damping`` scales the averaging step (``1.0`` is a
    full pairwise average, smaller values move both estimates only part
    of the way).  Frozen and hashable so scenario specs carrying it stay
    usable as dict keys and pickle cleanly across fleet workers.
    """

    kind: str = "oracle"
    exchange_rate: float = DEFAULT_EXCHANGE_RATE
    damping: float = DEFAULT_DAMPING

    def __post_init__(self) -> None:
        if self.kind not in CENSUS_KINDS:
            raise ValueError(
                f"unknown census kind {self.kind!r}; expected one of {CENSUS_KINDS}"
            )
        if not 0.0 <= self.exchange_rate <= 1.0:
            raise ValueError(
                f"exchange_rate must be in [0, 1], got {self.exchange_rate}"
            )
        if not 0.0 < self.damping <= 1.0:
            raise ValueError(
                f"damping must be in (0, 1], got {self.damping}"
            )

    @property
    def is_oracle(self) -> bool:
        return self.kind == "oracle"

    @classmethod
    def oracle(cls) -> "CensusSpec":
        """The exact-census default."""
        return cls(kind="oracle")

    @classmethod
    def gossip(
        cls,
        exchange_rate: float = DEFAULT_EXCHANGE_RATE,
        damping: float = DEFAULT_DAMPING,
    ) -> "CensusSpec":
        """A flow-updating gossip census with the given knobs."""
        return cls(kind="gossip", exchange_rate=exchange_rate, damping=damping)

    @classmethod
    def coerce(cls, value: "CensusSpec | str") -> "CensusSpec":
        """Normalise a ``census=`` field value (spec or kind name)."""
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls(kind=value)
        raise TypeError(
            f"census must be a CensusSpec or a kind name from {CENSUS_KINDS}, "
            f"got {value!r}"
        )

    def describe(self) -> str:
        if self.is_oracle:
            return "exact oracle census"
        return (
            f"gossip census (exchange_rate={self.exchange_rate:g}, "
            f"damping={self.damping:g})"
        )


class GossipState:
    """Per-swarm flow-updating state, shared verbatim by both backends.

    Row ``i`` of ``est`` is slot ``i``'s local estimate of the population
    mean piece-indicator vector (``K`` floats); ``last_update[i]`` is the
    simulation time of that slot's last estimate change (arrival, piece
    receipt or exchange), which grounds the staleness metric.  All
    methods are draw-free — the *caller* (the shared driver) owns the one
    uniform per contact tick that decides whether :meth:`exchange` runs.
    """

    __slots__ = (
        "num_pieces",
        "exchange_rate",
        "damping",
        "n",
        "exchanges",
        "est",
        "last_update",
        "_bits",
        "_focus_slot",
        "_focus_total",
        "_focus_time",
    )

    def __init__(self, spec: CensusSpec, num_pieces: int, capacity: int = 16) -> None:
        if spec.is_oracle:
            raise ValueError("GossipState requires a gossip CensusSpec")
        capacity = max(int(capacity), 1)
        self.num_pieces = num_pieces
        self.exchange_rate = spec.exchange_rate
        self.damping = spec.damping
        self.n = 0
        self.exchanges = 0
        self.est = np.zeros((capacity, num_pieces), dtype=np.float64)
        self.last_update = np.zeros(capacity, dtype=np.float64)
        self._bits = np.arange(num_pieces, dtype=np.uint64)
        # Focus defaults to slot 0 (a zero row before any arrival), so a
        # census read outside a transfer context degrades to zeros
        # instead of crashing.
        self._focus_slot = 0
        self._focus_total = 0
        self._focus_time = 0.0

    # ------------------------------------------------------------------
    # Capacity

    def _grow(self, need: int) -> None:
        capacity = len(self.last_update)
        if need <= capacity:
            return
        while capacity < need:
            capacity *= 2
        est = np.zeros((capacity, self.num_pieces), dtype=np.float64)
        est[: self.n] = self.est[: self.n]
        last_update = np.zeros(capacity, dtype=np.float64)
        last_update[: self.n] = self.last_update[: self.n]
        self.est = est
        self.last_update = last_update

    def _indicator(self, mask: int) -> np.ndarray:
        """The piece-indicator vector of a collection bitmask."""
        return ((np.uint64(mask) >> self._bits) & np.uint64(1)).astype(np.float64)

    # ------------------------------------------------------------------
    # Membership (same append / swap-remove discipline as the backends)

    def on_arrival(self, slot: int, mask: int, time: float) -> None:
        """A peer with collection ``mask`` joined in slot ``slot`` (== n)."""
        self._grow(slot + 1)
        self.n = slot + 1
        self.est[slot] = self._indicator(mask)
        self.last_update[slot] = time

    def on_bulk_arrivals(self, start: int, stop: int, mask: int, time: float) -> None:
        """Vectorised :meth:`on_arrival` for identical-mask pre-seeding.

        Matches a per-slot ``on_arrival`` loop exactly (same values, no
        draws), so the array kernel's bulk ``seed_population`` fill stays
        available under gossip.
        """
        self._grow(stop)
        self.n = stop
        self.est[start:stop] = self._indicator(mask)
        self.last_update[start:stop] = time

    def on_piece(self, slot: int, piece: int, time: float) -> None:
        """Slot ``slot`` received ``piece``: its own value rose by the
        indicator delta, flows untouched, so the estimate rises with it."""
        self.est[slot, piece - 1] += 1.0
        self.last_update[slot] = time

    def on_departure(self, slot: int) -> None:
        """Swap-remove: the last slot's row moves into ``slot``."""
        last = self.n - 1
        if slot != last:
            self.est[slot] = self.est[last]
            self.last_update[slot] = self.last_update[last]
        self.n = last

    # ------------------------------------------------------------------
    # The protocol step

    def exchange(self, a: int, b: int, time: float) -> None:
        """Move flow between slots ``a`` and ``b`` (damped pairwise average).

        Equal and opposite flow deltas keep the summed estimate invariant;
        with ``damping=1.0`` both slots land on their mutual average.
        """
        est = self.est
        delta = est[a] - est[b]
        delta *= 0.5 * self.damping
        est[a] -= delta
        est[b] += delta
        self.last_update[a] = time
        self.last_update[b] = time
        self.exchanges += 1

    # ------------------------------------------------------------------
    # Census reads (the GossipCensus view of the focused slot)

    def focus(self, slot: int, total_peers: int, time: float) -> None:
        """Select the slot whose estimate upcoming census reads serve.

        The driver focuses the *downloader* immediately before every
        policy call, so a policy always sees the census as estimated by
        the peer actually choosing a piece.
        """
        self._focus_slot = slot
        self._focus_total = total_peers
        self._focus_time = time

    def focused_count(self, piece: int) -> float:
        """Estimated number of peers holding ``piece`` (clamped at 0)."""
        value = self.est[self._focus_slot, piece - 1]
        if value < 0.0:
            value = 0.0
        return float(value * self._focus_total)

    def focused_counts(self) -> np.ndarray:
        """Estimated piece-frequency vector of the focused slot."""
        return np.maximum(self.est[self._focus_slot], 0.0) * float(self._focus_total)

    def focused_staleness(self) -> float:
        """Time since the focused slot's estimate last changed."""
        return self._focus_time - float(self.last_update[self._focus_slot])

    # ------------------------------------------------------------------
    # Metrics

    def mean_error(self, piece_counts: Mapping[int, int], total_peers: int) -> float:
        """Mean over live peers of the L1 distance between each peer's
        estimated frequency vector and the true oracle counts."""
        n = self.n
        if n == 0:
            return 0.0
        true = np.array(
            [piece_counts[k] for k in range(1, self.num_pieces + 1)],
            dtype=np.float64,
        )
        est = np.maximum(self.est[:n], 0.0) * float(total_peers)
        return float(np.mean(np.abs(est - true).sum(axis=1)))

    def mean_staleness(self, time: float) -> float:
        """Mean over live peers of the time since their last update."""
        n = self.n
        if n == 0:
            return 0.0
        return time - float(np.mean(self.last_update[:n]))

    # ------------------------------------------------------------------
    # Snapshots

    def capture(self) -> Dict[str, Any]:
        """Freeze the live rows for an exact checkpoint."""
        return {
            "exchange_rate": self.exchange_rate,
            "damping": self.damping,
            "n": self.n,
            "exchanges": self.exchanges,
            "est": self.est[: self.n].copy(),
            "last_update": self.last_update[: self.n].copy(),
        }

    def check_restorable(self, state: Dict[str, Any]) -> None:
        """Raise ``ValueError`` unless :meth:`restore` accepts ``state``."""
        if (
            state["exchange_rate"] != self.exchange_rate
            or state["damping"] != self.damping
        ):
            raise ValueError(
                "snapshot gossip parameters (exchange_rate="
                f"{state['exchange_rate']!r}, damping={state['damping']!r}) do "
                "not match the configured census (exchange_rate="
                f"{self.exchange_rate!r}, damping={self.damping!r})"
            )

    def restore(self, state: Dict[str, Any]) -> None:
        """Restore a :meth:`capture` payload (exact, focus reset)."""
        self.check_restorable(state)
        n = int(state["n"])
        self._grow(n)
        self.n = n
        self.exchanges = int(state["exchanges"])
        self.est[:n] = np.asarray(state["est"], dtype=np.float64).reshape(
            n, self.num_pieces
        )
        self.est[n:] = 0.0
        self.last_update[:n] = np.asarray(state["last_update"], dtype=np.float64)
        self.last_update[n:] = 0.0
        self._focus_slot = 0
        self._focus_total = 0
        self._focus_time = 0.0


class GossipCensus(CensusSource):
    """:class:`~repro.swarm.policies.CensusSource` over a :class:`GossipState`.

    Reads are served from the estimate of the *focused* slot — the
    downloader of the transfer in progress — so each policy call sees
    exactly what that peer's gossip state knows, estimated counts being
    floats (compare :class:`~repro.swarm.policies.OracleCensus`, whose
    counts are exact ints and whose staleness is always ``0.0``).
    """

    __slots__ = ("_state",)

    def __init__(self, state: GossipState) -> None:
        self._state = state

    def count(self, piece: int) -> float:
        return self._state.focused_count(piece)

    def counts_array(self) -> np.ndarray:
        return self._state.focused_counts()

    def staleness(self) -> float:
        return self._state.focused_staleness()


def build_gossip(
    spec: Optional[CensusSpec], num_pieces: int, capacity: int = 16
) -> Optional[GossipState]:
    """Materialise the gossip state for a census spec (``None`` for oracle)."""
    if spec is None or spec.is_oracle:
        return None
    return GossipState(spec, num_pieces, capacity=capacity)


__all__ = [
    "CENSUS_KINDS",
    "DEFAULT_DAMPING",
    "DEFAULT_EXCHANGE_RATE",
    "CensusSpec",
    "GossipCensus",
    "GossipState",
    "build_gossip",
]
