"""Peer-level simulation of the network-coded swarm (Section VIII-B).

Under random linear network coding the "pieces" exchanged are random linear
combinations of the ``K`` data pieces over GF(q); the state of a peer is the
subspace spanned by the coding vectors it has received.  A contacted peer is
sent a uniformly random combination of the uploader's vectors, which is useful
exactly when it increases the dimension of the receiver's subspace.  A peer
departs (or dwells as a peer seed) once its subspace reaches dimension ``K``.

The simulator mirrors :class:`repro.swarm.swarm.SwarmSimulator` but with
subspace types, and is used by the E6 benchmark to show that a small fraction
of arrivals carrying one random coded piece stabilises a system that is
transient without coding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..coding.gf import PrimeField
from ..coding.subspace import Subspace
from ..simulation.rng import SeedLike, make_rng
from .metrics import SwarmMetrics, check_sample_grid


@dataclass
class CodedPeer:
    """One peer of the coded swarm; its type is a subspace of GF(q)^K."""

    peer_id: int
    subspace: Subspace
    arrival_time: float
    arrival_dimension: int = 0
    completed_at: Optional[float] = None
    departed_at: Optional[float] = None
    downloads: int = 0
    uploads: int = 0

    @property
    def dimension(self) -> int:
        return self.subspace.dimension

    @property
    def is_seed(self) -> bool:
        return self.subspace.is_full

    def receive_vector(self, vector: np.ndarray, time: float) -> bool:
        """Incorporate a coded piece; returns True when it was innovative."""
        if not self.subspace.is_useful(vector):
            return False
        self.subspace = self.subspace.add_vector(vector)
        self.downloads += 1
        if self.subspace.is_full and self.completed_at is None:
            self.completed_at = time
        return True


@dataclass(frozen=True)
class CodedArrivalSpec:
    """Arrival stream for the coded swarm.

    ``rate`` peers per unit time arrive carrying ``num_coded_pieces``
    independent uniformly random coded pieces each (0 for empty-handed peers).
    """

    rate: float
    num_coded_pieces: int = 0

    def __post_init__(self) -> None:
        if self.rate < 0:
            raise ValueError("rate must be nonnegative")
        if self.num_coded_pieces < 0:
            raise ValueError("num_coded_pieces must be nonnegative")


@dataclass
class CodedSwarmResult:
    """Outcome of one coded-swarm run."""

    metrics: SwarmMetrics
    final_time: float
    final_population: int
    final_min_dimension: int
    horizon_reached: bool


class CodedSwarmSimulator:
    """Event-driven simulation of the network-coded swarm."""

    def __init__(
        self,
        num_pieces: int,
        field_size: int,
        arrivals: Sequence[CodedArrivalSpec],
        seed_rate: float = 0.0,
        peer_rate: float = 1.0,
        seed_departure_rate: float = math.inf,
        seed: SeedLike = None,
    ):
        if num_pieces < 1:
            raise ValueError("num_pieces must be >= 1")
        if peer_rate <= 0:
            raise ValueError("peer_rate must be positive")
        if seed_rate < 0:
            raise ValueError("seed_rate must be nonnegative")
        if not arrivals or all(spec.rate == 0 for spec in arrivals):
            raise ValueError("at least one arrival stream must have positive rate")
        self.num_pieces = num_pieces
        self.field = PrimeField(field_size)
        self.arrivals = list(arrivals)
        self.seed_rate = seed_rate
        self.peer_rate = peer_rate
        self.seed_departure_rate = seed_departure_rate
        self.rng = make_rng(seed)

        self._peers: Dict[int, CodedPeer] = {}
        self._order: List[int] = []
        self._position: Dict[int, int] = {}
        self._seeds: List[int] = []
        self._seed_position: Dict[int, int] = {}
        self._next_peer_id = 0
        self._time = 0.0
        self.metrics = SwarmMetrics()
        self._arrival_rates = np.array([spec.rate for spec in self.arrivals], dtype=float)
        self._arrival_total = float(self._arrival_rates.sum())

    # -- population management -----------------------------------------------------

    @property
    def population(self) -> int:
        return len(self._order)

    @property
    def num_seeds(self) -> int:
        return len(self._seeds)

    @property
    def immediate_departure(self) -> bool:
        return math.isinf(self.seed_departure_rate)

    def peers(self):
        return (self._peers[pid] for pid in self._order)

    def min_dimension(self) -> int:
        """Smallest subspace dimension among current peers (K when empty)."""
        dims = [peer.dimension for peer in self.peers()]
        return min(dims) if dims else self.num_pieces

    def one_club_size(self) -> int:
        """Number of peers whose subspace has dimension exactly ``K − 1``.

        With coding the analogue of the one club is the set of peers one
        innovative piece away from completion (all stuck below the same
        hyperplane in the syndrome state).
        """
        return sum(1 for peer in self.peers() if peer.dimension == self.num_pieces - 1)

    def _add_peer(self, num_coded_pieces: int) -> CodedPeer:
        subspace = Subspace.zero(self.field, self.num_pieces)
        for _ in range(num_coded_pieces):
            vector = self.field.random_vector(self.num_pieces, self.rng)
            if subspace.is_useful(vector):
                subspace = subspace.add_vector(vector)
        peer = CodedPeer(
            peer_id=self._next_peer_id,
            subspace=subspace,
            arrival_time=self._time,
            arrival_dimension=subspace.dimension,
        )
        self._next_peer_id += 1
        self._peers[peer.peer_id] = peer
        self._position[peer.peer_id] = len(self._order)
        self._order.append(peer.peer_id)
        if peer.is_seed and not self.immediate_departure:
            self._add_seed(peer.peer_id)
        self.metrics.total_arrivals += 1
        return peer

    def _remove_peer(self, peer: CodedPeer) -> None:
        pid = peer.peer_id
        index = self._position.pop(pid)
        last_id = self._order[-1]
        self._order[index] = last_id
        self._position[last_id] = index
        self._order.pop()
        del self._peers[pid]
        if pid in self._seed_position:
            self._remove_seed(pid)
        peer.departed_at = self._time
        download_time = (
            peer.completed_at - peer.arrival_time if peer.completed_at is not None else None
        )
        self.metrics.record_departure(
            sojourn=self._time - peer.arrival_time, download_time=download_time
        )

    def _add_seed(self, peer_id: int) -> None:
        self._seed_position[peer_id] = len(self._seeds)
        self._seeds.append(peer_id)

    def _remove_seed(self, peer_id: int) -> None:
        index = self._seed_position.pop(peer_id)
        last_id = self._seeds[-1]
        self._seeds[index] = last_id
        self._seed_position[last_id] = index
        self._seeds.pop()

    # -- events ----------------------------------------------------------------------

    def _event_rates(self) -> Tuple[float, float, float, float]:
        arrival = self._arrival_total
        seed_tick = self.seed_rate if self.population > 0 else 0.0
        peer_tick = self.population * self.peer_rate
        seed_departure = (
            0.0
            if self.immediate_departure
            else self.seed_departure_rate * self.num_seeds
        )
        return arrival, seed_tick, peer_tick, seed_departure

    def _sample_uniform_peer(self) -> CodedPeer:
        index = int(self.rng.integers(self.population))
        return self._peers[self._order[index]]

    def _handle_arrival(self) -> None:
        probabilities = self._arrival_rates / self._arrival_total
        index = int(self.rng.choice(len(self.arrivals), p=probabilities))
        self._add_peer(self.arrivals[index].num_coded_pieces)

    def _upload_random_combination(
        self, source: Subspace, target: CodedPeer, from_seed: bool
    ) -> bool:
        if source.dimension == 0:
            self.metrics.wasted_contacts += 1
            return False
        vector = source.random_vector(self.rng)
        innovative = target.receive_vector(vector, self._time)
        if not innovative:
            self.metrics.wasted_contacts += 1
            return False
        self.metrics.total_downloads += 1
        if from_seed:
            self.metrics.total_seed_uploads += 1
        if target.is_seed:
            if self.immediate_departure:
                self._remove_peer(target)
            else:
                self._add_seed(target.peer_id)
        return True

    def _handle_seed_tick(self) -> None:
        if self.population == 0:
            return
        target = self._sample_uniform_peer()
        full = Subspace.full(self.field, self.num_pieces)
        self._upload_random_combination(full, target, from_seed=True)

    def _handle_peer_tick(self) -> None:
        if self.population == 0:
            return
        uploader = self._sample_uniform_peer()
        target = self._sample_uniform_peer()
        if target.peer_id == uploader.peer_id:
            self.metrics.wasted_contacts += 1
            return
        if self._upload_random_combination(uploader.subspace, target, from_seed=False):
            uploader.uploads += 1

    def _handle_seed_departure(self) -> None:
        if not self._seeds:
            return
        index = int(self.rng.integers(len(self._seeds)))
        self._remove_peer(self._peers[self._seeds[index]])

    def _apply_event(self, rates: Tuple[float, float, float, float]) -> None:
        """Apply one event drawn proportionally to the given rates."""
        total = sum(rates)
        threshold = self.rng.uniform(0.0, total)
        if threshold <= rates[0]:
            self._handle_arrival()
        elif threshold <= rates[0] + rates[1]:
            self._handle_seed_tick()
        elif threshold <= rates[0] + rates[1] + rates[2]:
            self._handle_peer_tick()
        else:
            self._handle_seed_departure()

    def step(self) -> bool:
        rates = self._event_rates()
        total = sum(rates)
        if total <= 0:
            return False
        self._time += float(self.rng.exponential(1.0 / total))
        self._apply_event(rates)
        return True

    def _record_sample(self, sample_time: float) -> None:
        self.metrics.record_samples(
            [sample_time],
            population=self.population,
            num_seeds=self.num_seeds,
            one_club_size=self.one_club_size(),
            min_piece_count=self.min_dimension(),
        )

    def run(
        self,
        horizon: float,
        sample_interval: Optional[float] = None,
        max_events: Optional[int] = None,
        max_population: Optional[int] = None,
    ) -> CodedSwarmResult:
        """Simulate until ``horizon`` with the same safety caps as the uncoded swarm."""
        check_sample_grid(horizon, sample_interval)
        interval = sample_interval if sample_interval is not None else horizon / 200.0
        next_sample = 0.0
        events = 0
        horizon_reached = True
        while True:
            if max_events is not None and events >= max_events:
                horizon_reached = False
                break
            if max_population is not None and self.population >= max_population:
                horizon_reached = False
                break
            rates = self._event_rates()
            total = sum(rates)
            if total <= 0:
                self._time = horizon
                break
            next_event_time = self._time + float(self.rng.exponential(1.0 / total))
            # Record grid points falling before the next event (time-correct).
            while next_sample <= horizon and next_sample < next_event_time:
                self._record_sample(next_sample)
                next_sample += interval
            if next_event_time > horizon:
                self._time = horizon
                break
            self._time = next_event_time
            self._apply_event(rates)
            events += 1
        while next_sample <= horizon:
            self._record_sample(next_sample)
            next_sample += interval
        return CodedSwarmResult(
            metrics=self.metrics,
            final_time=self._time,
            final_population=self.population,
            final_min_dimension=self.min_dimension(),
            horizon_reached=horizon_reached,
        )


def gifted_fraction_arrivals(
    total_rate: float, gifted_fraction: float
) -> Tuple[CodedArrivalSpec, CodedArrivalSpec]:
    """Arrival streams for the Theorem-15 worked example.

    A fraction ``gifted_fraction`` of the arrivals carry one uniformly random
    coded piece; the remainder arrive empty-handed.
    """
    if not 0.0 <= gifted_fraction <= 1.0:
        raise ValueError("gifted_fraction must lie in [0, 1]")
    return (
        CodedArrivalSpec(rate=total_rate * (1.0 - gifted_fraction), num_coded_pieces=0),
        CodedArrivalSpec(rate=total_rate * gifted_fraction, num_coded_pieces=1),
    )


__all__ = [
    "CodedPeer",
    "CodedArrivalSpec",
    "CodedSwarmResult",
    "CodedSwarmSimulator",
    "gifted_fraction_arrivals",
]
