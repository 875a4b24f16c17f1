"""Piece-selection policies (Theorem 14 / Section VIII-A).

A policy decides which piece an uploader transfers to a contacted peer.  The
only restriction Theorem 14 places on a policy is the *usefulness constraint*:
if the uploader holds any piece the downloader needs, a needed piece must be
transferred.  The stability region is then the same as for random useful
selection.

Implemented policies:

* :class:`RandomUsefulSelection` — the paper's baseline: a uniformly random
  piece among those the downloader needs;
* :class:`RarestFirstSelection` — BitTorrent-style: the needed piece with the
  fewest copies in the current population (ties broken uniformly);
* :class:`MostCommonFirstSelection` — adversarial counterpart of rarest-first,
  used to show insensitivity from the other side;
* :class:`SequentialSelection` — the lowest-numbered needed piece (in-order
  streaming-style download);
* :class:`CallablePolicy` — wraps an arbitrary ``h(A, B, x)``-style function.

Every policy implements one primitive,
``select_piece_mask(downloader_mask, uploader_mask, view, rng)``: masks are
plain Python ints with bit ``i-1`` set iff piece ``i`` is held.  Both
simulation backends reach a policy only through that primitive (the object
simulator through the base class's ``select_piece``, which converts its
:class:`~repro.core.types.PieceSet` arguments to masks), so a policy consumes
the draw stream identically on either backend — which is what makes the two
backends trajectory-equivalent under a shared seed.  The built-ins are pure
integer bit twiddling and check usefulness before drawing
(``rng_free_when_useless``), which licenses the array kernel's batch stage.

Each policy receives a :class:`SwarmView` whose ``census`` attribute — a
:class:`CensusSource` — gives read-only access to the piece-frequency census
of the current population so that global policies (rarest first) can be
expressed.  The default :class:`OracleCensus` serves the exact global counts;
a :class:`~repro.swarm.gossip.GossipCensus` serves the contacting peer's
flow-updating *estimate* instead (see :mod:`repro.swarm.gossip`), and
well-behaved policies read counts only through ``view.census.count(k)`` so
they work under either.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..core.types import PieceSet


class CensusSource(abc.ABC):
    """How a policy sees the piece-frequency census of the swarm.

    ``count(k)`` is the (possibly estimated) number of peers currently
    holding piece ``k``; ``counts_array()`` is the full 0-indexed vector
    (entry ``k-1`` for piece ``k``); ``staleness()`` is how old the served
    information is in simulation time — exactly ``0.0`` for the oracle,
    the focused peer's time-since-last-update for a gossip estimate.
    Counts are exact ints under :class:`OracleCensus` and floats under
    :class:`~repro.swarm.gossip.GossipCensus`; policies should only
    compare/rank them, never assume integrality.
    """

    __slots__ = ()

    @abc.abstractmethod
    def count(self, piece: int) -> float:
        """Number of peers currently holding ``piece`` (possibly estimated)."""

    @abc.abstractmethod
    def counts_array(self) -> np.ndarray:
        """The full piece-frequency vector (float64, entry ``k-1`` = piece ``k``)."""

    @abc.abstractmethod
    def staleness(self) -> float:
        """Age of the served census in simulation time (0.0 = exact)."""


class OracleCensus(CensusSource):
    """The exact global census (the historical behaviour and the default).

    Wraps the simulator's live piece-count mapping — reads always reflect
    the population at the instant of the policy call, so staleness is
    identically ``0.0``.
    """

    __slots__ = ("_counts",)

    def __init__(self, piece_counts: Mapping[int, int]) -> None:
        self._counts = piece_counts

    def count(self, piece: int) -> int:
        return self._counts.get(piece, 0)

    def counts_array(self) -> np.ndarray:
        counts = self._counts
        return np.array(
            [counts.get(k, 0) for k in range(1, len(counts) + 1)], dtype=np.float64
        )

    def staleness(self) -> float:
        return 0.0


@dataclass
class SwarmView:
    """Read-only snapshot handed to piece-selection policies.

    Attributes
    ----------
    num_pieces:
        Number of pieces ``K``.
    census:
        The :class:`CensusSource` serving piece-frequency reads — the exact
        :class:`OracleCensus` by default, a
        :class:`~repro.swarm.gossip.GossipCensus` when the scenario runs a
        gossip census.  ``census.count(k)`` is the number of peers holding
        piece ``k`` as this census knows it.
    total_peers:
        Current population size.
    time:
        Current simulation time.
    class_counts:
        Per-class population sizes when the simulation runs a heterogeneous
        :class:`~repro.core.scenario.ScenarioSpec` (index ``c`` is the number
        of live class-``c`` peers); ``None`` in a homogeneous swarm.

    Notes
    -----
    Policies must treat the view as read-only and must not hold on to it
    beyond the duration of one ``select_piece_mask`` call: for speed, both
    simulation backends reuse a single live view whose fields (including the
    census) are updated in place between events.  Under an oracle census the
    simulators wrap the count mapping in a read-only ``MappingProxyType``, so
    a policy that tries to mutate it raises ``TypeError``.
    """

    num_pieces: int
    census: CensusSource
    total_peers: int
    time: float
    class_counts: Optional[Tuple[int, ...]] = None

    def piece_count(self, piece: int) -> float:
        """Number of peers currently holding ``piece`` per the census."""
        return self.census.count(piece)


def _mask_bits(mask: int) -> List[int]:
    """1-based indices of the set bits of ``mask``, ascending."""
    bits = []
    piece = 1
    while mask:
        if mask & 1:
            bits.append(piece)
        mask >>= 1
        piece += 1
    return bits


class PieceSelectionPolicy(abc.ABC):
    """Interface for piece-selection policies.

    The ``rng`` handed to a policy is the simulator's blocked
    :class:`~repro.swarm.drawbuf.DrawBuffer`, which implements the slice of
    the ``numpy.random.Generator`` API the built-in policies use
    (``integers`` / ``random`` / ``uniform`` / ``choice``); custom policies
    must restrict themselves to those methods so that both simulation
    backends keep consuming the draw stream identically.
    """

    name = "abstract"

    #: True when the policy is guaranteed not to consume the RNG on a
    #: contact with no useful piece (it returns ``None`` before drawing).
    #: The array kernel's vectorized batch stage only engages for such
    #: policies; the conservative default keeps custom subclasses on the
    #: scalar path unless they opt in.
    rng_free_when_useless = False

    @abc.abstractmethod
    def select_piece_mask(
        self,
        downloader_mask: int,
        uploader_mask: int,
        view: SwarmView,
        rng: np.random.Generator,
    ) -> Optional[int]:
        """Choose the piece to transfer, or None when no useful piece exists.

        Masks have bit ``i-1`` set iff piece ``i`` is held.  Implementations
        must satisfy the usefulness constraint: whenever the uploader holds a
        piece the downloader needs, a needed piece is returned.
        """

    def select_piece(
        self,
        downloader_pieces: PieceSet,
        uploader_pieces: PieceSet,
        view: SwarmView,
        rng: np.random.Generator,
    ) -> Optional[int]:
        """:class:`~repro.core.types.PieceSet` form of :meth:`select_piece_mask`."""
        return self.select_piece_mask(
            downloader_pieces.mask, uploader_pieces.mask, view, rng
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class RandomUsefulSelection(PieceSelectionPolicy):
    """Uniformly random useful piece (the paper's baseline policy)."""

    name = "random-useful"
    rng_free_when_useless = True

    def select_piece_mask(
        self,
        downloader_mask: int,
        uploader_mask: int,
        view: SwarmView,
        rng: np.random.Generator,
    ) -> Optional[int]:
        useful = uploader_mask & ~downloader_mask
        if not useful:
            return None
        # Clear the lowest set bits up to the drawn one; its 1-based position
        # is the piece.
        index = int(rng.integers(useful.bit_count()))
        while index:
            useful &= useful - 1
            index -= 1
        return (useful & -useful).bit_length()


class RarestFirstSelection(PieceSelectionPolicy):
    """Transfer the useful piece with the fewest copies in the population."""

    name = "rarest-first"
    rng_free_when_useless = True

    def select_piece_mask(
        self,
        downloader_mask: int,
        uploader_mask: int,
        view: SwarmView,
        rng: np.random.Generator,
    ) -> Optional[int]:
        useful = uploader_mask & ~downloader_mask
        if not useful:
            return None
        pieces = _mask_bits(useful)
        counts = [view.census.count(piece) for piece in pieces]
        rarest = min(counts)
        candidates = [piece for piece, count in zip(pieces, counts) if count == rarest]
        return int(candidates[rng.integers(len(candidates))])


class MostCommonFirstSelection(PieceSelectionPolicy):
    """Transfer the useful piece with the *most* copies (worst-case diversity)."""

    name = "most-common-first"
    rng_free_when_useless = True

    def select_piece_mask(
        self,
        downloader_mask: int,
        uploader_mask: int,
        view: SwarmView,
        rng: np.random.Generator,
    ) -> Optional[int]:
        useful = uploader_mask & ~downloader_mask
        if not useful:
            return None
        pieces = _mask_bits(useful)
        counts = [view.census.count(piece) for piece in pieces]
        most = max(counts)
        candidates = [piece for piece, count in zip(pieces, counts) if count == most]
        return int(candidates[rng.integers(len(candidates))])


class SequentialSelection(PieceSelectionPolicy):
    """Transfer the lowest-numbered useful piece (in-order download)."""

    name = "sequential"
    rng_free_when_useless = True

    def select_piece_mask(
        self,
        downloader_mask: int,
        uploader_mask: int,
        view: SwarmView,
        rng: np.random.Generator,
    ) -> Optional[int]:
        useful = uploader_mask & ~downloader_mask
        if not useful:
            return None
        return (useful & -useful).bit_length()


class CallablePolicy(PieceSelectionPolicy):
    """Adapt an arbitrary function into a policy.

    The function receives the downloader's pieces, the uploader's pieces (as
    :class:`~repro.core.types.PieceSet`), the swarm view and an RNG, and must
    return a needed piece (or raise).  Census-aware callables read piece
    frequencies through ``view.census.count(k)``::

        def prefer_rare_evens(downloader, uploader, view, rng):
            useful = sorted(downloader.useful_from(uploader))
            evens = [k for k in useful if k % 2 == 0] or useful
            return min(evens, key=lambda k: view.census.count(k))

        policy = CallablePolicy(prefer_rare_evens, name="rare-evens")

    :meth:`select_piece_mask` checks usefulness on the masks first and
    returns ``None`` on a useless contact without calling the function (so
    without drawing); only a useful contact builds the two ``PieceSet``
    arguments.  The returned piece is checked against the useful set, so a
    buggy function cannot violate the Theorem-14 constraint silently.
    """

    rng_free_when_useless = True

    def __init__(
        self,
        func: Callable[[PieceSet, PieceSet, SwarmView, np.random.Generator], int],
        name: str = "custom",
    ):
        self._func = func
        self.name = name

    def select_piece_mask(
        self,
        downloader_mask: int,
        uploader_mask: int,
        view: SwarmView,
        rng: np.random.Generator,
    ) -> Optional[int]:
        useful = uploader_mask & ~downloader_mask
        if not useful:
            return None
        num_pieces = view.num_pieces
        piece = int(
            self._func(
                PieceSet.from_mask(downloader_mask, num_pieces),
                PieceSet.from_mask(uploader_mask, num_pieces),
                view,
                rng,
            )
        )
        if piece < 1 or not useful >> (piece - 1) & 1:
            raise ValueError(
                f"policy {self.name!r} selected piece {piece}, which is not useful "
                f"(useful pieces: {_mask_bits(useful)})"
            )
        return piece


_POLICY_REGISTRY: Dict[str, Callable[[], PieceSelectionPolicy]] = {
    "random-useful": RandomUsefulSelection,
    "rarest-first": RarestFirstSelection,
    "most-common-first": MostCommonFirstSelection,
    "sequential": SequentialSelection,
}


def make_policy(name: str) -> PieceSelectionPolicy:
    """Construct a registered policy by name."""
    try:
        factory = _POLICY_REGISTRY[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown policy {name!r}; known policies: {sorted(_POLICY_REGISTRY)}"
        ) from exc
    return factory()


def registered_policies() -> List[str]:
    """Names of all built-in piece-selection policies."""
    return sorted(_POLICY_REGISTRY)


__all__ = [
    "CensusSource",
    "OracleCensus",
    "SwarmView",
    "PieceSelectionPolicy",
    "RandomUsefulSelection",
    "RarestFirstSelection",
    "MostCommonFirstSelection",
    "SequentialSelection",
    "CallablePolicy",
    "make_policy",
    "registered_policies",
]
