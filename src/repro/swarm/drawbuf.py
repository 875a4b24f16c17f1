"""Blocked uniform-draw buffer: the single RNG tap of the swarm backends.

Every stochastic decision of the two swarm backends — inter-event
exponentials, event-type selection, Poisson-thinning acceptance, class /
peer / piece draws — is taken from one :class:`DrawBuffer` instead of from
scalar :class:`numpy.random.Generator` calls.  The buffer pre-draws uniforms
in blocks via ``Generator.random(block_size)`` and serves them one at a time
(or as whole numpy views, for the array kernel's vectorized batch stage).

Why this preserves determinism
------------------------------
``Generator.random(n)`` consumes the underlying PCG64 stream *identically*
to ``n`` scalar ``Generator.random()`` calls: each double eats exactly one
64-bit output.  Draw number ``k`` of a simulation therefore reads the same
stream position — and yields the same value — for **every** block size,
so blocked (default 4096) and scalar (``DRAW_BLOCK_SIZE=1``) runs are
bit-identical by construction, and both simulation backends stay
trajectory-equivalent per seed because they share this module's draw
semantics:

* ``uniform(high)`` is ``high * u`` (what ``Generator.uniform(0, high)``
  computes from one double);
* ``exponential(scale)`` is the inverse transform ``scale * -log1p(-u)``
  (one double, vectorized per block — numpy's default ziggurat method
  consumes a data-dependent number of raw draws and cannot be buffered);
* ``integers(n)`` is ``min(int(u * n), n - 1)`` (one double; numpy's
  Lemire rejection sampler consumes a variable number of raw draws).

The per-block exponential transform ``-log1p(-u)`` is computed **once**,
vectorized, on refill; scalar and batched consumers read the same
precomputed values, so no scalar-vs-SIMD libm discrepancy can creep in.

Storage
-------
The numpy block (uniforms and exponentials) is the one store: the
vectorized views and :meth:`DrawBuffer.capture` slice it.  Scalar reads go
through two zero-copy ``memoryview`` objects over the same two arrays,
bound once per block, because indexing a memoryview yields a plain Python
float at about half the cost of ``ndarray.item``.  The memoryviews never
leave the buffer: snapshots copy the numpy remainder.

Snapshots
---------
A buffer holds look-ahead state: the generator has already been advanced to
the end of the current block while the simulation has only consumed a
prefix.  :meth:`capture` therefore records the un-consumed remainder of the
block (the generator state itself is captured by the simulator snapshot);
:meth:`restore` replays that remainder before drawing fresh blocks, so a
run restored mid-block continues bit-identically at any block size.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Optional, Sequence

import numpy as np

#: Default number of uniforms pre-drawn per block.
DEFAULT_BLOCK_SIZE = 4096

#: Environment variable overriding the default block size (CI runs the
#: kernel-equivalence suite with ``DRAW_BLOCK_SIZE=1`` to pin the blocked
#: stream to the scalar one).
BLOCK_SIZE_ENV = "DRAW_BLOCK_SIZE"


def default_block_size() -> int:
    """The block size to use when none is given (honours ``DRAW_BLOCK_SIZE``)."""
    raw = os.environ.get(BLOCK_SIZE_ENV)
    if raw is None or raw.strip() == "":
        return DEFAULT_BLOCK_SIZE
    try:
        value = int(raw)
    except ValueError as error:
        raise ValueError(
            f"{BLOCK_SIZE_ENV} must be a positive integer, got {raw!r}"
        ) from error
    if value < 1:
        raise ValueError(f"{BLOCK_SIZE_ENV} must be >= 1, got {value}")
    return value


class DrawBuffer:
    """Blocked uniform draws over a :class:`numpy.random.Generator`.

    The scalar accessors (:meth:`next`, :meth:`uniform`, :meth:`exponential`,
    :meth:`integers`, :meth:`choice`) serve one decision per call as plain
    Python floats read straight out of the block (no per-draw Generator
    call), through the memoryviews ``_uniforms_mv`` / ``_exp_mv`` over the
    numpy block; the simulators' inlined hot reads use the same two views.
    The view accessors (:meth:`uniforms_view`, :meth:`exp_view`,
    :meth:`advance`) expose the same pending draws as numpy arrays for the
    array kernel's vectorized batch stage.  All interfaces read the same
    positions of the same stream, so mixing them freely is safe.

    The object is also duck-compatible with the slice of the Generator API
    the built-in piece-selection policies use (``integers`` / ``random`` /
    ``uniform`` / ``choice``), so policies receive the buffer where they used
    to receive the Generator.  Custom policies must restrict themselves to
    these methods (documented in ``PieceSelectionPolicy``).
    """

    __slots__ = (
        "_rng",
        "block_size",
        "_uniforms",
        "_exp",
        "_uniforms_mv",
        "_exp_mv",
        "_pos",
        "_len",
    )

    def __init__(self, rng: np.random.Generator, block_size: Optional[int] = None):
        if block_size is None:
            block_size = default_block_size()
        block_size = int(block_size)
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        self._rng = rng
        self.block_size = block_size
        self._set_block(np.empty(0, dtype=np.float64))

    # -- block management ------------------------------------------------------

    def _set_block(self, uniforms: np.ndarray) -> None:
        self._uniforms = uniforms
        # One vectorized inverse-transform per block; scalar and batched
        # consumers both read these exact doubles.
        self._exp = -np.log1p(-uniforms)
        # Zero-copy scalar read paths over the same two arrays.
        self._uniforms_mv = memoryview(uniforms)
        self._exp_mv = memoryview(self._exp)
        self._pos = 0
        self._len = len(uniforms)

    def _refill(self) -> None:
        self._set_block(self._rng.random(self.block_size))

    def remaining(self) -> int:
        """Number of already-drawn uniforms not yet consumed."""
        return self._len - self._pos

    # -- scalar draws ----------------------------------------------------------

    def next(self) -> float:
        """The next uniform in ``[0, 1)`` as a plain Python float."""
        pos = self._pos
        if pos >= self._len:
            self._refill()
            pos = 0
        self._pos = pos + 1
        return self._uniforms_mv[pos]

    def random(self) -> float:
        """Generator-compatible alias of :meth:`next`."""
        return self.next()

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """One uniform on ``[low, high)`` (one buffered draw).

        ``uniform(0.0, b)`` equals ``b * u`` bit-for-bit, which is what
        ``Generator.uniform(0.0, b)`` computes from its single double.
        """
        return low + (high - low) * self.next()

    def exponential(self, scale: float) -> float:
        """One Exp(1/scale) variate via the inverse transform (one draw)."""
        pos = self._pos
        if pos >= self._len:
            self._refill()
            pos = 0
        self._pos = pos + 1
        return scale * self._exp_mv[pos]

    def integers(self, low: int, high: Optional[int] = None) -> int:
        """One integer from ``[0, low)`` (or ``[low, high)``), one draw.

        The floor-multiply map ``int(u * n)`` replaces numpy's Lemire
        rejection sampler so that the draw count is fixed at one; the
        ``n - 1`` clamp guards the (theoretical) ``u * n == n`` rounding
        edge and mirrors the vectorized batch stage exactly.
        """
        pos = self._pos
        if pos >= self._len:
            self._refill()
            pos = 0
        self._pos = pos + 1
        if high is None:
            span = low
            base = 0
        else:
            span = high - low
            base = low
        value = int(self._uniforms_mv[pos] * span)
        if value >= span:
            value = span - 1
        return base + value

    def choice(self, n: int, p: Optional[Sequence[float]] = None) -> int:
        """One index from ``range(n)``, optionally ``p``-weighted (one draw)."""
        if p is None:
            return self.integers(n)
        cumulative = np.cumsum(np.asarray(p, dtype=float))
        index = int(np.searchsorted(cumulative, cumulative[-1] * self.next(), side="right"))
        return min(index, n - 1)

    def cum_choice(self, cumulative: np.ndarray) -> int:
        """Index drawn against a normalized cumulative-probability table.

        One uniform + ``searchsorted`` with the trailing clamp — THE pick
        idiom of both backends' arrival-type and class draws; keeping it
        here keeps the consumption contract (and the ``side="right"`` /
        clamp semantics) in exactly one place.
        """
        index = int(np.searchsorted(cumulative, self.next(), side="right"))
        limit = len(cumulative) - 1
        return index if index < limit else limit

    # -- vectorized views (array-kernel batch stage) ---------------------------

    def uniforms_view(self, count: int) -> np.ndarray:
        """The next ``count`` pending uniforms as a read-only numpy view."""
        return self._uniforms[self._pos : self._pos + count]

    def exp_view(self, count: int) -> np.ndarray:
        """``-log1p(-u)`` of the next ``count`` pending uniforms (a view)."""
        return self._exp[self._pos : self._pos + count]

    def advance(self, count: int) -> None:
        """Consume ``count`` pending draws previously read through a view."""
        position = self._pos + count
        if count < 0 or position > self._len:
            raise ValueError(
                f"cannot advance {count} draws: {self.remaining()} pending"
            )
        self._pos = position

    # -- snapshots -------------------------------------------------------------

    def capture(self) -> Dict[str, Any]:
        """Picklable buffer state: the un-consumed remainder of the block."""
        return {
            "block_size": self.block_size,
            "uniforms": self._uniforms[self._pos :].copy(),
        }

    def restore(self, state: Dict[str, Any]) -> None:
        """Load a :meth:`capture` payload."""
        self._set_block(np.array(state["uniforms"], dtype=np.float64))

__all__ = [
    "BLOCK_SIZE_ENV",
    "DEFAULT_BLOCK_SIZE",
    "DrawBuffer",
    "default_block_size",
]
