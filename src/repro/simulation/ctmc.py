"""Generic continuous-time Markov chain simulation (Gillespie / jump chain).

The exact model of the paper is a CTMC on population-count states.  For
moderate populations it is far more efficient to simulate the jump chain
directly from the aggregate transition rates of Eq. (1) than to simulate every
peer's Poisson clock individually, because the number of distinct types is
tiny compared with the number of peers.  :class:`MarkovChainSimulator` does
exactly that and records a trajectory of sampled statistics.

The simulator is generic over a transition function returning the
``(rate, target)`` pairs of a state, the same form the exact tools of
:mod:`repro.markov` take; :class:`MarkovChainSimulator` feeds it
:func:`repro.core.transitions.transition_function`.  It is reused by the
µ = ∞ watched chain of Section VIII-D and by tests with hand-built toy chains.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generic, Hashable, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from ..core.parameters import SystemParameters
from ..core.state import SystemState
from ..core.transitions import transition_function
from .rng import SeedLike, make_rng

StateT = TypeVar("StateT", bound=Hashable)


@dataclass
class JumpRecord(Generic[StateT]):
    """One jump of the embedded chain (time of jump and the new state)."""

    time: float
    state: StateT


@dataclass
class CtmcTrajectory(Generic[StateT]):
    """A simulated trajectory: jump times, visited states and sampled values.

    ``samples`` holds ``(time, value)`` pairs produced by the optional
    ``observe`` callback on a fixed sampling grid, which keeps memory bounded
    for long runs.
    """

    initial_state: StateT
    jumps: List[JumpRecord[StateT]] = field(default_factory=list)
    samples: List[Tuple[float, float]] = field(default_factory=list)
    final_time: float = 0.0
    final_state: Optional[StateT] = None
    total_jumps: int = 0

    def sample_times(self) -> np.ndarray:
        return np.array([t for t, _ in self.samples])

    def sample_values(self) -> np.ndarray:
        return np.array([v for _, v in self.samples])


class GenericCtmcSimulator(Generic[StateT]):
    """Simulate any CTMC given a function enumerating outgoing transitions.

    Parameters
    ----------
    transition_function:
        Maps a state to a list of ``(rate, next_state)`` pairs.
    observe:
        Optional function mapping a state to a float recorded on the sampling
        grid (defaults to 0.0 when omitted).
    """

    def __init__(
        self,
        transition_function: Callable[[StateT], Sequence[Tuple[float, StateT]]],
        observe: Optional[Callable[[StateT], float]] = None,
    ):
        self._transitions = transition_function
        self._observe = observe if observe is not None else (lambda _state: 0.0)

    def run(
        self,
        initial_state: StateT,
        horizon: float,
        seed: SeedLike = None,
        sample_interval: Optional[float] = None,
        max_jumps: Optional[int] = None,
        record_jumps: bool = False,
        stop_condition: Optional[Callable[[StateT], bool]] = None,
    ) -> CtmcTrajectory[StateT]:
        """Simulate from ``initial_state`` until ``horizon`` (or a stop condition).

        ``sample_interval`` controls how often ``observe`` is recorded (defaults
        to ``horizon / 200``).  ``record_jumps`` additionally stores every jump,
        which is memory-hungry for long runs and off by default.
        """
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        rng = make_rng(seed)
        interval = sample_interval if sample_interval is not None else horizon / 200.0
        trajectory: CtmcTrajectory[StateT] = CtmcTrajectory(initial_state=initial_state)
        state = initial_state
        now = 0.0
        next_sample = 0.0
        jumps = 0
        while True:
            if stop_condition is not None and stop_condition(state):
                break
            if max_jumps is not None and jumps >= max_jumps:
                break
            options = self._transitions(state)
            total_rate = sum(rate for rate, _target in options)
            if total_rate <= 0:
                # Absorbing state: fast-forward to the horizon.
                now = horizon
                break
            wait = rng.exponential(1.0 / total_rate)
            # The current state holds on [now, now + wait): record every grid
            # point in that window *before* applying the jump, so samples
            # reflect the time-stationary state rather than post-jump states.
            next_jump_time = now + wait
            while next_sample <= horizon and next_sample < next_jump_time:
                trajectory.samples.append((next_sample, self._observe(state)))
                next_sample += interval
            if next_jump_time > horizon:
                now = horizon
                break
            now = next_jump_time
            threshold = rng.uniform(0.0, total_rate)
            cumulative = 0.0
            chosen = options[-1][1]
            for rate, target in options:
                cumulative += rate
                if threshold <= cumulative:
                    chosen = target
                    break
            state = chosen
            jumps += 1
            if record_jumps:
                trajectory.jumps.append(JumpRecord(time=now, state=state))
        # Remaining grid points (after the last jump, or when the run ended on
        # a stop condition / jump cap) carry the final state.
        while next_sample <= horizon:
            trajectory.samples.append((next_sample, self._observe(state)))
            next_sample += interval
        trajectory.final_time = now
        trajectory.final_state = state
        trajectory.total_jumps = jumps
        return trajectory


class MarkovChainSimulator:
    """Jump-chain simulator specialised to the P2P population chain.

    Uses the aggregate rates of Eq. (1), so one simulated jump corresponds to
    one arrival, one piece transfer, or one seed departure, regardless of how
    many peers are present.
    """

    def __init__(self, params: SystemParameters):
        self.params = params
        self._transitions = transition_function(params)
        self._generic = GenericCtmcSimulator(
            transition_function=self._transitions,
            observe=lambda state: float(state.total_peers),
        )

    def run(
        self,
        initial_state: Optional[SystemState] = None,
        horizon: float = 1000.0,
        seed: SeedLike = None,
        sample_interval: Optional[float] = None,
        max_jumps: Optional[int] = None,
        observe: Optional[Callable[[SystemState], float]] = None,
        stop_condition: Optional[Callable[[SystemState], bool]] = None,
    ) -> CtmcTrajectory[SystemState]:
        """Simulate the population chain.

        By default the recorded observable is the total population ``n(t)``;
        pass ``observe`` to record something else (e.g. the one-club size).
        """
        start = (
            initial_state
            if initial_state is not None
            else SystemState.empty(self.params.num_pieces)
        )
        simulator = self._generic
        if observe is not None:
            simulator = GenericCtmcSimulator(self._transitions, observe=observe)
        return simulator.run(
            initial_state=start,
            horizon=horizon,
            seed=seed,
            sample_interval=sample_interval,
            max_jumps=max_jumps,
            stop_condition=stop_condition,
        )


__all__ = [
    "JumpRecord",
    "CtmcTrajectory",
    "GenericCtmcSimulator",
    "MarkovChainSimulator",
]
