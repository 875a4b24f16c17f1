"""Finite CTMC utilities: stationary laws, hitting times, uniformization.

Generic helpers over an explicit (dense or sparse) generator matrix, used by
the exact truncated-chain analysis and by the µ = ∞ watched-chain experiments.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Hashable, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

# scipy is imported inside the functions that use it, so that importing the
# package entry points never loads it (pinned by tests/test_imports.py).
if TYPE_CHECKING:
    import scipy.sparse as sp

StateT = TypeVar("StateT", bound=Hashable)


def build_generator(
    states: Sequence[StateT],
    transition_function: Callable[[StateT], Sequence[Tuple[float, StateT]]],
    absorb_unknown: bool = True,
) -> sp.csr_matrix:
    """Assemble the generator matrix restricted to ``states``.

    Transitions to states outside the list are dropped when
    ``absorb_unknown`` is True (finite-buffer truncation), otherwise a
    ``KeyError`` is raised.
    """
    import scipy.sparse as sp

    index = {state: i for i, state in enumerate(states)}
    rows: List[int] = []
    cols: List[int] = []
    data: List[float] = []
    for i, state in enumerate(states):
        exit_rate = 0.0
        for rate, target in transition_function(state):
            if rate <= 0:
                continue
            j = index.get(target)
            if j is None:
                if absorb_unknown:
                    continue
                raise KeyError(f"transition target {target!r} outside the state list")
            rows.append(i)
            cols.append(j)
            data.append(rate)
            exit_rate += rate
        rows.append(i)
        cols.append(i)
        data.append(-exit_rate)
    size = len(states)
    return sp.csr_matrix((data, (rows, cols)), shape=(size, size))


def stationary_distribution(generator: sp.spmatrix) -> np.ndarray:
    """Stationary distribution ``π`` solving ``π Q = 0``, ``Σ π = 1``."""
    dense = np.asarray(generator.todense(), dtype=float)
    size = dense.shape[0]
    system = np.vstack([dense.T, np.ones((1, size))])
    rhs = np.zeros(size + 1)
    rhs[-1] = 1.0
    solution, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    solution = np.clip(solution, 0.0, None)
    total = solution.sum()
    if total <= 0:
        raise RuntimeError("failed to compute a stationary distribution")
    return solution / total


def expected_hitting_times(
    generator: sp.spmatrix, target_indices: Sequence[int]
) -> np.ndarray:
    """Expected time to reach the target set from every state.

    Solves ``Q_B h = −1`` on the complement ``B`` of the target set; entries
    for target states are zero.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    size = generator.shape[0]
    targets = set(int(i) for i in target_indices)
    others = [i for i in range(size) if i not in targets]
    times = np.zeros(size)
    if not others:
        return times
    submatrix = sp.csc_matrix(generator.tocsr()[others, :][:, others])
    rhs = -np.ones(len(others))
    solution = spla.spsolve(submatrix, rhs)
    for row, state_index in enumerate(others):
        times[state_index] = solution[row]
    return times


def uniformized_transition_matrix(
    generator: sp.spmatrix, uniformization_rate: Optional[float] = None
) -> Tuple[sp.csr_matrix, float]:
    """Uniformization: ``P = I + Q/Λ`` with ``Λ ≥ max_i |q_ii|``.

    Returns the discrete-time kernel and the rate ``Λ`` used.
    """
    import scipy.sparse as sp

    csr = generator.tocsr()
    diagonal = -csr.diagonal()
    max_rate = float(diagonal.max()) if diagonal.size else 0.0
    rate = uniformization_rate if uniformization_rate is not None else max_rate * 1.0001
    if rate <= 0:
        rate = 1.0
    if rate < max_rate:
        raise ValueError("uniformization_rate must dominate the exit rates")
    size = csr.shape[0]
    kernel = sp.identity(size, format="csr") + csr / rate
    return kernel.tocsr(), rate


def transient_distribution(
    generator: sp.spmatrix,
    initial: np.ndarray,
    time: float,
    tolerance: float = 1e-10,
    max_terms: int = 10_000,
) -> np.ndarray:
    """Distribution at time ``time`` via uniformization (Poisson-weighted powers)."""
    if time < 0:
        raise ValueError("time must be nonnegative")
    kernel, rate = uniformized_transition_matrix(generator)
    weight_total = np.exp(-rate * time)
    weight = weight_total
    distribution = np.asarray(initial, dtype=float)
    accumulated = weight * distribution
    term = distribution
    k = 0
    while weight_total < 1.0 - tolerance and k < max_terms:
        k += 1
        term = term @ kernel
        weight *= rate * time / k
        weight_total += weight
        accumulated = accumulated + weight * term
    return np.asarray(accumulated).ravel()


__all__ = [
    "build_generator",
    "stationary_distribution",
    "expected_hitting_times",
    "uniformized_transition_matrix",
    "transient_distribution",
]
