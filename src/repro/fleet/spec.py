"""Fleet specifications: parameter samplers, scenario mixes, swarm tasks.

A *fleet* is a population of independent swarms treated as one workload: the
tracker-scale counterpart of a single :func:`~repro.swarm.swarm.run_swarm`
call.  The frozen :class:`FleetSpec` bundles

* a swarm count,
* a :class:`ParameterSampler` drawing each swarm's
  :class:`~repro.core.parameters.SystemParameters` fields — fixed values
  (:class:`FixedSampler`), a cartesian grid cycled over the swarm index
  (:class:`GridSampler`), or independent uniform draws
  (:class:`RandomSampler`),
* a scenario mix — a weighted distribution over registered scenario names
  (plus per-name factory overrides), with ``None`` standing for the plain
  homogeneous workload,
* and the shared run controls (horizon, event/population caps, backend).

Whether a swarm ends *captured* is not a spec field: every fleet applies
the one rule :func:`~repro.markov.classify.is_captured`.

:func:`materialize_tasks` turns a spec plus one master seed into the
deterministic list of per-swarm :class:`SwarmTask`\\ s.  Seeding follows the
:class:`~repro.experiments.runner.BatchRunner` contract: the master seed
spawns one ``SeedSequence`` child per swarm, which in turn spawns an
*assignment* stream (parameter draws + scenario choice) and a *simulation*
stream.  Both depend only on ``(master seed, swarm index)``, so the same
master seed yields the identical fleet — same parameters, same scenarios,
same trajectories — at any worker count and any chunking.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.parameters import SystemParameters
from ..core.scenario import ScenarioSpec, base_params, make_scenario
from ..simulation.rng import SeedLike
from ..swarm.metrics import check_sample_grid

#: ``SystemParameters`` fields a sampler may vary (all scalars; arrivals are
#: the empty-handed flash-crowd mix at rate ``arrival_rate``).
SAMPLABLE_FIELDS = (
    "num_pieces",
    "arrival_rate",
    "seed_rate",
    "peer_rate",
    "seed_departure_rate",
)

#: Scenario-mix label of plain (scenario-less) swarms.
PLAIN_LABEL = "plain"


def _freeze_values(values: Mapping[str, float], context: str) -> Tuple[Tuple[str, float], ...]:
    for key in values:
        if key not in SAMPLABLE_FIELDS:
            raise ValueError(
                f"{context}: unknown parameter field {key!r}; "
                f"samplable fields are {SAMPLABLE_FIELDS}"
            )
    return tuple(sorted(values.items()))


@dataclass(frozen=True)
class ParameterSampler:
    """Base class: maps a swarm index (plus its RNG) to parameter kwargs."""

    def draw(self, index: int, rng: np.random.Generator) -> Dict[str, float]:
        raise NotImplementedError


@dataclass(frozen=True)
class FixedSampler(ParameterSampler):
    """Every swarm gets the same parameter overrides."""

    values: Tuple[Tuple[str, float], ...] = ()

    @classmethod
    def of(cls, **values: float) -> "FixedSampler":
        return cls(values=_freeze_values(values, "FixedSampler"))

    def draw(self, index: int, rng: np.random.Generator) -> Dict[str, float]:
        return dict(self.values)


@dataclass(frozen=True)
class GridSampler(ParameterSampler):
    """Cartesian grid over parameter axes, cycled over the swarm index.

    Swarm ``i`` receives grid cell ``i % grid_size`` (row-major over the
    axes in the given order), so ``num_swarms = grid_size * k`` puts exactly
    ``k`` swarms in every cell — the phase-diagram workhorse.
    """

    axes: Tuple[Tuple[str, Tuple[float, ...]], ...] = ()
    base: Tuple[Tuple[str, float], ...] = ()

    @classmethod
    def of(
        cls, axes: Mapping[str, Sequence[float]], **base: float
    ) -> "GridSampler":
        frozen_axes = tuple(
            (key, tuple(values)) for key, values in axes.items()
        )
        for key, values in frozen_axes:
            if key not in SAMPLABLE_FIELDS:
                raise ValueError(
                    f"GridSampler: unknown parameter field {key!r}; "
                    f"samplable fields are {SAMPLABLE_FIELDS}"
                )
            if not values:
                raise ValueError(f"GridSampler: axis {key!r} has no values")
        return cls(axes=frozen_axes, base=_freeze_values(base, "GridSampler"))

    @property
    def grid_size(self) -> int:
        size = 1
        for _key, values in self.axes:
            size *= len(values)
        return size

    def cell(self, index: int) -> Dict[str, float]:
        """The parameter overrides of grid cell ``index % grid_size``."""
        remainder = index % self.grid_size
        overrides: Dict[str, float] = {}
        # Row-major: the last axis varies fastest.
        for key, values in reversed(self.axes):
            overrides[key] = values[remainder % len(values)]
            remainder //= len(values)
        return overrides

    def draw(self, index: int, rng: np.random.Generator) -> Dict[str, float]:
        values = dict(self.base)
        values.update(self.cell(index))
        return values


@dataclass(frozen=True)
class RandomSampler(ParameterSampler):
    """Independent uniform draws per swarm over ``(low, high)`` ranges.

    The draws consume the swarm's *assignment* RNG stream (one uniform per
    range, in sorted field order), so they depend only on the master seed
    and the swarm index.  ``num_pieces`` cannot be randomised (it must stay
    an integer shared with the piece-set machinery); vary it with a
    :class:`GridSampler` axis instead.
    """

    ranges: Tuple[Tuple[str, Tuple[float, float]], ...] = ()
    base: Tuple[Tuple[str, float], ...] = ()

    @classmethod
    def of(
        cls, ranges: Mapping[str, Tuple[float, float]], **base: float
    ) -> "RandomSampler":
        frozen: List[Tuple[str, Tuple[float, float]]] = []
        for key in sorted(ranges):
            low, high = ranges[key]
            if key == "num_pieces":
                raise ValueError(
                    "RandomSampler cannot vary num_pieces; use a GridSampler axis"
                )
            if key not in SAMPLABLE_FIELDS:
                raise ValueError(
                    f"RandomSampler: unknown parameter field {key!r}; "
                    f"samplable fields are {SAMPLABLE_FIELDS}"
                )
            if not low <= high:
                raise ValueError(
                    f"RandomSampler: range for {key!r} must satisfy low <= high, "
                    f"got ({low}, {high})"
                )
            frozen.append((key, (float(low), float(high))))
        return cls(ranges=tuple(frozen), base=_freeze_values(base, "RandomSampler"))

    def draw(self, index: int, rng: np.random.Generator) -> Dict[str, float]:
        values = dict(self.base)
        for key, (low, high) in self.ranges:
            values[key] = float(rng.uniform(low, high))
        return values


@dataclass(frozen=True)
class ScenarioWeight:
    """One entry of a fleet's scenario mix.

    ``scenario`` is a registered scenario name (resolved through
    :func:`repro.core.scenario.make_scenario`) or ``None`` for the plain
    homogeneous workload; ``overrides`` are extra factory keyword arguments
    (the sampler's parameter draws are passed too and take precedence on
    conflicts).
    """

    scenario: Optional[str]
    weight: float = 1.0
    overrides: Tuple[Tuple[str, object], ...] = ()

    @classmethod
    def of(
        cls, scenario: Optional[str], weight: float = 1.0, **overrides: object
    ) -> "ScenarioWeight":
        return cls(
            scenario=scenario,
            weight=weight,
            overrides=tuple(sorted(overrides.items())),
        )

    def __post_init__(self) -> None:
        if not self.weight > 0:
            raise ValueError(f"scenario weight must be > 0, got {self.weight}")

    @property
    def label(self) -> str:
        return self.scenario if self.scenario is not None else PLAIN_LABEL


@dataclass(frozen=True)
class FleetSpec:
    """A frozen description of one multi-swarm workload."""

    name: str
    num_swarms: int
    sampler: ParameterSampler = field(default_factory=FixedSampler)
    scenario_mix: Tuple[ScenarioWeight, ...] = ()
    horizon: float = 60.0
    sample_interval: Optional[float] = None
    max_events: Optional[int] = None
    max_population: Optional[int] = 50_000
    backend: str = "array"
    #: Pre-seed every swarm with a one-club of this size (0 = start empty);
    #: in classed scenarios the pre-seeded peers belong to class 0.
    initial_club_size: int = 0

    def __post_init__(self) -> None:
        if self.num_swarms < 1:
            raise ValueError(f"num_swarms must be >= 1, got {self.num_swarms}")
        check_sample_grid(self.horizon, self.sample_interval)
        if self.backend not in ("object", "array"):
            raise ValueError(
                f"unknown backend {self.backend!r}; expected one of "
                f"('object', 'array')"
            )
        if self.initial_club_size < 0:
            raise ValueError("initial_club_size must be >= 0")
        object.__setattr__(self, "scenario_mix", tuple(self.scenario_mix))

    def mix_cumprobs(self) -> Optional[np.ndarray]:
        """Cumulative scenario-mix probabilities (None when mix is empty)."""
        if not self.scenario_mix:
            return None
        weights = np.array([entry.weight for entry in self.scenario_mix])
        return np.cumsum(weights / weights.sum())


@dataclass(frozen=True)
class SwarmTask:
    """One materialized swarm of a fleet (picklable work item)."""

    index: int
    params: SystemParameters
    scenario: Optional[ScenarioSpec]
    scenario_label: str
    seed: np.random.SeedSequence


def normalize_fleet_seed(seed: SeedLike):
    """Reduce any ``SeedLike`` to a pure, picklable master-seed token.

    Spawning from a caller-supplied ``SeedSequence`` would mutate it
    (advancing ``n_children_spawned``), so a later re-materialization — e.g.
    resuming from a checkpoint that pickled the mutated object — would
    derive *different* swarms.  Instead the sequence is reduced to its
    ``(entropy, spawn_key)`` identity and rebuilt fresh on every use.
    ``None`` is pinned to freshly drawn entropy once (so the token, and any
    checkpoint storing it, stays reproducible), and a ``Generator`` is
    consumed once for a 63-bit integer.  Tokens normalize to themselves.
    """
    if isinstance(seed, dict) and "entropy" in seed:
        return seed
    if isinstance(seed, np.random.Generator):
        return int(seed.integers(0, 2**63 - 1))
    if isinstance(seed, np.random.SeedSequence):
        return {"entropy": seed.entropy, "spawn_key": tuple(seed.spawn_key)}
    if seed is None:
        return np.random.SeedSequence().entropy
    return int(seed)


def _root_sequence(token) -> np.random.SeedSequence:
    """A fresh root ``SeedSequence`` for a normalized seed token."""
    if isinstance(token, dict):
        return np.random.SeedSequence(
            token["entropy"], spawn_key=tuple(token["spawn_key"])
        )
    return np.random.SeedSequence(token)


def task_for_point(
    index: int,
    simulation_seq: np.random.SeedSequence,
    params_kwargs: Mapping[str, float],
    choice: ScenarioWeight,
) -> SwarmTask:
    """Build one :class:`SwarmTask` from an explicit parameter/scenario point.

    The shared assembly step of :func:`materialize_tasks` (which *samples*
    points) and the adaptive driver (which *chooses* points by acquisition):
    ``params_kwargs`` wins over the mix entry's factory overrides on
    conflicts, for the plain workload and named scenarios alike.
    """
    params_kwargs = dict(params_kwargs)
    if "num_pieces" in params_kwargs:
        params_kwargs["num_pieces"] = int(params_kwargs["num_pieces"])
    if choice.scenario is None:
        params = base_params(**{**dict(choice.overrides), **params_kwargs})
        scenario = None
    else:
        scenario = make_scenario(
            choice.scenario, **{**dict(choice.overrides), **params_kwargs}
        )
        params = scenario.params
    return SwarmTask(
        index=index,
        params=params,
        scenario=scenario,
        scenario_label=choice.label,
        seed=simulation_seq,
    )


def materialize_tasks(spec: FleetSpec, seed: SeedLike = 0) -> List[SwarmTask]:
    """Expand a spec into its deterministic per-swarm task list.

    Assignment draws (sampler + scenario choice) and simulation seeds are
    derived per swarm from ``SeedSequence.spawn`` on a fresh root built via
    :func:`normalize_fleet_seed`, so the task list — and therefore the whole
    fleet outcome — is a pure function of ``(spec, seed token)``,
    independent of worker count, chunking, and how often it is called.
    """
    root = _root_sequence(normalize_fleet_seed(seed))
    children = root.spawn(spec.num_swarms)
    cumprobs = spec.mix_cumprobs()
    tasks: List[SwarmTask] = []
    # Swarms landing on the same (parameter point, mix entry) produce
    # value-identical params/scenario objects; share one instance per
    # distinct point instead of rebuilding it per swarm.  Pickling a chunk
    # of tasks preserves the sharing, so worker-side identity-keyed caches
    # (e.g. the theory-verdict memo) hit across the chunk too.
    templates: Dict[Tuple, SwarmTask] = {}
    for index, child in enumerate(children):
        assignment_seq, simulation_seq = child.spawn(2)
        assignment_rng = np.random.default_rng(assignment_seq)
        params_kwargs = spec.sampler.draw(index, assignment_rng)
        if cumprobs is None:
            choice = ScenarioWeight(scenario=None)
        elif len(spec.scenario_mix) == 1:
            choice = spec.scenario_mix[0]
        else:
            position = min(
                int(np.searchsorted(cumprobs, assignment_rng.uniform(), side="right")),
                len(cumprobs) - 1,
            )
            choice = spec.scenario_mix[position]
        point = (tuple(sorted(params_kwargs.items())), choice)
        try:
            template = templates.get(point)
        except TypeError:  # unhashable factory override: skip sharing
            template = None
            point = None
        if template is None:
            task = task_for_point(index, simulation_seq, params_kwargs, choice)
            if point is not None:
                templates[point] = task
        else:
            task = SwarmTask(
                index=index,
                params=template.params,
                scenario=template.scenario,
                scenario_label=template.scenario_label,
                seed=simulation_seq,
            )
        tasks.append(task)
    return tasks


__all__ = [
    "FixedSampler",
    "FleetSpec",
    "GridSampler",
    "PLAIN_LABEL",
    "ParameterSampler",
    "RandomSampler",
    "SAMPLABLE_FIELDS",
    "ScenarioWeight",
    "SwarmTask",
    "materialize_tasks",
    "normalize_fleet_seed",
    "task_for_point",
]
