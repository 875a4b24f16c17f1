"""Declarative scenario layer: heterogeneous peer classes + rate schedules.

The paper proves the missing-piece syndrome for a *homogeneous* swarm with
constant arrival and seed rates.  The scenario layer lets experiments express
the non-ideal workloads the paper only gestures at — flash crowds, seed
outages, diurnal load, unequal peers — without touching the kernels'
parameterisation by hand:

* :class:`PeerClass` — one class of peers with its own contact rate ``µ_c``,
  peer-seed departure rate ``γ_c`` and (optionally) its own arrival-type mix;
* :class:`RateSchedule` — a piecewise-constant multiplier applied to a base
  rate over time (``pulse`` for flash crowds, ``outage`` for seed failures,
  ``square_wave`` for diurnal load);
* :class:`ScenarioSpec` — a frozen bundle of base
  :class:`~repro.core.parameters.SystemParameters`, a tuple of peer classes
  and the arrival/seed schedules, consumed by both simulation backends via
  ``make_simulator(..., scenario=...)`` / ``run_scenario``.

Simulation contract
-------------------
Schedules are realised by Poisson thinning inside the shared event-loop
driver (:class:`repro.swarm.swarm._SwarmEventLoop`): the loop runs at the
schedule's *maximum* rate and accepts a candidate arrival / fixed-seed tick
with probability ``factor(t) / max_factor``.  Because the thinning draw lives
in the shared driver, the object simulator and the array kernel consume the
RNG identically and remain bit-identical per seed on every scenario.  A
scenario whose classes and schedules are all trivial reduces exactly to the
legacy homogeneous code path (same draws, same trajectories).

Peers loaded from an ``initial_state`` (e.g. a pre-built one club) are
assigned to class 0; exogenous arrivals are assigned to a class sampled by
``arrival_fraction``.

A small registry maps scenario names ("flash-crowd", "seed-outage", ...) to
parameterised factories; see :func:`make_scenario` / :func:`registered_scenarios`.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..swarm.gossip import CensusSpec
from ..swarm.topology import TopologySpec
from .parameters import SystemParameters
from .types import PieceSet


# ---------------------------------------------------------------------------
# Rate schedules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RateSchedule:
    """Piecewise-constant multiplier applied to a base rate.

    ``values[i]`` applies on ``[times[i], times[i+1])`` and ``values[-1]``
    from ``times[-1]`` onward.  ``times`` must start at 0 and increase
    strictly; values are nonnegative factors (0 switches the process off, 1
    leaves the base rate unchanged).
    """

    times: Tuple[float, ...]
    values: Tuple[float, ...]

    def __post_init__(self) -> None:
        times = tuple(float(t) for t in self.times)
        values = tuple(float(v) for v in self.values)
        if not times or len(times) != len(values):
            raise ValueError(
                f"times and values must be equal-length and non-empty, got "
                f"{len(times)} times / {len(values)} values"
            )
        if times[0] != 0.0:
            raise ValueError(f"schedule must start at time 0, got {times[0]}")
        for before, after in zip(times, times[1:]):
            if not after > before:
                raise ValueError(f"times must increase strictly, got {times}")
        for value in values:
            if not (value >= 0.0) or math.isinf(value):
                raise ValueError(f"schedule factors must be finite and >= 0, got {value}")
        if max(values) <= 0.0:
            raise ValueError("at least one schedule factor must be positive")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    # -- queries ------------------------------------------------------------

    def value_at(self, time: float) -> float:
        """The multiplier in force at ``time`` (clamped to the first segment
        for negative times)."""
        index = bisect.bisect_right(self.times, time) - 1
        return self.values[max(index, 0)]

    @property
    def max_value(self) -> float:
        """The largest factor — the thinning bound used by the event loop."""
        return max(self.values)

    @property
    def is_constant(self) -> bool:
        """True when one factor applies for all time (no thinning needed)."""
        return len(set(self.values)) == 1

    @property
    def is_trivial(self) -> bool:
        """True when the schedule is exactly the constant-1 profile.

        This predicate is load-bearing: the event loop keeps the legacy
        homogeneous code path (and its exact RNG consumption) for trivial
        schedules, so every triviality check must agree with this one.
        """
        return self.is_constant and self.values[0] == 1.0

    def scaled(self, factor: float) -> "RateSchedule":
        """Copy with every value multiplied by ``factor`` (> 0)."""
        if factor <= 0:
            raise ValueError(f"factor must be > 0, got {factor}")
        return RateSchedule(self.times, tuple(v * factor for v in self.values))

    # -- constructors --------------------------------------------------------

    @classmethod
    def constant(cls, value: float = 1.0) -> "RateSchedule":
        """The trivial schedule: one factor for all time."""
        return cls((0.0,), (value,))

    @classmethod
    def step(cls, pairs: Sequence[Tuple[float, float]]) -> "RateSchedule":
        """Build from ``(time, factor)`` pairs, e.g. ``[(0, 1), (50, 3)]``."""
        times, values = zip(*pairs)
        return cls(tuple(times), tuple(values))

    @classmethod
    def pulse(
        cls, start: float, end: float, high: float, base: float = 1.0
    ) -> "RateSchedule":
        """Factor ``high`` on ``[start, end)``, ``base`` elsewhere — the
        flash-crowd shape."""
        if not 0.0 <= start < end:
            raise ValueError(f"need 0 <= start < end, got [{start}, {end})")
        if start == 0.0:
            return cls((0.0, end), (high, base))
        return cls((0.0, start, end), (base, high, base))

    @classmethod
    def outage(cls, start: float, end: float, base: float = 1.0) -> "RateSchedule":
        """Factor 0 on ``[start, end)`` — a seed (or arrival) outage."""
        return cls.pulse(start, end, 0.0, base=base)

    @classmethod
    def square_wave(
        cls, period: float, high: float, low: float, horizon: float
    ) -> "RateSchedule":
        """Alternate ``high`` / ``low`` every ``period / 2`` up to ``horizon``
        — a blocky diurnal load profile.

        Schedules are finite piecewise-constant tables: beyond ``horizon``
        the last half-period's factor holds forever, so size ``horizon`` to
        at least the simulation horizon or the wave stops alternating."""
        if period <= 0 or horizon <= 0:
            raise ValueError("period and horizon must be positive")
        times: List[float] = []
        values: List[float] = []
        time, phase = 0.0, 0
        while time < horizon:
            times.append(time)
            values.append(high if phase == 0 else low)
            time += period / 2.0
            phase ^= 1
        return cls(tuple(times), tuple(values))


# ---------------------------------------------------------------------------
# Peer classes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PeerClass:
    """One class of peers in a heterogeneous swarm.

    Attributes
    ----------
    name:
        Human-readable label ("residential", "datacenter", ...).
    contact_rate:
        Contact-upload rate ``µ_c > 0`` of this class's peers.
    seed_departure_rate:
        Peer-seed departure rate ``γ_c ∈ (0, ∞]``; ``math.inf`` means a
        class-``c`` peer departs the instant it completes the file.
    arrival_fraction:
        Nonnegative weight of this class among exogenous arrivals (the spec
        normalises weights across classes).
    arrival_mix:
        Optional per-class arrival-type mix ``C ↦ weight``; ``None`` inherits
        the base parameters' mix.  Weights are normalised per class.
    """

    name: str
    contact_rate: float
    seed_departure_rate: float
    arrival_fraction: float = 1.0
    arrival_mix: Optional[Mapping[PieceSet, float]] = None

    def __post_init__(self) -> None:
        if not self.contact_rate > 0:
            raise ValueError(
                f"class {self.name!r}: contact_rate must be > 0, got {self.contact_rate}"
            )
        if not self.seed_departure_rate > 0:
            raise ValueError(
                f"class {self.name!r}: seed_departure_rate must be > 0 "
                f"(math.inf for immediate departure), got {self.seed_departure_rate}"
            )
        if self.arrival_fraction < 0:
            raise ValueError(
                f"class {self.name!r}: arrival_fraction must be >= 0, "
                f"got {self.arrival_fraction}"
            )
        if self.arrival_mix is not None:
            cleaned: Dict[PieceSet, float] = {}
            for type_c, weight in dict(self.arrival_mix).items():
                if not isinstance(type_c, PieceSet):
                    raise TypeError(
                        f"class {self.name!r}: arrival_mix keys must be "
                        f"PieceSet, got {type(type_c)!r}"
                    )
                if weight < 0:
                    raise ValueError(
                        f"class {self.name!r}: arrival weight for {type_c!r} "
                        f"is negative: {weight}"
                    )
                if weight > 0:
                    cleaned[type_c] = float(weight)
            if not cleaned:
                raise ValueError(
                    f"class {self.name!r}: arrival_mix has no positive weight"
                )
            object.__setattr__(self, "arrival_mix", cleaned)

    @property
    def immediate_departure(self) -> bool:
        """True when class peers leave as soon as they hold all pieces."""
        return math.isinf(self.seed_departure_rate)


# ---------------------------------------------------------------------------
# Scenario spec
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioSpec:
    """A declarative workload: base parameters + classes + rate schedules.

    An empty ``classes`` tuple means the homogeneous swarm of ``params``
    (every peer uses ``params.peer_rate`` / ``params.seed_departure_rate``).
    ``arrival_schedule`` multiplies the total arrival rate and
    ``seed_schedule`` multiplies the fixed seed's rate ``U_s`` over time.

    ``topology`` restricts peer contact ticks to an overlay graph (see
    :class:`repro.swarm.topology.TopologySpec`); ``None`` or the
    ``complete`` kind keep the legacy uniform-contact model.  ``cull_time``
    schedules a correlated-churn "flash exit": at that simulation time every
    incomplete (non-seed) peer independently departs with probability
    ``cull_fraction``.

    ``census`` selects the piece-frequency census served to policies: the
    exact ``"oracle"`` (the default, and the historical behaviour) or a
    flow-updating ``"gossip"`` estimate — pass a kind name or a
    :class:`repro.swarm.gossip.CensusSpec` for the knobs, e.g.
    ``CensusSpec.gossip(exchange_rate=0.5, damping=1.0)``.
    """

    name: str
    params: SystemParameters
    classes: Tuple[PeerClass, ...] = ()
    arrival_schedule: RateSchedule = field(
        default_factory=lambda: RateSchedule.constant(1.0)
    )
    seed_schedule: RateSchedule = field(
        default_factory=lambda: RateSchedule.constant(1.0)
    )
    topology: Optional["TopologySpec"] = None
    cull_time: Optional[float] = None
    cull_fraction: float = 0.0
    census: "CensusSpec | str" = "oracle"
    description: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "census", CensusSpec.coerce(self.census))
        if self.cull_time is not None:
            if not self.cull_time > 0:
                raise ValueError(
                    f"cull_time must be > 0, got {self.cull_time}"
                )
            if not 0.0 <= self.cull_fraction <= 1.0:
                raise ValueError(
                    f"cull_fraction must be in [0, 1], got {self.cull_fraction}"
                )
        elif self.cull_fraction != 0.0:
            raise ValueError("cull_fraction requires cull_time")
        classes = tuple(self.classes)
        names = [cls.name for cls in classes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate class names: {names}")
        if classes and sum(cls.arrival_fraction for cls in classes) <= 0:
            raise ValueError("total arrival_fraction over classes must be > 0")
        num_pieces = self.params.num_pieces
        full = PieceSet.full(num_pieces)
        for cls in classes:
            mix = cls.arrival_mix if cls.arrival_mix is not None else self.params.arrival_rates
            for type_c in mix:
                if type_c.num_pieces != num_pieces:
                    raise ValueError(
                        f"class {cls.name!r}: arrival type {type_c!r} does "
                        f"not match K={num_pieces}"
                    )
            if cls.immediate_departure and mix.get(full, 0.0) > 0:
                raise ValueError(
                    f"class {cls.name!r}: full-file arrivals are not allowed "
                    f"when the class departs immediately on completion"
                )
        object.__setattr__(self, "classes", classes)

    # -- derived ------------------------------------------------------------

    @property
    def num_classes(self) -> int:
        return max(len(self.classes), 1)

    @property
    def is_heterogeneous(self) -> bool:
        """True when the spec needs per-class bookkeeping in the kernels.

        A single class whose rates and mix coincide with the base parameters
        is *not* heterogeneous: the kernels then keep the legacy homogeneous
        code path (and its exact RNG-consumption pattern).
        """
        if not self.classes:
            return False
        if len(self.classes) > 1:
            return True
        only = self.classes[0]
        return (
            only.contact_rate != self.params.peer_rate
            or only.seed_departure_rate != self.params.seed_departure_rate
            or only.arrival_mix is not None
        )

    @property
    def has_schedules(self) -> bool:
        """True when either schedule deviates from the constant-1 profile."""
        return not (
            self.arrival_schedule.is_trivial and self.seed_schedule.is_trivial
        )

    @property
    def has_overlay(self) -> bool:
        """True when contacts are restricted to a non-complete overlay."""
        return self.topology is not None and not self.topology.is_complete

    @property
    def has_cull(self) -> bool:
        """True when a flash-exit cull is scheduled."""
        return self.cull_time is not None

    @property
    def has_gossip(self) -> bool:
        """True when policies read a gossip-estimated census."""
        return not self.census.is_oracle

    @property
    def is_trivial(self) -> bool:
        """True when the spec is exactly the homogeneous constant-rate model."""
        return (
            not self.is_heterogeneous
            and not self.has_schedules
            and not self.has_overlay
            and not self.has_cull
            and not self.has_gossip
        )

    def class_fractions(self) -> Tuple[float, ...]:
        """Normalised arrival fractions over the classes (``(1.0,)`` when
        homogeneous)."""
        if not self.classes:
            return (1.0,)
        total = sum(cls.arrival_fraction for cls in self.classes)
        return tuple(cls.arrival_fraction / total for cls in self.classes)

    def class_arrival_types(self) -> Tuple[Tuple[Tuple[PieceSet, float], ...], ...]:
        """Per class: the ``(type, probability)`` pairs in canonical order."""
        result = []
        for cls in self.classes or (self.homogeneous_class(),):
            mix = cls.arrival_mix if cls.arrival_mix is not None else self.params.arrival_rates
            total = sum(mix.values())
            result.append(
                tuple((type_c, mix[type_c] / total) for type_c in sorted(mix))
            )
        return tuple(result)

    def homogeneous_class(self) -> PeerClass:
        """The single class equivalent to the base parameters."""
        return PeerClass(
            name="base",
            contact_rate=self.params.peer_rate,
            seed_departure_rate=self.params.seed_departure_rate,
            arrival_fraction=1.0,
        )

    def effective_classes(self) -> Tuple[PeerClass, ...]:
        """``classes`` or the singleton base class when homogeneous."""
        return self.classes or (self.homogeneous_class(),)

    @property
    def peak_arrival_rate(self) -> float:
        """``λ_total`` times the largest arrival-schedule factor."""
        return self.params.lambda_total * self.arrival_schedule.max_value

    @property
    def peak_seed_rate(self) -> float:
        """``U_s`` times the largest seed-schedule factor."""
        return self.params.seed_rate * self.seed_schedule.max_value

    def describe(self) -> str:
        """Multi-line human-readable summary of the scenario."""
        lines = [f"scenario {self.name!r}: {self.description or '(no description)'}"]
        lines.append(self.params.describe())
        for cls, fraction in zip(self.effective_classes(), self.class_fractions()):
            gamma = "inf" if cls.immediate_departure else f"{cls.seed_departure_rate:g}"
            lines.append(
                f"  class {cls.name!r}: mu={cls.contact_rate:g} gamma={gamma} "
                f"arrival share {fraction:.0%}"
            )
        lines.append(
            f"  arrival schedule: {_format_schedule(self.arrival_schedule)}"
        )
        lines.append(f"  seed schedule: {_format_schedule(self.seed_schedule)}")
        if self.has_overlay:
            lines.append(
                f"  topology: {self.topology.kind} degree={self.topology.degree}"
            )
        if self.has_cull:
            lines.append(
                f"  flash exit: {self.cull_fraction:.0%} of incomplete peers "
                f"at t={self.cull_time:g}"
            )
        if self.has_gossip:
            lines.append(f"  census: {self.census.describe()}")
        return "\n".join(lines)

    @classmethod
    def homogeneous(cls, params: SystemParameters, name: str = "homogeneous") -> "ScenarioSpec":
        """The trivial scenario reproducing ``run_swarm(params, ...)`` exactly."""
        return cls(name=name, params=params)


def _format_schedule(schedule: RateSchedule) -> str:
    if schedule.is_constant:
        return f"constant x{schedule.values[0]:g}"
    segments = [
        f"[{time:g},..)x{value:g}"
        for time, value in zip(schedule.times, schedule.values)
    ]
    return " ".join(segments)


# ---------------------------------------------------------------------------
# Named-scenario registry
# ---------------------------------------------------------------------------


ScenarioFactory = Callable[..., ScenarioSpec]

_SCENARIO_REGISTRY: Dict[str, ScenarioFactory] = {}


def register_scenario(name: str, factory: ScenarioFactory) -> None:
    """Register a parameterised scenario factory under ``name``."""
    _SCENARIO_REGISTRY[name] = factory


def make_scenario(name: str, **overrides) -> ScenarioSpec:
    """Build a registered scenario, forwarding keyword overrides.

    Raises
    ------
    ValueError
        When ``name`` is not registered; the message lists every registered
        scenario name.
    """
    factory = _SCENARIO_REGISTRY.get(name)
    if factory is None:
        raise ValueError(
            f"unknown scenario {name!r}; registered scenarios: "
            f"{', '.join(sorted(_SCENARIO_REGISTRY))}"
        )
    return factory(**overrides)


def registered_scenarios() -> List[str]:
    """Names of all registered scenarios."""
    return sorted(_SCENARIO_REGISTRY)


def base_params(
    num_pieces: int = 5,
    arrival_rate: float = 1.2,
    seed_rate: float = 1.0,
    peer_rate: float = 1.0,
    seed_departure_rate: float = 2.0,
) -> SystemParameters:
    """The registry's shared base parameter set (empty-handed arrivals).

    Defaults sit inside the Theorem-1 stability region (threshold
    ``U_s/(1 - µ/γ) = 2 > λ = 1.2``), so the surge/outage scenarios cross
    the boundary mid-run rather than starting on it.  The fleet layer uses
    the same constructor for its "plain" (scenario-less) swarms, keeping
    fleet cells comparable across the scenario mix.
    """
    return SystemParameters.flash_crowd(
        num_pieces=num_pieces,
        arrival_rate=arrival_rate,
        seed_rate=seed_rate,
        peer_rate=peer_rate,
        seed_departure_rate=seed_departure_rate,
    )


def flash_crowd_scenario(
    surge_start: float = 20.0,
    surge_end: float = 50.0,
    surge_factor: float = 8.0,
    census: "CensusSpec | str" = "oracle",
    **params_kwargs,
) -> ScenarioSpec:
    """Arrivals surge by ``surge_factor`` on ``[surge_start, surge_end)``."""
    return ScenarioSpec(
        name="flash-crowd",
        params=base_params(**params_kwargs),
        arrival_schedule=RateSchedule.pulse(surge_start, surge_end, surge_factor),
        census=census,
        description=(
            f"arrival rate x{surge_factor:g} during [{surge_start:g}, {surge_end:g})"
        ),
    )


def seed_outage_scenario(
    outage_start: float = 20.0,
    outage_end: float = 60.0,
    census: "CensusSpec | str" = "oracle",
    **params_kwargs,
) -> ScenarioSpec:
    """The fixed seed goes dark on ``[outage_start, outage_end)``."""
    return ScenarioSpec(
        name="seed-outage",
        params=base_params(**params_kwargs),
        seed_schedule=RateSchedule.outage(outage_start, outage_end),
        census=census,
        description=(
            f"fixed seed offline during [{outage_start:g}, {outage_end:g})"
        ),
    )


def heterogeneous_classes_scenario(
    fast_contact_rate: float = 2.0,
    slow_contact_rate: float = 0.5,
    fast_fraction: float = 0.3,
    census: "CensusSpec | str" = "oracle",
    **params_kwargs,
) -> ScenarioSpec:
    """Two peer classes: a fast minority and a slow majority."""
    params = base_params(**params_kwargs)
    gamma = params.seed_departure_rate
    return ScenarioSpec(
        name="heterogeneous-classes",
        params=params,
        classes=(
            PeerClass(
                name="fast",
                contact_rate=fast_contact_rate,
                seed_departure_rate=gamma,
                arrival_fraction=fast_fraction,
            ),
            PeerClass(
                name="slow",
                contact_rate=slow_contact_rate,
                seed_departure_rate=gamma,
                arrival_fraction=1.0 - fast_fraction,
            ),
        ),
        census=census,
        description=(
            f"{fast_fraction:.0%} fast peers (mu={fast_contact_rate:g}) vs "
            f"slow peers (mu={slow_contact_rate:g})"
        ),
    )


def diurnal_scenario(
    period: float = 40.0,
    high: float = 3.0,
    low: float = 0.3,
    horizon: float = 200.0,
    census: "CensusSpec | str" = "oracle",
    **params_kwargs,
) -> ScenarioSpec:
    """Arrivals alternate between a busy and a quiet half-period.

    ``horizon`` bounds the alternation (the last phase's factor holds
    beyond it) — pass a value covering the intended simulation horizon.
    """
    return ScenarioSpec(
        name="diurnal",
        params=base_params(**params_kwargs),
        arrival_schedule=RateSchedule.square_wave(period, high, low, horizon),
        census=census,
        description=(
            f"square-wave arrivals x{high:g}/x{low:g} with period {period:g}"
        ),
    )


def high_churn_scenario(
    patient_gamma: float = 1.0,
    impatient_fraction: float = 0.6,
    census: "CensusSpec | str" = "oracle",
    **params_kwargs,
) -> ScenarioSpec:
    """A majority of completing peers leave instantly; the rest dwell."""
    params = base_params(**params_kwargs)
    mu = params.peer_rate
    return ScenarioSpec(
        name="high-churn",
        params=params,
        classes=(
            PeerClass(
                name="impatient",
                contact_rate=mu,
                seed_departure_rate=math.inf,
                arrival_fraction=impatient_fraction,
            ),
            PeerClass(
                name="patient",
                contact_rate=mu,
                seed_departure_rate=patient_gamma,
                arrival_fraction=1.0 - impatient_fraction,
            ),
        ),
        census=census,
        description=(
            f"{impatient_fraction:.0%} of peers depart on completion, the "
            f"rest dwell with gamma={patient_gamma:g}"
        ),
    )


def free_rider_scenario(
    leech_fraction: float = 0.6,
    leech_contact_rate: float = 0.02,
    leech_departure_rate: Optional[float] = None,
    census: "CensusSpec | str" = "oracle",
    **params_kwargs,
) -> ScenarioSpec:
    """Free riders: a class that uploads at ``µ_c ≈ 0`` but downloads normally.

    Downloads are driven by *other* peers' contact clocks, so a free rider
    still fills its collection at the usual pace — it just contributes almost
    no upload capacity back.  By default free riders also leave the instant
    they complete the file (``γ_c = ∞``), the classic leeching profile;
    contributors keep the base rates.  ``leech_fraction`` is the share of
    arrivals that are free riders.  Enough leeching starves the rare piece's
    replication and tips an otherwise Theorem-1-stable swarm into the
    one-club regime.

    The contributor class is listed first so that peers pre-seeded from an
    ``initial_state`` (class 0 by convention) are contributors, not leeches.
    """
    if not 0.0 <= leech_fraction < 1.0:
        raise ValueError(
            f"leech_fraction must be in [0, 1), got {leech_fraction}"
        )
    params = base_params(**params_kwargs)
    return ScenarioSpec(
        name="free-rider",
        params=params,
        classes=(
            PeerClass(
                name="contributor",
                contact_rate=params.peer_rate,
                seed_departure_rate=params.seed_departure_rate,
                arrival_fraction=1.0 - leech_fraction,
            ),
            PeerClass(
                name="free-rider",
                contact_rate=leech_contact_rate,
                seed_departure_rate=(
                    math.inf if leech_departure_rate is None else leech_departure_rate
                ),
                arrival_fraction=leech_fraction,
            ),
        ),
        census=census,
        description=(
            f"{leech_fraction:.0%} free riders uploading at "
            f"mu={leech_contact_rate:g} (downloads unimpaired)"
        ),
    )


def sparse_overlay_scenario(
    topology: str = "random-regular",
    degree: int = 8,
    max_degree: Optional[int] = None,
    census: "CensusSpec | str" = "oracle",
    **params_kwargs,
) -> ScenarioSpec:
    """Contacts restricted to a sparse overlay graph.

    ``topology`` picks any non-partitioned generator from
    :data:`repro.swarm.topology.TOPOLOGY_KINDS` (``"complete"`` reduces to
    the legacy uniform-contact swarm on the shared base parameters).
    """
    spec = TopologySpec(kind=topology, degree=degree, max_degree=max_degree)
    return ScenarioSpec(
        name="sparse-overlay",
        params=base_params(**params_kwargs),
        topology=None if spec.is_complete else spec,
        census=census,
        description=(
            f"contact ticks restricted to a {topology} overlay of "
            f"degree {degree}"
        ),
    )


def partitioned_scenario(
    num_components: int = 3,
    bridge_prob: float = 0.05,
    degree: int = 8,
    census: "CensusSpec | str" = "oracle",
    **params_kwargs,
) -> ScenarioSpec:
    """Weakly-bridged overlay components: arrivals are assigned round-robin
    to ``num_components`` clusters and wire ``degree`` edges, each crossing
    components with probability ``bridge_prob``."""
    return ScenarioSpec(
        name="partitioned",
        params=base_params(**params_kwargs),
        topology=TopologySpec(
            kind="partitioned",
            degree=degree,
            num_components=num_components,
            bridge_prob=bridge_prob,
        ),
        census=census,
        description=(
            f"{num_components} overlay components bridged with "
            f"probability {bridge_prob:g}"
        ),
    )


def flash_exit_scenario(
    exit_time: float = 30.0,
    exit_fraction: float = 0.5,
    topology: Optional[str] = None,
    degree: int = 8,
    census: "CensusSpec | str" = "oracle",
    **params_kwargs,
) -> ScenarioSpec:
    """Correlated churn: at ``exit_time`` every incomplete peer departs
    independently with probability ``exit_fraction``.

    ``topology`` optionally runs the flash exit on a contact overlay (any
    non-partitioned kind); the default keeps the complete contact graph.
    """
    topo = None
    if topology is not None and topology != "complete":
        topo = TopologySpec(kind=topology, degree=degree)
    return ScenarioSpec(
        name="flash-exit",
        params=base_params(**params_kwargs),
        topology=topo,
        cull_time=exit_time,
        cull_fraction=exit_fraction,
        census=census,
        description=(
            f"{exit_fraction:.0%} of incomplete peers exit at t={exit_time:g}"
            + (f" on a {topology} overlay" if topo is not None else "")
        ),
    )


register_scenario("flash-crowd", flash_crowd_scenario)
register_scenario("seed-outage", seed_outage_scenario)
register_scenario("heterogeneous-classes", heterogeneous_classes_scenario)
register_scenario("diurnal", diurnal_scenario)
register_scenario("high-churn", high_churn_scenario)
register_scenario("free-rider", free_rider_scenario)
register_scenario("sparse-overlay", sparse_overlay_scenario)
register_scenario("partitioned", partitioned_scenario)
register_scenario("flash-exit", flash_exit_scenario)


__all__ = [
    "PeerClass",
    "RateSchedule",
    "ScenarioSpec",
    "ScenarioFactory",
    "base_params",
    "flash_crowd_scenario",
    "seed_outage_scenario",
    "heterogeneous_classes_scenario",
    "diurnal_scenario",
    "high_churn_scenario",
    "free_rider_scenario",
    "sparse_overlay_scenario",
    "partitioned_scenario",
    "flash_exit_scenario",
    "make_scenario",
    "register_scenario",
    "registered_scenarios",
]
