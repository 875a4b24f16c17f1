"""Peer-level swarm simulators (uncoded and network-coded).

* :mod:`repro.swarm.peer` / :mod:`repro.swarm.swarm` — the object-per-peer
  reference discrete-event simulation of the Section-III model;
* :mod:`repro.swarm.kernel` — the structure-of-arrays fast backend,
  trajectory-equivalent to the reference simulator under a shared seed;
* :mod:`repro.swarm.stacked` — the fleet mega-kernel driving many
  independent array-kernel swarms through one round-based loop, each lane
  bit-identical to its solo run;
* :mod:`repro.swarm.policies` — piece-selection policies (Theorem 14), with
  both ``PieceSet``-level and mask-level entry points, reading the piece
  census through the ``CensusSource`` seam;
* :mod:`repro.swarm.gossip` — the flow-updating gossip census estimator
  behind ``ScenarioSpec(census="gossip")``;
* :mod:`repro.swarm.groups` — the Figure-2 group decomposition;
* :mod:`repro.swarm.metrics` — collected statistics;
* :mod:`repro.swarm.network_coding` — the random-linear-coding variant
  (Theorem 15).

Backend selection goes through :func:`repro.swarm.swarm.make_simulator` /
``run_swarm(..., backend="object" | "array")``.
"""

from .. import _lazy

__getattr__, __dir__ = _lazy.lazy_exports(
    __name__,
    {
        ".drawbuf": ("DEFAULT_BLOCK_SIZE", "DrawBuffer"),
        ".gossip": (
            "CENSUS_KINDS",
            "CensusSpec",
            "GossipCensus",
            "GossipState",
            "build_gossip",
        ),
        ".groups": ("GroupSnapshot", "PeerGroup", "classify_peer", "group_counts"),
        ".kernel": ("ArraySwarmKernel",),
        ".metrics": ("SwarmMetrics",),
        ".network_coding": (
            "CodedArrivalSpec",
            "CodedSwarmResult",
            "CodedSwarmSimulator",
            "gifted_fraction_arrivals",
        ),
        ".peer": ("Peer",),
        ".policies": (
            "CallablePolicy",
            "CensusSource",
            "MostCommonFirstSelection",
            "OracleCensus",
            "PieceSelectionPolicy",
            "RandomUsefulSelection",
            "RarestFirstSelection",
            "SequentialSelection",
            "SwarmView",
            "make_policy",
            "registered_policies",
        ),
        ".stacked": ("StackedSwarmKernel",),
        ".topology": (
            "TOPOLOGY_KINDS",
            "OverlayState",
            "TopologySpec",
            "build_overlay",
        ),
        ".swarm": (
            "BACKENDS",
            "MAX_ARRAY_BACKEND_PIECES",
            "SwarmResult",
            "SwarmSimulator",
            "make_simulator",
            "run_swarm",
        ),
    },
)

__all__ = [
    "ArraySwarmKernel",
    "BACKENDS",
    "CENSUS_KINDS",
    "MAX_ARRAY_BACKEND_PIECES",
    "CallablePolicy",
    "CensusSource",
    "CensusSpec",
    "CodedArrivalSpec",
    "CodedSwarmResult",
    "CodedSwarmSimulator",
    "DEFAULT_BLOCK_SIZE",
    "DrawBuffer",
    "GossipCensus",
    "GossipState",
    "GroupSnapshot",
    "MostCommonFirstSelection",
    "OracleCensus",
    "OverlayState",
    "Peer",
    "PeerGroup",
    "PieceSelectionPolicy",
    "RandomUsefulSelection",
    "RarestFirstSelection",
    "SequentialSelection",
    "StackedSwarmKernel",
    "SwarmMetrics",
    "TOPOLOGY_KINDS",
    "TopologySpec",
    "SwarmResult",
    "SwarmSimulator",
    "SwarmView",
    "build_gossip",
    "build_overlay",
    "classify_peer",
    "gifted_fraction_arrivals",
    "group_counts",
    "make_policy",
    "make_simulator",
    "registered_policies",
    "run_swarm",
]
