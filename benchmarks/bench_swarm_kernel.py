"""Kernel smoke benchmarks: array vs. object backend in both regimes.

Measures events/second of both simulation backends on the shared
``BENCH_WORKLOAD`` (10 000 one-club peers, ``K = 10``; captured regime) and
on ``STABLE_BENCH_WORKLOAD`` (the stable-side Theorem-1 point, ~650 peers,
mostly real transfers), and checks the invariants the kernels promise: the
backends produce identical trajectories from the same seed, and the
structure-of-arrays kernel is faster in both regimes.  The full baseline
(including the exact numbers of this run) lands in ``BENCH_swarm.json`` via
the session-finish hook in ``conftest.py``.
"""

from conftest import (
    BENCH_WORKLOAD,
    measure_backend_throughput,
    measure_stable_throughput,
    run_once,
)


def test_kernel_throughput_smoke(benchmark, capsys):
    object_run = measure_backend_throughput("object")
    array_run = run_once(benchmark, measure_backend_throughput, backend="array")
    speedup = array_run["events_per_second"] / object_run["events_per_second"]
    with capsys.disabled():
        print()
        print(
            f"swarm kernel smoke ({BENCH_WORKLOAD['initial_one_club']} peers, "
            f"K={BENCH_WORKLOAD['num_pieces']}): "
            f"object {object_run['events_per_second']:,.0f} ev/s, "
            f"array {array_run['events_per_second']:,.0f} ev/s "
            f"({speedup:.1f}x)"
        )
    # Identical final populations: the backends are trajectory-equivalent.
    assert array_run["final_population"] == object_run["final_population"]
    # The acceptance bar is 5x; assert a conservative 3x so a noisy CI
    # machine cannot flake the suite while still catching real regressions.
    assert speedup >= 3.0


def test_stable_kernel_throughput_smoke(benchmark, capsys):
    """The stable-regime section: ~650 peers, mostly real transfers."""
    object_run = measure_stable_throughput("object")
    array_run = run_once(benchmark, measure_stable_throughput, backend="array")
    speedup = array_run["events_per_second"] / object_run["events_per_second"]
    gate = array_run["batch_stage"]
    with capsys.disabled():
        print()
        print(
            f"stable swarm kernel ({array_run['events']:,} timed events, "
            f"~{array_run['final_population']} peers): "
            f"object {object_run['events_per_second']:,.0f} ev/s, "
            f"array {array_run['events_per_second']:,.0f} ev/s "
            f"({speedup:.1f}x); batch stage: {gate['probes_run']:,} probes, "
            f"{gate['probes_skipped']:,} skipped, "
            f"{gate['events_batched']:,} events batched; "
            f"{array_run['rate_refreshes']:,} rate refreshes"
        )
    assert array_run["final_population"] == object_run["final_population"]
    # Nearly every probe fails here, so the yield gate skips most entries.
    assert gate["probes_skipped"] > 10 * gate["probes_run"]
    # Without the gate the array kernel ran at ~0.6x the object reference;
    # a conservative bar that still catches that regression.
    assert speedup >= 1.2
