"""One measurement in a fresh interpreter; its last stdout line is JSON.

``run.py`` starts one of these per measurement, so nothing memoised in
process (materialised fleet tasks, Theorem-1 verdicts) carries over from an
earlier call: every measurement pays what a user's first call pays.

    python3 perfbench/child.py MODE WORKLOAD SEED WORKDIR [--size full|tiny]

MODE is one of

* ``user`` — the untraced user call at its own worker count;
* ``serial`` — the same call at ``workers = 1`` with the chunking of the
  ``workers = nproc`` call (the baseline of tracing overhead and parallel
  efficiency);
* ``stacked`` — the fleet call with ``stacked=True`` at ``workers = nproc``;
* ``replay`` — the traced replay at ``workers = 1``, then the runner's
  fan-out cost and, for trials, the object-backend reference.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (standard library only at import time)


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def _percentile(values, fraction: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def measure_user(mode: str, name: str, seed: int, workdir: Path, size: str) -> dict:
    call = workloads.entry_point(name)
    inputs = workloads.build_inputs(name, size)
    kind = workloads.kind_of(name)
    workers = workloads.user_workers(name)
    chunk_size = None
    if mode == "serial":
        workers = 1
        if kind != "trial":
            chunk_size = workloads.user_chunk_size(name, inputs)
    ready_at = time.monotonic()
    start = time.perf_counter()
    output = workloads.user_call(
        name, call, inputs, seed, workers, workdir, chunk_size=chunk_size,
        stacked=mode == "stacked",
    )
    wall = time.perf_counter() - start
    summary = workloads.summarize(name, output)
    return {
        "ready_at": ready_at,
        "wall_s": wall,
        "rss_mb": _peak_rss_mb(),
        "errors": workloads.check_summary(name, summary),
        **summary,
    }


def measure_replay(name: str, seed: int, workdir: Path, size: str) -> dict:
    start = time.perf_counter()
    import replay  # the library modules the replay calls into

    import_s = time.perf_counter() - start
    inputs = workloads.build_inputs(name, size)
    kind = workloads.kind_of(name)
    chunk_size = 1 if kind == "trial" else workloads.user_chunk_size(name, inputs)
    output, tracer, counts, extras = replay.replay(name, inputs, seed, workdir, chunk_size)
    summary = workloads.summarize(name, output)
    errors = workloads.check_summary(name, summary)
    kernel_ms = [1e3 * d for d in tracer.durations("kernel.run")]
    payload = {
        "import_s": import_s,
        "window_s": extras["window_s"],
        "covered_s": tracer.covered(),
        "spans": tracer.totals(),
        "counts": counts,
        "swarm_p50_ms": statistics.median(kernel_ms),
        "swarm_p90_ms": _percentile(kernel_ms, 0.9),
        "rounds": extras["rounds"],
        "persistence": {
            key: extras.get(key, 0)
            for key in ("log_appends", "log_bytes", "checkpoints", "checkpoint_bytes")
        },
        "fanout": replay.fanout(
            extras["payloads"], extras["results"], workloads.user_workers(name)
        ),
    }
    if kind == "trial":
        payload["object_events_per_s"], reference_errors = replay.object_reference(
            name, inputs, seed
        )
        errors += reference_errors
    payload["errors"] = errors
    payload.update(summary)
    return payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("user", "serial", "stacked", "replay"))
    parser.add_argument("workload", choices=workloads.WORKLOADS)
    parser.add_argument("seed", type=int)
    parser.add_argument("workdir", type=Path)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    args = parser.parse_args(argv)
    args.workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.mode == "replay":
            payload = measure_replay(args.workload, args.seed, args.workdir, args.size)
        else:
            payload = measure_user(
                args.mode, args.workload, args.seed, args.workdir, args.size
            )
    except Exception as error:  # reported to run.py as a failed unit
        traceback.print_exc()
        units = workloads.units(args.workload, args.size)
        payload = {
            "errors": [f"{args.mode} run raised {type(error).__name__}: {error}"],
            "attempted": units,
            "failed": units,
        }
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
