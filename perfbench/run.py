"""Repository benchmark: stability trials, a fleet census and an adaptive map.

    python3 perfbench/run.py --workload trial-stable --seed 7 --seconds 20 --trace 0

Run from anywhere inside a checkout of the repository (the library is
imported from ``src/`` next to this directory).  Every measurement runs in
a fresh interpreter (``child.py``), so in-process memos never make a second
call cheaper than a user's first one.

``--trace 0`` repeats the untraced user call for ``--seconds`` (at least
three times) and reports the medians of the end-to-end metrics.
``--trace 1`` repeats, for ``--seconds`` (at least once), the untraced call,
its ``workers = 1`` twin, the stacked variant (fleet census) and the traced
replay, and reports the per-layer metrics.  Both modes check the outputs and
fail the run (``"correct": false``, exit code 1) on a mismatch.  Each mode
prints every metric by name with its unit, then one JSON line last.

The default seed is 7; seed 4099 is held out for confirming later claims.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (standard library only at import time)

DEFAULT_SEED = 7
HELD_OUT_SEED = 4099

#: Untraced user calls per run, at least (their median is reported).
MIN_CALLS = 3

#: No single measurement may run longer than this (seconds).
CHILD_TIMEOUT = 150.0

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("events_per_s", "ev/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

PER_LAYER = (
    ("setup.import_s", "s", "lower"),
    ("core.analyze_s", "s", "lower"),
    ("classify.classify_s", "s", "lower"),
    ("swarm.build_s", "s", "lower"),
    ("swarm.seed_population_s", "s", "lower"),
    ("kernel.run_s", "s", "lower"),
    ("kernel.share", "ratio", "lower"),
    ("kernel.events_per_s", "ev/s", "higher"),
    ("kernel.events", "count", "higher"),
    ("kernel.transfers", "count", "higher"),
    ("kernel.wasted_contacts", "count", "lower"),
    ("kernel.useful_ratio", "ratio", "higher"),
    ("kernel.arrivals", "count", "higher"),
    ("kernel.departures", "count", "higher"),
    ("kernel.thinned", "count", "lower"),
    ("kernel.samples", "count", "higher"),
    ("kernel.swarm_p50_ms", "ms", "lower"),
    ("kernel.swarm_p90_ms", "ms", "lower"),
    ("swarm.object_events_per_s", "ev/s", "higher"),
    ("kernel.speedup_over_object", "ratio", "higher"),
    ("stacked.run_s", "s", "lower"),
    ("stacked.speedup_over_per_swarm", "ratio", "higher"),
    ("fleet.materialize_s", "s", "lower"),
    ("fleet.record_s", "s", "lower"),
    ("fleet.add_s", "s", "lower"),
    ("fleet.log_append_s", "s", "lower"),
    ("fleet.log_fsync_s", "s", "lower"),
    ("fleet.log_appends", "count", "lower"),
    ("fleet.log_bytes", "B", "lower"),
    ("fleet.checkpoint_s", "s", "lower"),
    ("fleet.checkpoints", "count", "lower"),
    ("fleet.checkpoint_bytes", "B", "lower"),
    ("fleet.acquire_s", "s", "lower"),
    ("fleet.rounds", "count", "lower"),
    ("runner.fanout_s", "s", "lower"),
    ("runner.pool_starts", "count", "lower"),
    ("runner.chunks", "count", "lower"),
    ("runner.ipc_bytes", "B", "lower"),
    ("runner.parallel_efficiency", "ratio", "higher"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead_s", "s", "lower"),
)

#: Per-layer metrics that are a pure function of (code, seed): every
#: traced replay of a run must report them identically.
EXACT = (
    "kernel.events",
    "kernel.transfers",
    "kernel.wasted_contacts",
    "kernel.useful_ratio",
    "kernel.arrivals",
    "kernel.departures",
    "kernel.thinned",
    "kernel.samples",
)


# -- measurements ----------------------------------------------------------------


class Session:
    """Child processes of one benchmark run, and where they may write."""

    def __init__(self, workload: str, seed: int, size: str, deadline: float):
        self.workload = workload
        self.seed = seed
        self.size = size
        self.deadline = deadline
        self.workdir = ROOT / ".perfbench_work" / str(os.getpid())
        self.count = 0

    def child(self, mode: str) -> dict:
        """Run one ``child.py`` measurement; returns its JSON payload.

        ``setup_s`` is measured from just before the process starts to the
        moment the child is ready for its timed call (``CLOCK_MONOTONIC`` is
        shared between processes).  The child runs in its own session so
        that it and any pool workers it leaves are killed together.
        """
        self.count += 1
        command = [
            sys.executable, str(HERE / "child.py"), mode, self.workload,
            str(self.seed), str(self.workdir / f"{self.count}-{mode}"),
            "--size", self.size,
        ]
        timeout = max(1.0, min(CHILD_TIMEOUT, self.deadline - time.monotonic()))
        spawned = time.monotonic()
        process = subprocess.Popen(
            command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        try:
            stdout, _ = process.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            stdout = ""
        finally:
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            process.wait()
        lines = stdout.strip().splitlines()
        try:
            payload = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            return {
                "mode": mode,
                "errors": [f"{mode} measurement gave no result (exit {process.returncode})"],
                "attempted": workloads.units(self.workload, self.size),
                "failed": workloads.units(self.workload, self.size),
            }
        payload["mode"] = mode
        if "ready_at" in payload:
            payload["setup_s"] = payload["ready_at"] - spawned
        return payload

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            self.workdir.parent.rmdir()
        except OSError:
            pass


def compare_exact(reference: Dict[str, float], other: Dict[str, float]) -> List[str]:
    """Names of exact metrics whose values differ between two replays."""
    return [
        f"exact count {name} changed: {reference.get(name)} -> {other.get(name)}"
        for name in EXACT
        if reference.get(name) != other.get(name)
    ]


def check_same_outputs(children: List[dict]) -> List[str]:
    """Every measurement of one run must produce the same outputs."""
    errors: List[str] = []
    for child in children:
        errors += [f"{child['mode']}: {error}" for error in child.get("errors", [])]
    done = [child for child in children if "digest" in child]
    if not done:
        return errors
    reference = done[0]
    for child in done[1:]:
        if child["digest"] != reference["digest"]:
            label = (
                "traced replay does not reproduce the untraced outputs"
                if child["mode"] == "replay"
                else f"{child['mode']} run changed the outputs"
            )
            errors.append(f"{label} (digest {child['digest']} != {reference['digest']})")
        if child["events"] != reference["events"]:
            errors.append(
                f"{child['mode']} run executed {child['events']} events, "
                f"not {reference['events']}"
            )
    return errors


def layer_metrics(rep: Dict[str, dict], workers: int) -> Dict[str, float]:
    """Per-layer values of one traced repetition."""
    replay = rep["replay"]
    user = rep["user"]
    serial = rep.get("serial", user)
    stacked = rep.get("stacked")
    window = replay["window_s"]
    # Span ``<layer>`` sums into metric ``<layer>_s``; layers the workload
    # does not enter read 0.
    values: Dict[str, float] = {
        metric: 0.0 for metric, unit, _better in PER_LAYER if unit == "s"
    }
    values.update({f"{span}_s": seconds for span, seconds in replay["spans"].items()})
    counts = replay["counts"]
    values.update(counts)
    kernel_s = values["kernel.run_s"]
    kernel_rate = counts["kernel.events"] / kernel_s
    contacts = counts["kernel.transfers"] + counts["kernel.wasted_contacts"]
    object_rate = replay.get("object_events_per_s", 0.0)
    user_wall = user["wall_s"]
    serial_wall = serial["wall_s"]
    stacked_wall = stacked["wall_s"] if stacked else 0.0
    persistence = replay["persistence"]
    values.update({
        "setup.import_s": replay["import_s"],
        "kernel.share": kernel_s / window,
        "kernel.events_per_s": kernel_rate,
        "kernel.useful_ratio": counts["kernel.transfers"] / contacts if contacts else 0.0,
        "kernel.swarm_p50_ms": replay["swarm_p50_ms"],
        "kernel.swarm_p90_ms": replay["swarm_p90_ms"],
        "swarm.object_events_per_s": object_rate,
        "kernel.speedup_over_object": kernel_rate / object_rate if object_rate else 0.0,
        "stacked.run_s": stacked_wall,
        "stacked.speedup_over_per_swarm": user_wall / stacked_wall if stacked else 0.0,
        "fleet.log_appends": persistence["log_appends"],
        "fleet.log_bytes": persistence["log_bytes"],
        "fleet.checkpoints": persistence["checkpoints"],
        "fleet.checkpoint_bytes": persistence["checkpoint_bytes"],
        "fleet.rounds": replay["rounds"],
        "runner.parallel_efficiency": serial_wall / (workers * user_wall),
        "trace.coverage": replay["covered_s"] / window,
        "trace.overhead_s": window - serial_wall,
    })
    values.update(replay["fanout"])
    return values


def _units_count(children: List[dict]) -> "tuple[int, int]":
    calls = [child for child in children if child["mode"] != "replay"]
    attempted = sum(child.get("attempted", 0) for child in calls)
    failed = sum(child.get("failed", 0) for child in calls)
    return max(attempted, 1), failed


def measure_untraced(session: Session, seconds: float) -> dict:
    start = time.monotonic()
    calls: List[dict] = []
    while True:
        calls.append(session.child("user"))
        elapsed = time.monotonic() - start
        if "wall_s" not in calls[-1]:
            break
        if len(calls) >= MIN_CALLS and elapsed * (len(calls) + 1) / len(calls) > seconds:
            break
    errors = check_same_outputs(calls)
    done = [call for call in calls if "wall_s" in call]
    values: Dict[str, float] = {}
    if done:
        values = {
            "setup_s": statistics.median(call["setup_s"] for call in done),
            "wall_s": statistics.median(call["wall_s"] for call in done),
            "events_per_s": statistics.median(
                call["events"] / call["wall_s"] for call in done
            ),
            "peak_rss_mb": statistics.median(call["rss_mb"] for call in done),
        }
    attempted, failed = _units_count(calls)
    return {
        "errors": errors,
        "attempted": attempted,
        "failed": failed,
        "values": values,
        "table": END_TO_END,
        "notes": {
            "digest": done[0]["digest"] if done else None,
            "wall_s per call": [round(call["wall_s"], 3) for call in done],
            "setup_s per call": [round(call["setup_s"], 3) for call in done],
        },
    }


def measure_traced(session: Session, seconds: float) -> dict:
    name = session.workload
    kind = workloads.kind_of(name)
    modes = ["user"]
    if kind != "trial":
        modes.append("serial")
    if name == "fleet-census":
        modes.append("stacked")
    modes.append("replay")
    start = time.monotonic()
    reps: List[Dict[str, dict]] = []
    children: List[dict] = []
    while True:
        rep = {mode: session.child(mode) for mode in modes}
        reps.append(rep)
        children += rep.values()
        elapsed = time.monotonic() - start
        if any("digest" not in child for child in rep.values()):
            break
        if elapsed * (len(reps) + 1) / len(reps) > seconds:
            break
    errors = check_same_outputs(children)
    values: Dict[str, float] = {}
    if not errors:
        workers = workloads.user_workers(name)
        per_rep = [layer_metrics(rep, workers) for rep in reps]
        for other in per_rep[1:]:
            errors += compare_exact(per_rep[0], other)
        replay = reps[0]["replay"]
        if replay["counts"]["kernel.events"] != replay["events"]:
            errors.append("kernel event counters disagree with the reported events")
        # median_low reports a measured value (and keeps counts integral).
        values = {
            metric: statistics.median_low(rep[metric] for rep in per_rep)
            for metric, _unit, _better in PER_LAYER
        }
    attempted, failed = _units_count(children)
    return {
        "errors": errors,
        "attempted": attempted,
        "failed": failed,
        "values": values,
        "table": PER_LAYER,
        "notes": {"repetitions": len(reps)},
    }


# -- entry point -----------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=tuple(workloads.SIZES), default="full",
        help="workload size preset (tiny is for the harness self-test)",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no library sources at {ROOT / 'src' / 'repro'}; run the "
            f"benchmark from a full checkout of the repository",
            file=sys.stderr,
        )
        return 2
    session = Session(args.workload, args.seed, args.size, time.monotonic() + 170.0)
    try:
        if args.trace:
            outcome = measure_traced(session, args.seconds)
        else:
            outcome = measure_untraced(session, args.seconds)
    finally:
        session.close()
    correct = not outcome["errors"] and bool(outcome["values"])
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: {outcome['notes']}")
    for error in outcome["errors"]:
        print(f"CHECK FAILED: {error}")
    metrics = {}
    for metric, unit, _better in outcome["table"]:
        value = outcome["values"].get(metric, 0.0)
        metrics[metric] = {"value": value, "unit": unit}
        print(f"{metric} = {value!r} {unit}")
    print(
        f"fail_frac = {outcome['failed'] / outcome['attempted']!r} ratio "
        f"({outcome['failed']} of {outcome['attempted']} failed)"
    )
    print(json.dumps({
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
