"""Self-test of the benchmark harness at tiny workload sizes.

    python3 perfbench/selftest.py

It times nothing; it checks that the harness measures the right thing:

* ``BENCHMARK.json`` names exactly the workloads and metrics ``run.py``
  reports;
* on every workload the traced replay reproduces the untraced user call
  (same output digest, same event count);
* the output checks pass good outputs and flag bad ones, including a trial
  verdict that contradicts Theorem 1;
* the exact-count comparison flags a deliberately perturbed count, and the
  replay-equality check flags a replay whose outputs differ;
* ``run.py`` prints a complete, correct result at the tiny size, and refuses
  (non-zero exit, no result line) in a directory without the library.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import replay  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEED = 7


class HarnessSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.workdir = ROOT / ".perfbench_work" / f"selftest-{os.getpid()}"
        cls.workdir.mkdir(parents=True, exist_ok=True)
        cls.outcomes = {}
        for name in workloads.WORKLOADS:
            inputs = workloads.build_inputs(name, "tiny")
            kind = workloads.kind_of(name)
            user = workloads.user_call(
                name, workloads.entry_point(name), inputs, SEED,
                workloads.user_workers(name),
                cls.workdir / f"{name}-user",
            )
            chunk_size = 1 if kind == "trial" else workloads.user_chunk_size(name, inputs)
            workdir = cls.workdir / f"{name}-replay"
            workdir.mkdir()
            output, tracer, counts, extras = replay.replay(
                name, inputs, SEED, workdir, chunk_size
            )
            cls.outcomes[name] = (
                workloads.summarize(name, user),
                workloads.summarize(name, output),
                counts,
            )

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.workdir, ignore_errors=True)
        try:
            cls.workdir.parent.rmdir()
        except OSError:  # another run is still using it
            pass

    def test_benchmark_json_matches_the_harness(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            [entry["name"] for entry in spec["workloads"]], list(workloads.WORKLOADS)
        )
        for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
            self.assertEqual(
                [(m["name"], m["unit"], m["better"]) for m in spec[key]],
                [tuple(row) for row in table],
            )

    def test_replay_reproduces_the_user_call(self):
        for name, (user, traced, counts) in self.outcomes.items():
            with self.subTest(workload=name):
                self.assertEqual(traced["digest"], user["digest"])
                self.assertEqual(traced["events"], user["events"])
                self.assertEqual(counts["kernel.events"], user["events"])

    def test_output_checks(self):
        for name in ("trial-captured", "fleet-census", "adaptive-map"):
            with self.subTest(workload=name):
                self.assertEqual(workloads.check_summary(name, self.outcomes[name][0]), [])
        # The tiny stable trial is too short to settle, so its empirical
        # verdict contradicts Theorem 1 — which the check must report.
        errors = workloads.check_summary("trial-stable", self.outcomes["trial-stable"][0])
        self.assertTrue(any("does not match the Theorem-1 verdict" in e for e in errors))
        fleet = dict(self.outcomes["fleet-census"][0], complete=False)
        self.assertTrue(workloads.check_summary("fleet-census", fleet))
        adaptive = dict(self.outcomes["adaptive-map"][0], stopped="boundary-stable")
        self.assertTrue(workloads.check_summary("adaptive-map", adaptive))
        failed = dict(self.outcomes["trial-captured"][0], failed=1)
        self.assertTrue(workloads.check_summary("trial-captured", failed))

    def test_perturbed_exact_count_is_flagged(self):
        counts = dict(self.outcomes["trial-captured"][2], **{"kernel.useful_ratio": 0.5})
        self.assertEqual(run.compare_exact(counts, dict(counts)), [])
        perturbed = dict(counts)
        perturbed["kernel.transfers"] += 1
        errors = run.compare_exact(counts, perturbed)
        self.assertEqual(len(errors), 1)
        self.assertIn("kernel.transfers", errors[0])

    def test_replay_mismatch_is_flagged(self):
        user, traced, _counts = self.outcomes["fleet-census"]
        children = [dict(user, mode="user"), dict(traced, mode="replay")]
        self.assertEqual(run.check_same_outputs(children), [])
        children[1]["digest"] = "0" * 32
        errors = run.check_same_outputs(children)
        self.assertTrue(any("traced replay does not reproduce" in e for e in errors))

    def test_run_prints_a_complete_result(self):
        for trace, table in ((0, run.END_TO_END), (1, run.PER_LAYER)):
            with self.subTest(trace=trace):
                completed = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", "fleet-census",
                     "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
                    capture_output=True, text=True, timeout=170,
                )
                self.assertEqual(completed.returncode, 0, completed.stdout + completed.stderr)
                result = json.loads(completed.stdout.strip().splitlines()[-1])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertEqual(set(result["metrics"]), {row[0] for row in table})

    def test_refuses_without_the_library(self):
        bare = self.workdir / "bare"
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        completed = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "trial-stable",
             "--seed", "7", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
        self.assertNotEqual(completed.returncode, 0)
        self.assertNotIn('"correct"', completed.stdout)


if __name__ == "__main__":
    unittest.main()
