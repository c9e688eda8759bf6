"""Self-test of the benchmark harness, at minimal size with a fixed seed.

Run from the root of a source checkout:

    python3 benchmarks/selftest.py

It checks that every metric named in BENCHMARK.json is emitted, that the
work counts repeat exactly between traced runs, that corrupted outputs
(a dropped zero, a wrong zero count, a flipped verdict, a changed repeat)
count as failed ops, and that the benchmark refuses to run without the
sources.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import sturmosc.cli  # noqa: E402,F401  (the entry point the ops call)
import run  # noqa: E402
import workloads  # noqa: E402

SEED = 7
REPEATED_COUNTS = ("ode.solve_ivp.calls", "ode.nfev", "ode.steps", "profiles.gk_panels",
                   "ode.zeros")


def smoke(workload, trace):
    return run.run_benchmark(ROOT, workload, SEED, 0, trace, size="smoke")[1]


def smoke_failures(workload, corrupt):
    """Failed and attempted ops of a smoke run whose artifacts ``corrupt`` damages."""
    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=ROOT) as scratch, \
            contextlib.redirect_stderr(io.StringIO()):
        runner, _ = run.measure(workload, SEED, 0, 0, scratch, size="smoke", corrupt=corrupt)
    return runner.failed, runner.attempted


def replace_once(name, old, new):
    """Corruption that rewrites one artifact of every op that has it."""
    def corrupt(op, artifacts):
        if name in artifacts and old in artifacts[name]:
            artifacts[name] = artifacts[name].replace(old, new, 1)
    return corrupt


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        cls.plain = {w: smoke(w, 0) for w in workloads.WORKLOADS}
        cls.traced = {w: [smoke(w, 1), smoke(w, 1)] for w in workloads.WORKLOADS}

    def test_workloads_match_spec(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(workloads.WORKLOADS))

    def test_every_metric_emitted_and_correct(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in self.spec[key]}
            for w in workloads.WORKLOADS:
                result = self.plain[w] if trace == 0 else self.traced[w][0]
                with self.subTest(workload=w, trace=trace):
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 2)
                    got = {n: m["unit"] for n, m in result["metrics"].items()}
                    self.assertEqual(got, want)

    def test_counts_repeat_exactly(self):
        for w in workloads.WORKLOADS:
            first, second = (r["metrics"] for r in self.traced[w])
            for name in REPEATED_COUNTS:
                with self.subTest(workload=w, metric=name):
                    self.assertEqual(first[name]["value"], second[name]["value"])

    def test_layers_are_exercised(self):
        osc = self.traced["oscillatory_solve"][0]["metrics"]
        self.assertGreater(osc["ode.zeros"]["value"], 0)
        grid = self.traced["criteria_grid"][0]["metrics"]
        self.assertEqual(grid["ode.solve.calls"]["value"], 0)
        self.assertGreater(grid["profiles.gk_panels"]["value"], 0)
        self.assertGreater(grid["riccati.calls"]["value"], 0)

    def test_dropped_zero_fails(self):
        def drop_zero(op, artifacts):
            if "trajectory.tsv" in artifacts:
                lines = artifacts["trajectory.tsv"].split(b"\n")
                first = next(i for i, ln in enumerate(lines) if ln.startswith(b"# zero "))
                artifacts["trajectory.tsv"] = b"\n".join(lines[:first] + lines[first + 1:])
        failed, attempted = smoke_failures("oscillatory_solve", drop_zero)
        self.assertEqual(failed, attempted // 2)   # every run of the Jacobi op

    def test_wrong_zero_count_fails(self):
        def bump_index(op, artifacts):
            if "spectral.json" in artifacts:
                doc = json.loads(artifacts["spectral.json"])
                doc["report"]["index_lower_bound"] += 1
                artifacts["spectral.json"] = json.dumps(doc).encode()
        failed, attempted = smoke_failures("oscillatory_solve", bump_index)
        self.assertEqual(failed, attempted // 2)   # every run of the spectral op

    def test_flipped_verdict_fails(self):
        flip = replace_once("verdicts.json", b'"status": "satisfied"', b'"status": "inconclusive"')
        failed, _ = smoke_failures("criteria_grid", flip)
        self.assertGreater(failed, 0)

    def test_changed_repeat_fails(self):
        seen = set()

        def change_repeat(op, artifacts):
            if op.label in seen:
                for name in artifacts:
                    artifacts[name] += b" "
            seen.add(op.label)
        failed, attempted = smoke_failures("criteria_grid", change_repeat)
        self.assertEqual(failed, attempted - len(seen))

    def test_refuses_without_sources(self):
        with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=ROOT) as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for path in self.spec["paths"]:
                shutil.copytree(ROOT / path, Path(bare) / path,
                                ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                self.spec["command"] + ["--workload", "criteria_grid", "--seed", "1",
                                        "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
