#!/usr/bin/env python3
"""The benchmark's own tests, on smoke-sized variants of every workload.

    python3 perfbench/tests/test_perfbench.py

The tests first build perfbench into .bench_build/perfbench.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RUN_PY = os.path.join(BENCH, "run.py")
BINARY = os.path.join(ROOT, ".bench_build", "perfbench", "perfbench")
TEST_DIR = os.path.join(ROOT, ".bench_build", "tests")

sys.path.insert(0, BENCH)
import run  # noqa: E402  (perfbench/run.py)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
# Every workload run.py accepts, including sim_bb_1k, which BENCHMARK.json
# leaves out of the gated set (README.md, "Measured steadiness").
WORKLOADS = run.WORKLOADS

SMOKE = ["--scale", "smoke", "--seconds", "0.3", "--warmup-s", "0.05"]


def setUpModule():
    if not run.build():
        raise RuntimeError("perfbench does not build")


def run_bench(workload, trace=0, *extra, cwd=ROOT, script=RUN_PY):
    p = subprocess.run([sys.executable, script, "--workload", workload, "--seed", "3",
                        "--trace", str(trace)] + SMOKE + list(extra),
                       cwd=cwd, capture_output=True, text=True, timeout=600)
    return p


def last_json(p):
    return json.loads(p.stdout.strip().splitlines()[-1])


def run_binary(workload, trace, *extra):
    """The raw per-solve records the C++ side prints."""
    os.makedirs(TEST_DIR, exist_ok=True)
    p = subprocess.run([BINARY, "--workload", workload, "--seed", "3", "--trace", str(trace),
                        "--scale", "smoke", "--seconds", "0.3", "--warmup-s", "0.05",
                        "--run-dir", TEST_DIR] + list(extra),
                       capture_output=True, text=True, timeout=300)
    if p.returncode != 0:
        raise AssertionError(p.stderr)
    return json.loads(p.stdout)


class MetricsPrintWithUnits(unittest.TestCase):
    def check(self, trace, listed):
        want = {m["name"]: m["unit"] for m in listed}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                p = run_bench(workload, trace)
                self.assertEqual(p.returncode, 0, p.stderr)
                out = last_json(p)
                self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(out["correct"], p.stdout)
                self.assertEqual(out["failed"], 0)
                self.assertGreaterEqual(out["attempted"], 1)
                self.assertEqual(set(out["metrics"]), set(want))
                for name, m in out["metrics"].items():
                    self.assertEqual(m["unit"], want[name], name)
                    self.assertTrue(math.isfinite(m["value"]), name)
                    # The report prints every metric by name, with its unit,
                    # ahead of the result line.
                    self.assertRegex(p.stdout, re.compile(
                        r"^[* ] +%s +\S+ +%s " % (re.escape(name), re.escape(m["unit"])),
                        re.M))
                if trace == 0:
                    for name, m in out["metrics"].items():
                        self.assertGreater(m["value"], 0, name)

    def test_end_to_end(self):
        self.check(0, SPEC["end_to_end"])

    def test_per_layer(self):
        self.check(1, SPEC["per_layer"])


class Correctness(unittest.TestCase):
    def test_planted_wrong_expectation_is_a_failed_solve(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                p = run_bench(workload, 0, "--plant", "wrong_expectation")
                self.assertEqual(p.returncode, 0, p.stderr)
                out = last_json(p)
                self.assertFalse(out["correct"])
                self.assertGreaterEqual(out["attempted"], 1)
                self.assertEqual(out["failed"], out["attempted"])
                self.assertIn("# FAILED solve 0", p.stdout)

    def test_instance_seeds_select_the_instance_solved_and_checked(self):
        # Each instance is solved and verified against its own sequential
        # reference, so the expectations must differ between two instances.
        for workload, flag, values in (("threads_uts_4", "--uts-root-seed", ("1", "2")),
                                       ("sim_bb_1k", "--bb-instance", ("0", "1"))):
            with self.subTest(workload=workload):
                expected = []
                for value in values:
                    p = run_bench(workload, 0, flag, value)
                    self.assertEqual(p.returncode, 0, p.stderr)
                    self.assertTrue(last_json(p)["correct"], p.stdout)
                    expect = re.search(r"^# expect \(sequential\): (.+)$", p.stdout, re.M)
                    self.assertIsNotNone(expect, p.stdout)
                    expected.append(expect.group(1))
                self.assertNotEqual(expected[0], expected[1])

    def test_decorator_keeps_exact_counts(self):
        for workload in ("sim_bb_1k", "sharded_uts_100k", "threads_uts_4"):
            with self.subTest(workload=workload):
                rec = run_binary(workload, 1, "--max-solves", "5")
                plain = [s for s in rec["solves"] if not s["traced"]]
                traced = [s for s in rec["solves"] if s["traced"]]
                self.assertEqual([s["warmup"] for s in plain], [True, False, False])
                self.assertEqual(len(traced), 2)
                for s in rec["solves"]:
                    self.assertEqual(s["failure"], "")
                    self.assertEqual(s["units"], plain[0]["units"])
                    if rec["backend"] == "sim":
                        self.assertEqual(s["events"], plain[0]["events"])
                        self.assertEqual(s["exec_s"], plain[0]["exec_s"])
                for s in traced:
                    self.assertEqual(s["step_units"], s["units"])
                    self.assertGreater(s["steps"], 0)

    def test_sharded_traced_run_keeps_its_shards(self):
        rec = run_binary("sharded_uts_100k", 1, "--max-solves", "3")
        self.assertEqual(rec["expect"]["shards"], 4)
        for s in rec["solves"]:
            self.assertEqual(s["shards"], 4, s)
            self.assertGreater(s["windows"], 0)
        self.assertTrue(any(s["traced"] for s in rec["solves"]))

    def test_without_the_source_tree_it_fails_without_a_result(self):
        bare = os.path.join(TEST_DIR, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        p = run_bench("sim_bb_1k", 0, cwd=bare,
                      script=os.path.join(bare, "perfbench", "run.py"))
        self.assertNotEqual(p.returncode, 0)
        self.assertNotIn('"correct"', p.stdout)
        shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
