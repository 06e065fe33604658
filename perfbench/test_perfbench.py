#!/usr/bin/env python3
"""Self-test of the benchmark harness.

Run from the repository root (takes about two minutes):

    python3 perfbench/test_perfbench.py

Checks, in order:
  1. BENCHMARK.json keeps to the benchmark's schema;
  2. the C++ unit self-tests (perfbench_selftest) pass: percentile
     helper, seeded arrival schedules and tables, registry deltas, the
     metric printer;
  3. a short run of every workload, untraced and traced, prints a last
     line with exactly the keys correct/attempted/failed/metrics, is
     correct with no failed operation, and carries every metric
     BENCHMARK.json names with its unit;
  4. in a directory holding only BENCHMARK.json and perfbench/, run.py
     exits non-zero without printing a result.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class BenchmarkJsonTest(unittest.TestCase):
    def test_schema(self):
        spec = load_spec()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertEqual(spec["paths"], ["perfbench"])
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        names = [w["name"] for w in spec["workloads"]]
        names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)), "names must be unique")
        for n in names:
            self.assertRegex(n, NAME)
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        bounds = {}
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
            self.assertTrue(0 < m["bound"] <= 0.25)
            bounds[m["name"]] = m["bound"]
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            self.assertRegex(m["unit"], UNIT)


class SelftestBinaryTest(unittest.TestCase):
    def test_unit_selftests(self):
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD], check=True,
                           stdout=subprocess.DEVNULL)
        subprocess.run(["cmake", "--build", BUILD, "-j4", "--target",
                        "perfbench_selftest"], check=True,
                       stdout=subprocess.DEVNULL)
        out = subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                             capture_output=True, text=True)
        self.assertEqual(out.returncode, 0, out.stdout)


class RunOutputTest(unittest.TestCase):
    def run_workload(self, workload, trace):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             workload, "--seed", "3", "--seconds", "2", "--trace",
             str(trace)], cwd=ROOT, capture_output=True, text=True)
        self.assertEqual(out.returncode, 0, out.stderr[-2000:])
        return json.loads(out.stdout.strip().splitlines()[-1])

    def test_every_named_metric_is_emitted(self):
        spec = load_spec()
        for workload in [w["name"] for w in spec["workloads"]]:
            for trace, wanted in ((0, spec["end_to_end"]),
                                  (1, spec["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    result = self.run_workload(workload, trace)
                    self.assertEqual(
                        set(result),
                        {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(set(result["metrics"]),
                                     {m["name"] for m in wanted})
                    for m in wanted:
                        got = result["metrics"][m["name"]]
                        self.assertEqual(got["unit"], m["unit"], m["name"])
                        self.assertIsInstance(got["value"], (int, float))
                    if trace == 0:
                        for m in wanted:
                            self.assertGreater(
                                result["metrics"][m["name"]]["value"], 0,
                                m["name"])


class BareDirectoryTest(unittest.TestCase):
    def test_fails_without_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "cls_exact_rows", "--seed", "1", "--seconds", "1", "--trace",
             "0"], cwd=bare, capture_output=True, text=True, timeout=180)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn("metrics", out.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
