#!/usr/bin/env python3
"""The benchmark's own tests.  Run from the root of a checkout:

    python3 perfbench/test_perfbench.py

Each test drives perfbench/run.py with short runs (about a minute in
all, after the first build).
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import WORKLOADS  # noqa: E402  every runnable workload, hit included

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)


def run(workload, seed=1, seconds=1, trace=0, tamper=None):
    """Runs one workload; returns (result object, full stdout)."""
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if tamper:
        command += ["--tamper", tamper]
    out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if out.returncode != 0:
        raise AssertionError(f"{command} exited {out.returncode}:\n{out.stdout}\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1]), out.stdout


def digests(stdout):
    found = dict(re.findall(r"^(input_digest|output_fingerprint) ([0-9a-f]{16})$",
                            stdout, re.MULTILINE))
    return found["input_digest"], found["output_fingerprint"]


class MetricsTest(unittest.TestCase):
    """A small run of each workload prints every named metric with its unit."""

    def check(self, workload, trace, table):
        result, _ = run(workload, trace=trace)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], result)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        expected = {m["name"]: m["unit"] for m in BENCHMARK[table]}
        self.assertEqual(set(result["metrics"]), set(expected))
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], expected[name], name)
            self.assertIsInstance(metric["value"], (int, float), name)
            if table == "end_to_end":
                self.assertGreater(metric["value"], 0, name)
        return result

    def test_benchmark_names_runnable_workloads(self):
        names = [w["name"] for w in BENCHMARK["workloads"]]
        self.assertTrue(set(names) <= set(WORKLOADS), names)

    def test_every_workload_untraced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check(workload, 0, "end_to_end")

    def test_every_workload_traced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.check(workload, 1, "per_layer")["metrics"]
                self.assertGreater(metrics["trace.overhead_share"]["value"], 0)


class TamperTest(unittest.TestCase):
    """A tampered answer is counted as a failed operation."""

    def test_dilation_above_bound(self):
        result, stdout = run("hit", tamper="dilation")
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertIn("outside bound", stdout)

    def test_dropped_answer(self):
        result, stdout = run("miss", tamper="drop")
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertIn("no answer within", stdout)


class DeterminismTest(unittest.TestCase):
    """The same seed yields the same inputs and the same outputs."""

    def test_served_and_bulk(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, first = run(workload, seed=7)
                _, second = run(workload, seed=7)
                _, other = run(workload, seed=8)
                self.assertEqual(digests(first), digests(second))
                self.assertNotEqual(digests(first)[0], digests(other)[0])


if __name__ == "__main__":
    unittest.main()
