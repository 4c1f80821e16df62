#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py [--binary PATH]

Runs every workload in --short mode (a few batches per phase), untraced and
traced, and checks that the result line has the contract's shape and names
every metric BENCHMARK.json declares, with its unit. Then runs the gate
self-test, which feeds the correctness gates a tampered trace and a
mismatched record and expects both rejected. Without --binary the benchmark
is built first, as perfbench/run.py does.
"""

import argparse
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(HERE, "..", "BENCHMARK.json")
BINARY = None


def run_bench(*args):
    proc = subprocess.run([BINARY, *args], capture_output=True, text=True,
                          timeout=170)
    return proc


class ShortRuns(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(BENCHMARK_JSON) as f:
            cls.spec = json.load(f)
        listing = run_bench("--list")
        cls.workloads = [line.split("\t")[0]
                         for line in listing.stdout.splitlines() if line]

    def test_workloads_match_benchmark_json(self):
        self.assertEqual(sorted(self.workloads),
                         sorted(w["name"] for w in self.spec["workloads"]))

    def check_run(self, workload, trace, declared):
        proc = run_bench("--workload", workload, "--seed", "3", "--seconds",
                         "1", "--trace", str(trace), "--short")
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in declared})
        for m in declared:
            got = metrics[m["name"]]
            self.assertEqual(set(got), {"value", "unit"}, m["name"])
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_untraced_prints_every_end_to_end_metric(self):
        for w in self.workloads:
            with self.subTest(workload=w):
                self.check_run(w, 0, self.spec["end_to_end"])

    def test_traced_prints_every_per_layer_metric(self):
        for w in self.workloads:
            with self.subTest(workload=w):
                self.check_run(w, 1, self.spec["per_layer"])

    def test_gates_reject_tampered_trace_and_mismatched_record(self):
        proc = run_bench("--gate-selftest")
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_unknown_workload_fails_without_a_result(self):
        proc = run_bench("--workload", "no_such_workload", "--seed", "1",
                         "--seconds", "1", "--trace", "0")
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


def main():
    global BINARY
    parser = argparse.ArgumentParser()
    parser.add_argument("--binary")
    args, rest = parser.parse_known_args()
    if args.binary:
        BINARY = args.binary
    else:
        sys.path.insert(0, HERE)
        import run
        BINARY = run.build(run.build_dir())
    unittest.main(argv=[sys.argv[0], *rest])


if __name__ == "__main__":
    main()
