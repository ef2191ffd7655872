#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the repository root:

    python3 perfbench/test_perfbench.py

Each test builds the benchmark if needed and runs it for a second or two.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

BINARY = None

LAYER_SELF_TIMES = [
    "workloads.map_s", "workloads.partition_s", "workloads.reduce_s",
    "anticombine.map_self_s", "anticombine.reduce_self_s",
    "io.write_s", "io.read_s",
]


def bench(workload, trace, *extra, seed=7, seconds=1):
    proc = subprocess.run(
        [BINARY, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace),
         "--trace-out", os.path.join(run.build_dir(), "test-trace.json"),
         *extra],
        stdout=subprocess.PIPE, text=True)
    assert proc.returncode == 0, proc.stdout
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, {k: v["value"] for k, v in result["metrics"].items()}


class OutputGateTest(unittest.TestCase):
    def test_corrupted_reference_counts_every_job_as_failed(self):
        result, metrics = bench("thetajoin-tcp", 0, "--corrupt-reference")
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], result["attempted"])
        self.assertEqual(metrics["ok_frac"], 0)

    def test_true_reference_passes(self):
        result, metrics = bench("thetajoin-tcp", 0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(metrics["ok_frac"], 1)


class ReconciliationTest(unittest.TestCase):
    def test_layer_self_times_reconcile_with_process_cpu(self):
        for workload in ["qsuggest-prefix5", "sort-gzip"]:
            with self.subTest(workload=workload):
                result, m = bench(workload, 1, seconds=2)
                self.assertTrue(result["correct"])
                cpu = m["bench.traced_cpu_s"]
                layers = sum(m[name] for name in LAYER_SELF_TIMES)
                for name in LAYER_SELF_TIMES:
                    self.assertGreaterEqual(m[name], 0, name)
                self.assertAlmostEqual(layers + m["mr.other_cpu_s"], cpu,
                                       delta=1e-9 * max(cpu, 1))
                self.assertLessEqual(layers, 1.25 * cpu)


class DeterminismTest(unittest.TestCase):
    def test_counts_repeat_across_runs_at_one_seed(self):
        _, first = bench("qsuggest-prefix5", 0)
        _, second = bench("qsuggest-prefix5", 0)
        for name in ["shuffle_mb_per_job", "disk_mb_per_job"]:
            self.assertEqual(first[name], second[name], name)


if __name__ == "__main__":
    BINARY = run.build()
    unittest.main()
