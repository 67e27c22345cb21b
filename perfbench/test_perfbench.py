"""Self-tests of the benchmark.

Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'

A tiny instance of every workload runs in both modes through run.py; it
must pass its output checks and print exactly the metric names and units
BENCHMARK.json declares. The Rust unit tests run with
`cargo test --offline --manifest-path perfbench/Cargo.toml`.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace, seed=5, extra=("--tiny",)):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    return proc


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def digest_of(lines):
    for line in lines:
        for field in line.split():
            if field.startswith("outcome_digest="):
                return field
    raise AssertionError(f"no outcome_digest in {lines}")


class BenchmarkSelfTest(unittest.TestCase):
    def test_tiny_workloads_pass_checks_and_print_declared_metrics(self):
        for workload in SPEC["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload["name"], trace=trace):
                    proc = run(workload["name"], trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result, _ = result_of(proc)
                    self.assertEqual(
                        set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    declared = {m["name"]: m["unit"] for m in SPEC[key]}
                    printed = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(printed, declared)
                    if trace == 0:
                        for name, metric in result["metrics"].items():
                            self.assertGreater(metric["value"], 0, name)

    def test_outcome_digest_repeats_for_a_seed(self):
        for workload in ("session_direct", "fleet_churn"):
            with self.subTest(workload=workload):
                first = digest_of(result_of(run(workload, 0, seed=8))[1])
                second = digest_of(result_of(run(workload, 0, seed=8))[1])
                other = digest_of(result_of(run(workload, 0, seed=9))[1])
                self.assertEqual(first, second)
                self.assertNotEqual(first, other)

    def test_bad_arguments_fail_without_a_result(self):
        proc = run("session_direct", 2)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)
        proc = run("no_such_workload", 0)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
