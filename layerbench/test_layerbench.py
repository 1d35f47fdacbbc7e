#!/usr/bin/env python3
"""Self-test of the layered benchmark.

    python3 layerbench/test_layerbench.py

Checks that a tiny-size run of every workload prints every metric of
BENCHMARK.json with its unit, that the output check fires on a
perturbed copy of a result, and that the benchmark refuses to report
anything when the library sources are absent. Takes about two minutes
on four cores once the benchmark binary is built.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("layerbench", "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=600)


def result_line(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class LayerbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_tiny_run_prints_every_metric_with_its_unit(self):
        for workload in (w["name"] for w in self.spec["workloads"]):
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = run("--workload", workload, "--seed", "3",
                               "--seconds", "1", "--trace", str(trace),
                               "--tiny")
                    self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
                    line = result_line(proc)
                    self.assertEqual(
                        set(line), {"correct", "attempted", "failed",
                                    "metrics"})
                    self.assertTrue(line["correct"])
                    self.assertEqual(line["failed"], 0)
                    self.assertGreaterEqual(line["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in self.spec[section]}
                    got = {k: v["unit"] for k, v in line["metrics"].items()}
                    self.assertEqual(got, want)
                    for value in line["metrics"].values():
                        self.assertIsInstance(value["value"], (int, float))

    def test_output_check_fires_on_perturbed_copy(self):
        for workload in ("campaign_mxm", "scorecard"):
            with self.subTest(workload=workload):
                proc = run("--workload", workload, "--seed", "3",
                           "--seconds", "1", "--tiny", "--perturb")
                self.assertEqual(proc.returncode, 1, proc.stderr[-3000:])
                line = result_line(proc)
                self.assertFalse(line["correct"])
                self.assertEqual(line["failed"], 1)
                self.assertIn("output check failed", proc.stderr)

    def test_refuses_without_library_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "layerbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run("--workload", "campaign_mxm", "--seed", "3",
                       "--seconds", "1", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
