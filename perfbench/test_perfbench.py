#!/usr/bin/env python3
"""The benchmark's own test: every workload at a tiny size.

    python3 perfbench/test_perfbench.py

Checks that each run emits every metric BENCHMARK.json names, with its
unit; that every simulated-clock metric and every deterministic count
repeats exactly across two runs and across workers 1 vs 2; that a thread
budget above nproc is refused; and that the benchmark fails cleanly in a
directory that holds only BENCHMARK.json and perfbench/.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import run as bench  # noqa: E402

WORKLOADS = ["train-heavy", "train-skew-cache", "serve-light"]
SEED = 7


def load_spec():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = bench.build()
        cls.spec = load_spec()
        cls.out = os.path.join(bench.build_dir(), "test-out")
        os.makedirs(cls.out, exist_ok=True)
        cls.cache = {}

    def run_tiny(self, workload, trace, workers, compute_threads, tag):
        """Runs one tiny workload; returns (last-line result, results file)."""
        key = (workload, trace, workers, compute_threads, tag)
        if key in self.cache:
            return self.cache[key]
        out = os.path.join(self.out, f"{workload}-{trace}-{workers}-{tag}")
        r = subprocess.run(
            [self.binary, "--workload", workload, "--seed", str(SEED),
             "--seconds", "1", "--trace", str(trace), "--scale", "tiny",
             "--workers", str(workers), "--compute-threads",
             str(compute_threads), "--out", out],
            capture_output=True, text=True, timeout=170)
        self.assertEqual(r.returncode, 0, r.stderr)
        result = json.loads(r.stdout.strip().splitlines()[-1])
        path = os.path.join(out, f"{workload}-seed{SEED}-trace{trace}.json")
        with open(path) as f:
            full = json.load(f)
        self.cache[key] = (result, full)
        return result, full

    def test_every_metric_is_emitted_with_its_unit(self):
        for workload in WORKLOADS:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result, _ = self.run_tiny(workload, trace, 2, 1, "a")
                    self.assertEqual(
                        set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    want = {m["name"]: m["unit"] for m in self.spec[section]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)

    def test_simulated_metrics_and_counts_repeat_exactly(self):
        if (os.cpu_count() or 1) < 3:
            self.skipTest("needs 3 cores for workers=2 plus a compute thread")
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    _, a = self.run_tiny(workload, trace, 2, 1, "a")
                    _, b = self.run_tiny(workload, trace, 2, 1, "b")
                    _, serial = self.run_tiny(workload, trace, 1, 1, "a")
                    exact = {k: v["value"] for k, v in a["metrics"].items()
                             if v["clock"] in ("sim", "count")}
                    self.assertTrue(any(k.startswith("sim_") or ".sim_" in k
                                        for k in exact))
                    for other in (b, serial):
                        self.assertEqual(
                            exact, {k: other["metrics"][k]["value"] for k in exact})

    def test_thread_budget_above_nproc_is_refused(self):
        r = subprocess.run(
            [self.binary, "--workload", "serve-light", "--seed", "1",
             "--seconds", "1", "--trace", "0",
             "--workers", str(os.cpu_count() or 1), "--compute-threads", "1"],
            capture_output=True, text=True, timeout=60)
        self.assertEqual(r.returncode, 2)
        self.assertEqual(r.stdout, "")

    def test_fails_without_the_program_sources(self):
        bare = os.path.join(bench.build_dir(), "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), bare)
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        r = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "serve-light",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, env=env, capture_output=True, text=True, timeout=170)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(r.returncode, 0)
        self.assertNotIn('"correct"', r.stdout)


if __name__ == "__main__":
    unittest.main()
