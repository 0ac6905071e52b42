#!/usr/bin/env python3
"""Tests of the perfbench benchmark.

  * BENCHMARK.json has the required keys and limits, and its
    metric lists match what fbbench prints.
  * A small run of every workload passes its output checks with no failed
    operation, untraced and traced.
  * space_amp and every count-based per-layer metric repeat exactly for a
    fixed seed, except the three counts that follow thread scheduling
    (TIMING_DEPENDENT and SCHEDULING_DEPENDENT below).
  * Without the engine sources the benchmark exits non-zero and prints no
    result.

Run from the repository root (builds fbbench on first use):

    python3 perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("ledger", "wiki", "replicated_kv")
# The workloads BENCHMARK.json gates; the ledger runs only by hand and in
# these tests (see README.md, "Steadiness").
GATED = ("wiki", "replicated_kv")

# Per-layer metrics that are timings or that depend on thread scheduling,
# so they legitimately differ between two runs of one seed.
TIMING_DEPENDENT = {
    "api.put_blob_self_p50_us", "wiki.read_old_self_p50_us",
    "chunk.put_p50_us", "chunk.get_p50_us", "api.get_value_p50_us",
    "api.track_p50_us", "repl.quorum_wait_p50_us", "rpc.client_self_share",
    "proc.cpu_ms_per_kop", "diag.read_p99_us", "diag.write_p99_us",
    "diag.history_p99_us", "trace.read_p50_overhead_us",
    "trace.write_p50_overhead_us", "trace.history_p50_overhead_us",
    "trace.ops_per_s_overhead_share",
    # Shipment batching and heartbeats follow the sender's timing.
    "repl.records_per_shipment", "rpc.requests_per_op",
}
# replicated_kv runs two client threads, so which GetValue meets a freshly
# invalidated head depends on their interleaving.
SCHEDULING_DEPENDENT = {"replicated_kv": {"api.hot_head_hit_ratio"}}


def run(workload, seed, trace):
    return subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=900)


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class BenchmarkJsonTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            self.bench = json.load(f)

    def test_benchmark_json_shape(self):
        b = self.bench
        self.assertEqual(set(b), {"command", "paths", "run_seconds",
                                  "workloads", "end_to_end", "per_layer"})
        self.assertEqual(b["paths"], ["perfbench"])
        self.assertTrue(1 <= b["run_seconds"] <= 60)
        self.assertEqual([w["name"] for w in b["workloads"]], list(GATED))
        for w in b["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)
        names = [m["name"] for m in b["end_to_end"] + b["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for m in b["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in b["end_to_end"]))


class WorkloadRunTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.bench = json.load(f)

    def check_result(self, proc, metrics_key):
        self.assertEqual(proc.returncode, 0)
        r = result_of(proc)
        self.assertEqual(set(r), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(r["correct"], proc.stdout[-2000:])
        self.assertGreaterEqual(r["attempted"], 1)
        self.assertEqual(r["failed"], 0)
        want = {m["name"]: m["unit"] for m in self.bench[metrics_key]}
        self.assertEqual({k: v["unit"] for k, v in r["metrics"].items()}, want)
        return r

    def test_each_workload_checks_out_and_repeats(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                e2e = [self.check_result(run(w, 5, 0), "end_to_end")
                       for _ in range(2)]
                for r in e2e:
                    for name, m in r["metrics"].items():
                        self.assertNotEqual(m["value"], 0, name)
                self.assertEqual(e2e[0]["metrics"]["space_amp"],
                                 e2e[1]["metrics"]["space_amp"])
                layer = [self.check_result(run(w, 5, 1), "per_layer")
                         for _ in range(2)]
                skip = TIMING_DEPENDENT | SCHEDULING_DEPENDENT.get(w, set())
                for name in layer[0]["metrics"]:
                    if name in skip:
                        continue
                    self.assertEqual(layer[0]["metrics"][name],
                                     layer[1]["metrics"][name], name)


class MissingSourcesTest(unittest.TestCase):
    def test_fails_without_engine_sources(self):
        scratch = os.path.join(ROOT, ".bench_build", "test-no-sources")
        shutil.rmtree(scratch, ignore_errors=True)
        os.makedirs(scratch)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
            shutil.copytree(HERE, os.path.join(scratch, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "ledger",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=scratch, env=env, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, text=True, timeout=170)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
