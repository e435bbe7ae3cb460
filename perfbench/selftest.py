#!/usr/bin/env python3
"""Self-tests of the benchmark, in its short (--quick) mode.

    python3 perfbench/selftest.py

Checks that the same seed yields an identical operation stream, that every
metric BENCHMARK.json names is emitted with its unit on every workload (both
the untraced and the traced run), and that a client-side stall injected into
the open-loop sender shows up in the measured latency.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY = os.path.join(ROOT, ".bench_build", "perfbench", "perfbench")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def setUpModule():
    sys.path.insert(0, HERE)
    import run
    run.build()


def run_benchmark(workload, seed, trace, *extra):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "2", "--trace", str(trace), "--quick", *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise AssertionError("%s seed %d trace %d failed:\n%s"
                             % (workload, seed, trace, proc.stderr[-3000:]))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    report_path = os.path.join(ROOT, ".bench_out",
                               "%s-seed%d-trace%d" % (workload, seed, trace), "report.json")
    with open(report_path) as f:
        return result, json.load(f)


def stream_hash(workload, seed):
    out = subprocess.run([BINARY, "--workload", workload, "--seed", str(seed),
                          "--seconds", str(SPEC["run_seconds"]), "--stream-hash"],
                         stdout=subprocess.PIPE, text=True, check=True).stdout
    return out.strip()


class StreamTest(unittest.TestCase):
    def test_same_seed_same_stream(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = stream_hash(workload, 11)
                self.assertEqual(first, stream_hash(workload, 11))
                self.assertNotEqual(first, stream_hash(workload, 12))


class MetricsTest(unittest.TestCase):
    def check(self, trace):
        declared = {m["name"]: m["unit"]
                    for m in SPEC["per_layer" if trace else "end_to_end"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload, trace=trace):
                result, report = run_benchmark(workload, 5, trace)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(set(result["metrics"]), set(declared))
                for name, metric in result["metrics"].items():
                    self.assertEqual(metric["unit"], declared[name], name)
                    self.assertIsInstance(metric["value"], (int, float), name)
                if not trace:
                    for name in declared:
                        self.assertGreater(result["metrics"][name]["value"], 0, name)
                machine = report["machine"]
                self.assertGreaterEqual(machine["nproc"], 1)
                self.assertTrue(machine["build_type"])
                self.assertIn("git_sha", machine)

    def test_end_to_end_metrics(self):
        self.check(0)

    def test_per_layer_metrics(self):
        self.check(1)


class OpenLoopTest(unittest.TestCase):
    def test_client_stall_shows_in_latency(self):
        stall_ms = 1000
        _, calm = run_benchmark("xdb_read", 9, 0)
        _, stalled = run_benchmark("xdb_read", 9, 0, "--stall-ms", str(stall_ms))
        self.assertLess(calm["primary"]["max_ms"], stall_ms)
        # The stalled op is timed from its scheduled send, so the stall is in
        # its latency even though the server never saw it.
        self.assertGreaterEqual(stalled["primary"]["max_ms"], stall_ms)


if __name__ == "__main__":
    unittest.main(verbosity=2)
