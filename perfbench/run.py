#!/usr/bin/env python3
"""Builds and runs the NETMARK end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace <0|1>
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a source tree. The first run configures and builds the
benchmark (the NETMARK libraries plus perfbench.cc, Release) under
.bench_build/perfbench; later runs rebuild incrementally. The benchmark's
own output (a table of every metric by name and unit) is passed through;
the last stdout line is the result object, checked here against the metric
names and units listed in BENCHMARK.json. Reports and span files land in
.bench_out/<workload>-seed<N>-trace<T>/. `--workload all` runs every workload
of BENCHMARK.json untraced and then traced, and ends with one JSON object
holding all their results.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("configure failed")
    cmd = ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_one(workload, seed, seconds, trace, quick=False, stall_ms=0):
    """Runs one workload; prints its table and returns the checked result."""
    declared = {m["name"]: m["unit"]
                for m in load_spec()["per_layer" if trace else "end_to_end"]}
    work = os.path.join(ROOT, ".bench_work", "%s-%d" % (workload, os.getpid()))
    out = os.path.join(ROOT, ".bench_out", "%s-seed%d-trace%d" % (workload, seed, trace))
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--work-dir", work, "--out-dir", out]
    if quick:
        cmd.append("--quick")
    if stall_ms:
        cmd += ["--stall-ms", str(stall_ms)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("benchmark exited with code %d" % proc.returncode)
    result = json.loads(lines[-1])
    metrics = result.get("metrics", {})
    for name, unit in declared.items():
        if name not in metrics:
            fail("metric %s missing from the result" % name)
        if metrics[name]["unit"] != unit:
            fail("metric %s has unit %s, BENCHMARK.json says %s"
                 % (name, metrics[name]["unit"], unit))
    result["metrics"] = {name: metrics[name] for name in declared}
    for line in lines[:-1]:
        print(line)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json, or 'all' for every one, "
                             "untraced then traced")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small corpora, for the self-tests")
    parser.add_argument("--stall-ms", type=int, default=0,
                        help="inject one client-side stall into the reference phase")
    args = parser.parse_args()
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the
    # benchmark process before re-raising.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    build()
    if args.workload != "all":
        print(json.dumps(run_one(args.workload, args.seed, args.seconds, args.trace,
                                 args.quick, args.stall_ms)))
        return
    results = {}
    for workload in [w["name"] for w in load_spec()["workloads"]]:
        for trace in (0, 1):
            results["%s/trace%d" % (workload, trace)] = run_one(
                workload, args.seed, args.seconds, trace, args.quick)
    print(json.dumps(results))
    if not all(r["correct"] and r["failed"] == 0 for r in results.values()):
        sys.exit(1)


if __name__ == "__main__":
    main()
