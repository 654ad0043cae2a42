#!/usr/bin/env python3
"""Builds and runs the AXI4MLIR end-to-end + per-layer benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload fig-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds the library and the benchmark from
source into .bench_build/ (Release); later calls only rebuild what changed.
The benchmark's own output is passed through; its last line is one JSON
object whose metric names are checked against BENCHMARK.json. With
--trace 1 the Chrome trace is written to .bench_build/trace-<workload>-<seed>.json.
Exits non-zero, without a result line, if the build fails or the result
is malformed, and with the benchmark's code (1) if an output check failed.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("fig-sweep", "driver-gen", "serve-mixed")
RUN_TIMEOUT_S = 170


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        log("no AXI4MLIR sources here; run from the repository root")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", "4"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("build step failed: " + " ".join(step))
            return False
    return True


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def check_result(line, trace):
    """Returns an error message, or None when the result line is well formed."""
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return "result keys are %s" % sorted(result)
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a whole number >= 1"
    want = expected_metrics(trace)
    if sorted(result["metrics"]) != sorted(want):
        missing = sorted(set(want) - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - set(want))
        return "metrics differ from BENCHMARK.json (missing %s, extra %s)" % (missing, extra)
    return None


def run_benchmark(args):
    if not build("perfbench"):
        return 1
    command = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--root", ROOT]
    if args.trace:
        command += ["--trace-out", os.path.join(
            BUILD, "trace-%s-%d.json" % (args.workload, args.seed))]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    lines = done.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    error = check_result(lines[-1], args.trace) if lines[-1] else "no result line"
    if error:
        log(error)
        return 1
    print(lines[-1], flush=True)
    return done.returncode


def run_selftest():
    if not build("perfbench_selftest") or not build("perfbench"):
        return 1
    if subprocess.run([os.path.join(BUILD, "perfbench_selftest")]).returncode != 0:
        return 1
    # A short traced run must write a trace that a strict JSON parser reads.
    path = os.path.join(BUILD, "trace-selftest.json")
    done = subprocess.run([os.path.join(BUILD, "perfbench"), "--workload", "driver-gen",
                           "--seed", "1", "--seconds", "0.2", "--trace", "1",
                           "--root", ROOT, "--trace-out", path],
                          stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        log("traced driver-gen run failed")
        return 1
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    if not events or any(e["ph"] != "X" or e["dur"] < 0 for e in events):
        log("malformed trace events in " + path)
        return 1
    print("run.py selftest: %d trace events parse strictly" % len(events))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if args.selftest:
        return run_selftest()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    return run_benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
