#!/usr/bin/env python3
"""Steadiness report for the benchmark's end-to-end metrics.

Run from the repository root:

    python3 perfbench/steady.py [--out perfbench/STEADINESS.md] [--json FILE]

Runs every BENCHMARK.json workload ten times through perfbench/run.py, at
run_seconds with seeds 1-10, and prints, per end-to-end metric, the median, the quartiles
(statistics.quantiles(values, n=4)) and the quartile spread as a share of
the median next to the metric's bound in BENCHMARK.json. It then makes one
traced run per workload (seed 1) for the per-layer figures, and a second
traced fig-sweep run with the same seed to show which modeled figures
repeat exactly. --json writes all of it as one object (the shape of a
trajectory entry's "workloads").
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.getcwd()
SEEDS = range(1, 11)
MODELED = ["modeled_task_clock_ms", "modeled_cache_refs", "modeled_speedup_vs_manual",
           "sim.l1d_accesses", "sim.dma_transfers", "sim.dma_bytes", "sim.fabric_cycles",
           "sim.cache_refs", "sim.cache_misses", "sim.host_cycles"]


def run(workload, seed, seconds, trace):
    done = subprocess.run([sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().split("\n")
    if done.returncode != 0 or not lines:
        raise SystemExit("%s seed %d failed (exit %d)" % (workload, seed, done.returncode))
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit("%s seed %d: an output check failed" % (workload, seed))
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default="")
    parser.add_argument("--json", default="")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]

    out = ["End-to-end metrics, %d runs per workload (seeds %d-%d), %g s each." % (
        len(SEEDS), SEEDS[0], SEEDS[-1], seconds), "",
        "| workload | metric | median | q1 | q3 | spread | bound | spread/bound |",
        "|---|---|---|---|---|---|---|---|"]
    summary = {}
    worst = (0.0, "")
    for workload in workloads:
        runs = [run(workload, seed, seconds, 0) for seed in SEEDS]
        summary[workload] = {"end_to_end": {}, "per_layer_seed1": {}}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r[name] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            share = spread / metric["bound"]
            if share > worst[0]:
                worst = (share, "%s %s" % (workload, name))
            summary[workload]["end_to_end"][name] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread, "values": values}
            out.append("| %s | %s | %.6g | %.6g | %.6g | %.4f | %.2f | %.2f |" % (
                workload, name, med, q1, q3, spread, metric["bound"], share))
            print(out[-1], flush=True)
        summary[workload]["per_layer_seed1"] = run(workload, 1, seconds, 1)
    out += ["", "Largest spread as a share of its bound: %.3f (%s)" % worst]

    if "fig-sweep" in workloads:
        a = summary["fig-sweep"]["per_layer_seed1"]
        b = run("fig-sweep", 1, seconds, 1)
        out += ["", "Modeled figures, fig-sweep seed 1, two traced runs (two processes):",
                "", "| metric | run A | run B | identical |", "|---|---|---|---|"]
        for name in MODELED:
            out.append("| %s | %.17g | %.17g | %s |" % (
                name, a[name], b[name], "yes" if a[name] == b[name] else "no"))
        summary["fig-sweep"]["modeled_repeat"] = {n: [a[n], b[n]] for n in MODELED}
    report = "\n".join(out) + "\n"
    print(report)
    if args.out:
        with open(args.out, "w") as f:
            f.write(report)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(summary, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
