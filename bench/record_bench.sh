#!/usr/bin/env bash
#===- record_bench.sh - record the runtime_micro wall-clock trajectory ---===//
#
# Part of the AXI4MLIR reproduction. MIT licensed.
#
# Runs build/bench/runtime_micro with --benchmark_format=json and merges the
# result into BENCH_runtime_micro.json at the repo root under a named entry,
# so the file can hold the perf trajectory across PRs (e.g. "baseline" vs
# "optimized"). An optional second argument is a regex passed to
# --benchmark_filter; a filtered run merges per-benchmark into the label's
# existing entry instead of replacing it, so one ablation can be
# re-recorded without re-running the full suite. Usage:
#
#   bench/record_bench.sh [label] [filter-regex]   # label: "optimized"
#   bench/record_bench.sh threaded 'BM_ExecPlanCpu'
#   BUILD_DIR=build-foo bench/record_bench.sh baseline
#   BENCH_MIN_TIME=0.5 bench/record_bench.sh   # steadier numbers, slower
#
#===----------------------------------------------------------------------===//
set -euo pipefail

LABEL="${1:-optimized}"
FILTER="${2:-}"
BUILD_DIR="${BUILD_DIR:-build}"
MIN_TIME="${BENCH_MIN_TIME:-0.05}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BIN="$ROOT/$BUILD_DIR/bench/runtime_micro"
OUT="$ROOT/BENCH_runtime_micro.json"

if [ ! -x "$BIN" ]; then
  echo "error: $BIN not built (needs google-benchmark; configure and build first)" >&2
  exit 1
fi

TMP="$(mktemp)"
trap 'rm -f "$TMP"' EXIT
FILTER_ARGS=()
if [ -n "$FILTER" ]; then
  FILTER_ARGS=(--benchmark_filter="$FILTER")
fi
# google-benchmark >= 1.8 takes a duration suffix, older releases a double.
"$BIN" --benchmark_format=json --benchmark_min_time="${MIN_TIME}s" \
  "${FILTER_ARGS[@]}" >"$TMP" 2>/dev/null ||
  "$BIN" --benchmark_format=json --benchmark_min_time="$MIN_TIME" \
    "${FILTER_ARGS[@]}" >"$TMP"

python3 - "$TMP" "$OUT" "$LABEL" "$FILTER" <<'PYEOF'
import json, sys

src, dst, label, filt = sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4]
with open(src) as f:
    run = json.load(f)
# Drop volatile context fields so diffs track the numbers, not the host.
for field in ("date", "load_avg", "executable"):
    run.get("context", {}).pop(field, None)
try:
    with open(dst) as f:
        trajectory = json.load(f)
except FileNotFoundError:
    trajectory = {}
if filt and label in trajectory:
    # Filtered run: splice the re-recorded benchmarks into the existing
    # entry by name (appending new ones), keeping the rest untouched.
    merged = trajectory[label]
    by_name = {b["name"]: i for i, b in enumerate(merged["benchmarks"])}
    for bench in run["benchmarks"]:
        if bench["name"] in by_name:
            merged["benchmarks"][by_name[bench["name"]]] = bench
        else:
            merged["benchmarks"].append(bench)
else:
    trajectory[label] = run
with open(dst, "w") as f:
    json.dump(trajectory, f, indent=2)
    f.write("\n")
PYEOF

echo "recorded '$LABEL' into $OUT"
