#!/usr/bin/env bash
# The bench-regression gate: runs every gated Google-benchmark suite under
# one wall-clock bound and diffs its JSON against the committed baseline
# bench/baselines/BENCH_<suite>.baseline.json with tools/bench_compare.py
# (cpu_time ratios against a loose threshold, exact machine-independent
# counters, the scaling curves). Each file it writes is Google Benchmark's
# JSON, whose "context" records the host (num_cpus, ...), plus
# context.mvrob_build: `mvrob version`'s git describe, compiler, build
# type and sanitizer. The robustness file also carries "mvrob_metrics", the
# stats snapshot of an instrumented check, whose audited
# analyzer.triples_examined is compared exactly.
#
# A suite fails the gate when its binary fails or exceeds the bound, when
# its baseline is missing, or when bench_compare.py reports a regression;
# every suite runs, and the summary names the failed ones.
# MVROB_BENCH_GATE=warn reports regressions without failing. Seeding or
# re-recording a baseline is explicit, from a file this script wrote:
#   python3 tools/bench_compare.py build/bench/results/BENCH_<suite>.json \
#     bench/baselines/BENCH_<suite>.baseline.json --update
#
# usage: tools/bench.sh [build-dir]   (writes <build-dir>/bench/results/)
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-build}"
OUT_DIR="$BUILD_DIR/bench/results"
TIMEOUT_S=600
MVROB="$BUILD_DIR/tools/mvrob"

# The >=3x RC_low speedup (1 -> 8 threads) only holds on a host that has
# 8 cores. The scaling rows get a looser threshold: real_time above the
# core count is scheduling noise (8 workers time-slicing fewer cores swing
# >2x run to run), and the curve shape is what the speedup checks.
SPEEDUP=""
if (( $(nproc) >= 8 )); then
  SPEEDUP="--min-speedup BM_MvccScaling/RC_low=3.0"
else
  echo "note: $(nproc) core(s) < 8 — skipping the scaling speedup assertion"
fi

# suite binary --benchmark_filter --benchmark_min_time [bench_compare.py args]
SUITES=(
  "robustness bench_robustness BM_(BitsetAnalyzer|ParallelCheck|Allocation) 0.2"
  "mvcc_scaling bench_mvcc_scaling . 0.1 --threshold 4.0 $SPEEDUP"
  "promotion bench_promotion BM_(OptimizePromotions|Throughput) 0.05"
  "templates bench_templates BM_Template_ 0.05"
)

if [[ ! -x "$MVROB" ]]; then
  echo "error: $MVROB not found — build first: cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j" >&2
  exit 1
fi
mkdir -p "$OUT_DIR"
WARN=()
[[ "${MVROB_BENCH_GATE:-fail}" == "warn" ]] && WARN=(--warn-only)

# Adds the build stamp (and, given a stats snapshot, the mvrob_metrics
# section) to a benchmark JSON file.
stamp() {
  python3 - "$1" "$("$MVROB" version)" "${2:-}" <<'PY'
import json, sys

path, version, stats_path = sys.argv[1:4]
with open(path) as f:
    bench = json.load(f)
lines = version.splitlines()
build = {"git_describe": lines[0].removeprefix("mvrob ")}
build.update(line.split(": ", 1) for line in lines[1:])
bench["context"]["mvrob_build"] = build
if stats_path:
    with open(stats_path) as f:
        bench["mvrob_metrics"] = {"workload": "tpcc:w=2,d=2",
                                  "snapshot": json.load(f)}
with open(path, "w") as f:
    json.dump(bench, f, indent=1)
PY
}

FAILED=()
for row in "${SUITES[@]}"; do
  read -r suite bin filter min_time compare_args <<<"$row"
  echo "---- $suite ($bin) ----"
  out="$OUT_DIR/BENCH_$suite.json"
  baseline="$ROOT/bench/baselines/BENCH_$suite.baseline.json"
  if [[ ! -f "$baseline" ]]; then
    echo "error: $suite: no baseline at $baseline (seed it with bench_compare.py --update)" >&2
    FAILED+=("$suite")
    continue
  fi
  if ! timeout -k 10 "$TIMEOUT_S" "$BUILD_DIR/bench/$bin" \
      --benchmark_filter="$filter" --benchmark_min_time="$min_time" \
      --benchmark_out_format=json --benchmark_out="$out" >/dev/null; then
    echo "error: $suite: $bin failed or exceeded ${TIMEOUT_S}s" >&2
    FAILED+=("$suite")
    continue
  fi
  stats=""
  if [[ "$suite" == robustness ]]; then
    stats="$OUT_DIR/robustness_stats.json"
    "$MVROB" check --workload tpcc:w=2,d=2 --threads 0 \
      --stats-json "$stats" >/dev/null
  fi
  stamp "$out" "$stats"
  # shellcheck disable=SC2086  # compare_args is a word list.
  python3 "$ROOT/tools/bench_compare.py" "$out" "$baseline" $compare_args \
    "${WARN[@]}" || FAILED+=("$suite")
done

if (( ${#FAILED[@]} )); then
  echo "bench gate FAILED: ${FAILED[*]}" >&2
  exit 1
fi
echo "bench gate OK: ${#SUITES[@]} suites, results in $OUT_DIR"
