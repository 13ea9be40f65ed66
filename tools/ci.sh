#!/usr/bin/env bash
# Full CI sweep: plain build + tests, then the ThreadSanitizer and
# AddressSanitizer builds (-DMVROB_SANITIZE=thread|address) with the tests
# that exercise the parallel engine and the bitset kernels. The TSan run
# forces real pool workers via MVROB_POOL_WORKERS so the parallel paths
# are genuinely concurrent even on single-core machines.
#
# usage: tools/ci.sh [jobs]
set -euo pipefail

JOBS="${1:-$(nproc)}"
cd "$(dirname "$0")/.."

echo "==== plain build + full test suite ===="
cmake -B build -S . >/dev/null
cmake --build build -j"$JOBS"
ctest --test-dir build --output-on-failure -j"$JOBS"

echo "==== observability smoke (--stats-json / --trace-out) ===="
STATS_TMP="$(mktemp)"
TRACE_TMP="$(mktemp)"
build/tools/mvrob check --workload tpcc:w=2,d=2 --threads 0 \
  --stats-json "$STATS_TMP" --trace-out "$TRACE_TMP" >/dev/null
python3 - "$STATS_TMP" "$TRACE_TMP" <<'PY'
import json, sys

with open(sys.argv[1]) as f:
    stats = json.load(f)
assert stats["version"] == 1, stats.get("version")
for key in ("counters", "gauges", "histograms"):
    assert key in stats, f"missing {key!r} in stats snapshot"
triples = stats["counters"]["analyzer.triples_examined"]
# tpcc:w=2,d=2 has 20 transactions and is robust at all-SI:
# the audited scan covers n*(n-1)^2 = 7220 triples.
assert triples == 20 * 19 * 19, triples

with open(sys.argv[2]) as f:
    trace = json.load(f)
events = trace["traceEvents"]
assert events, "empty traceEvents"
for event in events:
    for key in ("name", "ph", "ts", "dur", "pid", "tid"):
        assert key in event, f"trace event missing {key!r}: {event}"
names = {event["name"] for event in events}
assert "analyzer.triple_scan" in names, names
assert "cli.check" in names, names
print("observability smoke OK:",
      f"{triples} triples, {len(events)} trace events")
PY
rm -f "$STATS_TMP" "$TRACE_TMP"

echo "==== serve smoke (/healthz + /metrics + clean SIGTERM) ===="
PORT_FILE="$(mktemp)"
SERVE_OUT="$(mktemp)"
rm -f "$PORT_FILE"
# Ephemeral port, published through --port-file; --duration is only a
# backstop in case the SIGTERM below is lost.
build/tools/mvrob serve --workload smallbank:c=2 --default SI \
  --port-file "$PORT_FILE" --witness-interval 5 --duration 120 \
  >"$SERVE_OUT" 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 100); do
  [[ -s "$PORT_FILE" ]] && break
  sleep 0.1
done
[[ -s "$PORT_FILE" ]] || {
  echo "error: serve never published its port" >&2
  cat "$SERVE_OUT" >&2
  exit 1
}
SERVE_PORT="$(cat "$PORT_FILE")"
python3 - "$SERVE_PORT" <<'PY'
import json, sys, time, urllib.request

port = int(sys.argv[1])
base = f"http://127.0.0.1:{port}"

def get(path, retries=50):
    for attempt in range(retries):
        try:
            with urllib.request.urlopen(base + path, timeout=5) as response:
                return response.status, response.read().decode()
        except urllib.error.HTTPError as error:
            if error.code == 503 and attempt + 1 < retries:
                time.sleep(0.1)  # First witness check still running.
                continue
            raise
    raise AssertionError(f"{path} never became ready")

status, body = get("/healthz")
health = json.loads(body)
assert status == 200 and health["status"] == "ok", (status, body)
for key in ("git_describe", "compiler", "sanitizer"):
    assert key in health["build"], f"missing {key!r} in /healthz build info"

status, body = get("/")
for endpoint in ("/healthz", "/metrics", "/snapshot", "/witness",
                 "/allocation", "/trace", "/debug/pprof", "/debug/stacks"):
    assert endpoint in body, f"index page missing {endpoint}"

status, body = get("/debug/stacks")
assert status == 200 and "role=serve.driver" in body, body[:400]

status, body = get("/metrics")
assert status == 200, status
# The live per-level series are pre-registered: present from the first
# scrape, with one labeled sample per isolation level.
assert "# TYPE mvrob_mvcc_live_commits_total counter" in body, body[:400]
for level in ("RC", "SI", "SSI"):
    assert f'mvrob_mvcc_live_commits_total{{level="{level}"}}' in body, level
assert "mvrob_mvcc_live_commit_latency_us" in body

status, body = get("/snapshot")
snapshot = json.loads(body)
assert snapshot["version"] == 1
for key in ("counters", "windowed_counters", "windowed_histograms"):
    assert key in snapshot, f"missing {key!r} in /snapshot"

status, body = get("/witness")
witness = json.loads(body)
assert "robust" in witness and "witness" in witness, body[:200]

print(f"serve smoke OK: port {port}, "
      f"{len(snapshot['windowed_counters'])} live counter series")
PY
kill -TERM "$SERVE_PID"
if wait "$SERVE_PID"; then
  grep -q "shutdown" "$SERVE_OUT" || {
    echo "error: serve did not report a clean shutdown" >&2
    cat "$SERVE_OUT" >&2
    exit 1
  }
  echo "serve smoke OK (clean SIGTERM shutdown)"
else
  echo "error: serve exited non-zero after SIGTERM" >&2
  cat "$SERVE_OUT" >&2
  exit 1
fi
rm -f "$PORT_FILE" "$SERVE_OUT"

echo "==== adapt smoke (serve --adapt closes the metrics -> allocation loop) ===="
ADAPT_PORT_FILE="$(mktemp)"
ADAPT_OUT="$(mktemp)"
rm -f "$ADAPT_PORT_FILE"
# Two RMW writers plus a read-only reporter: Algorithm 2's optimum is
# T1=SI T2=SI T3=RC, so starting from all-SSI forces a certified swap.
build/tools/mvrob serve \
  --txns 'T1: R[x] W[x]
T2: R[x] W[x]
T3: R[q]' \
  --default SSI --adapt --adapt-interval 1 \
  --port-file "$ADAPT_PORT_FILE" --witness-interval 5 --duration 120 \
  >"$ADAPT_OUT" 2>&1 &
ADAPT_PID=$!
for _ in $(seq 1 100); do
  [[ -s "$ADAPT_PORT_FILE" ]] && break
  sleep 0.1
done
[[ -s "$ADAPT_PORT_FILE" ]] || {
  echo "error: serve --adapt never published its port" >&2
  cat "$ADAPT_OUT" >&2
  exit 1
}
python3 - "$(cat "$ADAPT_PORT_FILE")" <<'PY'
import json, sys, time, urllib.request

port = int(sys.argv[1])
base = f"http://127.0.0.1:{port}"

def get(path):
    with urllib.request.urlopen(base + path, timeout=5) as response:
        return response.read().decode()

# Poll until the controller has installed at least one decision.
payload = None
for _ in range(200):
    payload = json.loads(get("/allocation"))
    if payload["adapt"] and payload["decisions"] >= 1 and payload["generation"] >= 1:
        break
    time.sleep(0.1)
else:
    raise AssertionError(f"no installed adapt decision: {payload}")

assert payload["version"] == 1, payload["version"]
# Every transaction must carry a legal isolation level.
allocation = payload["allocation"]
assert set(allocation) == {"T1", "T2", "T3"}, allocation
for txn, level in allocation.items():
    assert level in ("RC", "SI", "SSI"), (txn, level)
# The installed decision in the history must have been certified robust.
installed = [d for d in payload["history"] if d["installed"]]
assert installed and all(d["robust"] for d in installed), payload["history"]
weights = payload["weights"]
assert 1 <= weights["si"] <= weights["ssi"], weights

body = get("/metrics")
assert "mvrob_adapt_decisions_total" in body, body[:400]
assert 'mvrob_adapt_weight{level="SI"}' in body, body[:400]

print(f"adapt smoke OK: port {port}, generation {payload['generation']}, "
      f"allocation {payload['allocation_text']}")
PY
kill -TERM "$ADAPT_PID"
if wait "$ADAPT_PID"; then
  echo "adapt smoke OK (clean SIGTERM shutdown)"
else
  echo "error: serve --adapt exited non-zero after SIGTERM" >&2
  cat "$ADAPT_OUT" >&2
  exit 1
fi
rm -f "$ADAPT_PORT_FILE" "$ADAPT_OUT"

echo "==== trace smoke (serve --trace-sample attributes aborts at /trace) ===="
TRACE_PORT_FILE="$(mktemp)"
TRACE_SERVE_OUT="$(mktemp)"
rm -f "$TRACE_PORT_FILE"
# Three RMW writers on one hot key under SI: first-updater-wins fires
# constantly, so the sampled span ring is dense with attributed aborts.
build/tools/mvrob serve \
  --txns 'T1: R[x] W[x]
T2: R[x] W[x]
T3: R[x] W[x]' \
  --default SI --concurrency 8 --trace-sample 1 \
  --port-file "$TRACE_PORT_FILE" --duration 120 \
  >"$TRACE_SERVE_OUT" 2>&1 &
TRACE_PID=$!
for _ in $(seq 1 100); do
  [[ -s "$TRACE_PORT_FILE" ]] && break
  sleep 0.1
done
[[ -s "$TRACE_PORT_FILE" ]] || {
  echo "error: serve --trace-sample never published its port" >&2
  cat "$TRACE_SERVE_OUT" >&2
  exit 1
}
python3 - "$(cat "$TRACE_PORT_FILE")" <<'PY'
import json, sys, time, urllib.request

port = int(sys.argv[1])
base = f"http://127.0.0.1:{port}"

# Poll until the span ring holds at least one attributed abort attempt.
payload = None
attributed = []
for _ in range(200):
    with urllib.request.urlopen(base + "/trace", timeout=5) as response:
        payload = json.loads(response.read().decode())
    attributed = [
        (trace, attempt)
        for trace in payload["traces"]
        for attempt in trace["attempts"]
        if "attribution" in attempt
    ]
    if payload["aborts_attributed"] >= 1 and attributed:
        break
    time.sleep(0.1)
else:
    raise AssertionError(f"no attributed abort span: {str(payload)[:300]}")

assert payload["version"] == 1, payload["version"]
assert payload["sample_every_n"] == 1, payload["sample_every_n"]
assert payload["flows_sampled"] >= 1, payload["flows_sampled"]
# Every attributed span must name the conflicting transaction and carry
# the full causal chain: object, conflict type, and abort cause.
for trace, attempt in attributed:
    attribution = attempt["attribution"]
    assert attribution["conflicting"].startswith("T"), attribution
    assert attribution["object"] == "x", attribution
    assert attribution["type"] == "ww", attribution
    assert attribution["cause"] == "first_updater_wins", attribution
# The aggregate conflict table names both sides of the hottest edge.
row = payload["conflicts"][0]
assert row["victim"].startswith("T") and row["conflicting"].startswith("T"), row
assert row["count"] >= 1, row

print(f"trace smoke OK: port {port}, {len(attributed)} attributed spans "
      f"in the ring, {payload['aborts_attributed']} aborts attributed, "
      f"hottest edge {row['victim']}->{row['conflicting']} x{row['count']}")
PY
kill -TERM "$TRACE_PID"
if wait "$TRACE_PID"; then
  grep -q "shutdown" "$TRACE_SERVE_OUT" || {
    echo "error: serve --trace-sample did not report a clean shutdown" >&2
    cat "$TRACE_SERVE_OUT" >&2
    exit 1
  }
  echo "trace smoke OK (clean SIGTERM shutdown)"
else
  echo "error: serve --trace-sample exited non-zero after SIGTERM" >&2
  cat "$TRACE_SERVE_OUT" >&2
  exit 1
fi
rm -f "$TRACE_PORT_FILE" "$TRACE_SERVE_OUT"

echo "==== profile smoke (serve --profile-hz + /debug/pprof + flamegraph) ===="
PROFILE_PORT_FILE="$(mktemp)"
PROFILE_SERVE_OUT="$(mktemp)"
PROFILE_FOLDED="$(mktemp)"
PROFILE_SVG="$(mktemp)"
rm -f "$PROFILE_PORT_FILE"
# Hot Zipfian workload on internal engine threads so the sampler has real
# engine work to catch; 97hz continuous profiling from the first request.
build/tools/mvrob serve --workload 'ycsb:a,n=64,k=64,theta=0.99,seed=1' \
  --default SI --concurrency 8 --profile-hz 97 \
  --port-file "$PROFILE_PORT_FILE" --witness-interval 5 --duration 120 \
  >"$PROFILE_SERVE_OUT" 2>&1 &
PROFILE_PID=$!
for _ in $(seq 1 100); do
  [[ -s "$PROFILE_PORT_FILE" ]] && break
  sleep 0.1
done
[[ -s "$PROFILE_PORT_FILE" ]] || {
  echo "error: serve --profile-hz never published its port" >&2
  cat "$PROFILE_SERVE_OUT" >&2
  exit 1
}
python3 - "$(cat "$PROFILE_PORT_FILE")" "$PROFILE_FOLDED" <<'PY'
import sys, urllib.request

port = int(sys.argv[1])
base = f"http://127.0.0.1:{port}"

# A 2-second on-demand window against the live profiler: the folded
# stacks must attribute samples to the engine driver threads and reach
# down into named engine symbols.
with urllib.request.urlopen(base + "/debug/pprof?seconds=2",
                            timeout=30) as response:
    folded = response.read().decode()
assert folded.strip(), "empty /debug/pprof window"
lines = [line for line in folded.splitlines() if line.strip()]
for line in lines:
    stack, _, count = line.rpartition(" ")
    assert stack and int(count) > 0, f"malformed folded line: {line!r}"
assert any(line.startswith("serve.driver;") for line in lines), lines[:5]
assert "mvrob::" in folded, folded[:400]

with urllib.request.urlopen(base + "/debug/stacks", timeout=10) as response:
    stacks = response.read().decode()
assert "role=serve.driver" in stacks, stacks[:400]

with open(sys.argv[2], "w") as f:
    f.write(folded)
print(f"profile smoke OK: port {port}, {len(lines)} folded stacks")
PY
python3 tools/flamegraph.py "$PROFILE_FOLDED" > "$PROFILE_SVG"
grep -q "<svg" "$PROFILE_SVG" || {
  echo "error: flamegraph.py did not render an SVG" >&2
  exit 1
}
kill -TERM "$PROFILE_PID"
if wait "$PROFILE_PID"; then
  grep -q "shutdown" "$PROFILE_SERVE_OUT" || {
    echo "error: serve --profile-hz did not report a clean shutdown" >&2
    cat "$PROFILE_SERVE_OUT" >&2
    exit 1
  }
  echo "profile smoke OK (flamegraph rendered, clean SIGTERM shutdown)"
else
  echo "error: serve --profile-hz exited non-zero after SIGTERM" >&2
  cat "$PROFILE_SERVE_OUT" >&2
  exit 1
fi
rm -f "$PROFILE_PORT_FILE" "$PROFILE_SERVE_OUT" "$PROFILE_FOLDED" "$PROFILE_SVG"

echo "==== numeric-flag rejection smoke ===="
# A flag the command does not read, or one missing its partner flag, is
# rejected too (the command table in src/cli/cli.cc), and so is
# --profile-hz without --profile-out or --stats-json, where the samples
# would go nowhere.
for bad in "census --max abc" "simulate --runs 12x" "simulate --seed -1" \
    "simulate --engine-thread 4" "simulate --engine-shards 8" \
    "check --threads -1" "allocate --port 5" "census --threads 4" \
    "promote --default SSI" "check --profile-hz 97"; do
  if build/tools/mvrob $bad --workload tpcc:w=2,d=2 >/dev/null 2>&1; then
    echo "error: 'mvrob $bad' should have failed" >&2
    exit 1
  fi
done
# The bounded allocate modes print one line of text: the free mode's
# output flags are rejected there, and a pin above SI under --rcsi is an
# empty box. Their check options still apply. A reachable bare-level
# promote target is rejected for its --default alone.
for bad in "allocate --rcsi --json" "allocate --rcsi --pin T1=SSI" \
    "promote --target RC --default SSI"; do
  if build/tools/mvrob $bad --txns 'T1: R[x] W[x]' >/dev/null 2>&1; then
    echo "error: 'mvrob $bad' should have failed" >&2
    exit 1
  fi
done
BOUNDED_STATS="$(mktemp)"
build/tools/mvrob allocate --rcsi --threads 4 --stats-json "$BOUNDED_STATS" \
  --workload smallbank:c=2 >/dev/null
if ! grep -q '"allocation.robustness_checks"' "$BOUNDED_STATS"; then
  echo "error: allocate --rcsi --stats-json lacks allocation.robustness_checks" >&2
  exit 1
fi
rm -f "$BOUNDED_STATS"
if MVROB_POOL_WORKERS=junk build/tools/mvrob check \
    --workload tpcc:w=2,d=2 --threads 4 2>/dev/null | grep -q robust; then
  echo "numeric-flag rejection smoke OK (invalid env warns, run proceeds)"
else
  echo "error: invalid MVROB_POOL_WORKERS must warn, not fail" >&2
  exit 1
fi

echo "==== round-trip validation smoke (validate) ===="
# Recorded engine runs fed back through the formal checker; any
# theory/execution disagreement exits 2 and fails CI.
build/tools/mvrob validate --workload smallbank:c=2 --runs 50 --seed 7
build/tools/mvrob validate --workload smallbank:c=2 --default RC \
  --runs 50 --seed 7

echo "==== promotion smoke (promote + certified engine runs) ===="
# Acceptance bar for the promotion optimizer: on the bundled TPC-C and
# SmallBank workloads the search must find a strictly cheaper allocation,
# and the promoted workload must certify against the engine (exit 2 on
# any theory/execution disagreement).
for spec in smallbank:c=2 tpcc:w=1,d=2; do
  PROMOTE_OUT="$(mktemp)"
  build/tools/mvrob promote --workload "$spec" --json \
    --validate-runs 50 --seed 7 >"$PROMOTE_OUT"
  python3 - "$spec" "$PROMOTE_OUT" <<'PY'
import json, sys

spec = sys.argv[1]
with open(sys.argv[2]) as f:
    plan = json.load(f)
assert plan["kind"] == "promotion_plan", plan.get("kind")
before = plan["before"]["cost"]["weighted"]
after = plan["after"]["cost"]["weighted"]
assert plan["improved"] and after < before, (
    f"{spec}: promote must be strictly cheaper, got {before} -> {after}")
assert plan["promotions"], f"{spec}: improved plan lists no promotions"
print(f"promotion smoke OK: {spec} weighted {before} -> {after} "
      f"({len(plan['promotions'])} promotions, engine-certified)")
PY
  rm -f "$PROMOTE_OUT"
done

echo "==== pathological analyzer rows (fail fast) ===="
# The promotion frontier and the explanation run on the bitset analyzer;
# on the per-triple reference checker these rows took minutes. Each must
# finish within 30 s, and its stdout must equal the golden recorded from
# the reference-checker build (tests/golden/smallbank_c*.{promote,explain}.txt).
PATHOLOGICAL_OUT="$(mktemp)"
run_row() {
  local golden="$1"
  shift
  if ! timeout 30 build/tools/mvrob "$@" >"$PATHOLOGICAL_OUT"; then
    echo "error: 'mvrob $*' failed or exceeded 30 s" >&2
    exit 1
  fi
  if [[ -n "$golden" ]] && ! diff -q "$golden" "$PATHOLOGICAL_OUT" >/dev/null; then
    echo "error: 'mvrob $*' differs from $golden" >&2
    diff "$golden" "$PATHOLOGICAL_OUT" | head -20 >&2
    exit 1
  fi
}
for c in 8 16 32; do
  run_row "tests/golden/smallbank_c$c.promote.txt" \
    promote --workload "smallbank:c=$c"
done
for c in 8 16; do
  run_row "tests/golden/smallbank_c$c.explain.txt" \
    allocate --workload "smallbank:c=$c" --explain
done
run_row "" allocate --workload smallbank:c=96 --explain
# Algorithm 2 at n = 4096 (up to 2n delta probes, and the pivot
# components of every row they reach).
run_row "" allocate --workload ycsb:a,n=4096
rm -f "$PATHOLOGICAL_OUT"
echo "pathological rows OK (promote c=32, explain c=96, ycsb:a n=4096 < 30 s)"

echo "==== analyzer memory guard (peak RSS of allocate ycsb:a,n=2048) ===="
# The analyzer keeps pair indices only for conflicting pairs and one flat
# word matrix per pivot (docs/architecture.md). `allocate ycsb:a,n=2048`
# peaked at 30.3 MB on a 4-core host (RelWithDebInfo; 174 MB with the
# n x n index tables it replaced); the bound is that plus 25 %. The peak
# is the child's ru_maxrss. Linux carries ru_maxrss across execve, so the
# figure never reads below this Python's own RSS at fork, which is far
# below the bound.
python3 - 38000 <<'PY'
import resource, subprocess, sys

bound_kb = int(sys.argv[1])
subprocess.run(["build/tools/mvrob", "allocate", "--workload", "ycsb:a,n=2048"],
               check=True, stdout=subprocess.DEVNULL, timeout=120)
peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
assert peak_kb <= bound_kb, f"peak RSS {peak_kb} KB exceeds {bound_kb} KB"
print(f"analyzer memory guard OK: peak RSS {peak_kb} KB <= {bound_kb} KB")
PY

echo "==== reference-checker guard ===="
# The per-triple reference checker, its enumeration and the
# mixed-iso-graph are referees in src/oracle/: outside it, no production
# source may name the latter two, and only `crosscheck` (cli/cli.cc) may
# include the reference checker (production code runs on
# RobustnessAnalyzer).
REFERENCE_LEAKS="$( (grep -rlE 'FindAllCounterexamples|MixedIsoGraph' src;
  grep -rl '#include "oracle/reference_checker.h"' src |
    grep -vx 'src/cli/cli.cc') | grep -v '^src/oracle/' || true)"
if [[ -n "$REFERENCE_LEAKS" ]]; then
  echo "error: production sources name the reference checker:" >&2
  echo "$REFERENCE_LEAKS" >&2
  exit 1
fi
echo "reference-checker guard OK"

echo "==== template-analysis guard ===="
# The template layer instantiates its worlds and computes the refined
# conflict relation once per command, in TemplateAnalysis::Build
# (src/templates/robustness.cc): that is the one production call site of
# InstantiateAllWorlds and of AnalyzeTemplateConflicts.
for fn in InstantiateAllWorlds AnalyzeTemplateConflicts; do
  CALLS="$(grep -rnE "\b$fn\(" src --include='*.cc' |
    grep -vE '^src/templates/(instantiate|predicate)\.cc:' || true)"
  if [[ "$(printf '%s\n' "$CALLS" | grep -c .)" != 1 ||
        "$CALLS" != src/templates/robustness.cc:* ]]; then
    echo "error: $fn must have exactly one production call site," \
      "TemplateAnalysis::Build; found:" >&2
    echo "${CALLS:-(none)}" >&2
    exit 1
  fi
done
echo "template-analysis guard OK"

echo "==== template smoke (predicate reads, constraints, witness JSON) ===="
# The template subsystem end to end on the documented showcase: the
# declared constraint must buy a strictly cheaper allocation than the
# distinct-parameter baseline, the witness JSON must name what discharged
# or witnessed each template-pair conflict, and the engine must certify
# the allocation over recorded runs (exit 2 on any disagreement).
TEMPLATE_TPL="$(mktemp)"
TEMPLATE_OUT="$(mktemp)"
TEMPLATE_JSON="$(mktemp)"
cat >"$TEMPLATE_TPL" <<'TPL'
version 2
domain D 3
Audit(lo:D, hi:D): R[item_$lo..$hi]
Move(src:D, dst:D): R[item_$src] W[item_$dst]
constraint Move: src == dst
TPL
build/tools/mvrob templates --templates "@$TEMPLATE_TPL" \
  --witness-json "$TEMPLATE_JSON" --validate-runs 25 --seed 7 \
  >"$TEMPLATE_OUT"
grep -q "Audit=SI Move=SI" "$TEMPLATE_OUT" || {
  echo "error: constrained showcase must allocate all-SI" >&2
  cat "$TEMPLATE_OUT" >&2
  exit 1
}
build/tools/mvrob templates --templates "@$TEMPLATE_TPL" --no-constraints \
  >"$TEMPLATE_OUT"
grep -q "Audit=SSI Move=SSI" "$TEMPLATE_OUT" || {
  echo "error: distinct-parameter baseline must need all-SSI" >&2
  cat "$TEMPLATE_OUT" >&2
  exit 1
}
python3 - "$TEMPLATE_JSON" <<'PY'
import json, sys

with open(sys.argv[1]) as f:
    witness = json.load(f)
assert witness["format"] == "mvrob-template-witness-v1", witness.get("format")
levels = {entry["template"]: entry["level"]
          for entry in witness["allocation"]}
assert levels == {"Audit": "SI", "Move": "SI"}, levels
pairs = witness["conflicts"]["op_pairs"]
kinds = {pair["kind"] for pair in pairs}
assert "range-vs-point" in kinds or "point-vs-range" in kinds, kinds
for pair in pairs:
    # Every pair either conflicts with a witness example or names the
    # predicate/constraint rule that discharged it.
    assert pair["conflicts"] == ("example" in pair), pair
    assert pair["conflicts"] != ("discharged_by" in pair), pair
print(f"template smoke OK: {len(pairs)} op pairs, "
      f"allocation {levels}, engine-certified")
PY
rm -f "$TEMPLATE_TPL" "$TEMPLATE_OUT" "$TEMPLATE_JSON"

echo "==== docs gate (flags + invocations + links + tutorial smoke + template blocks) ===="
# Documentation must stay true: every flag in docs/cli.md exists in
# `mvrob --help`, every documented `mvrob <command>` line passes only
# flags that command reads, every relative markdown link resolves, every
# command block in docs/tutorial.md re-runs with its documented output,
# and every template set in docs/templates.md runs through `templates`.
python3 tools/check_docs.py build/tools/mvrob

echo "==== bench-regression gate (every Google-benchmark suite) ===="
# Each gated suite runs under one wall-clock bound and is diffed against
# its committed baseline in bench/baselines/ (tools/bench.sh): timing
# ratios against a loose threshold, exact machine-independent counters.
# A missing baseline fails; MVROB_BENCH_GATE=warn downgrades regressions.
tools/bench.sh build

echo "==== benchmark determinism self-test (perfbench) ===="
# Builds the benchmark harness (.bench_build/perfbench) and checks that
# same-seed runs report identical exact counts and that every run passes
# its correctness checks; about seven one-second harness runs.
python3 perfbench/selftest.py

echo "==== TSan build (MVROB_SANITIZE=thread) ===="
cmake -B build-tsan -S . -DMVROB_SANITIZE=thread >/dev/null
cmake --build build-tsan -j"$JOBS" --target \
  common_test parallel_differential_test concurrent_engine_test profiler_test \
  delta_check_test find_all_test mvcc_test cli_test metrics_test \
  templates_test template_predicate_test promotion_reference_test
MVROB_POOL_WORKERS=3 TSAN_OPTIONS="halt_on_error=1" \
  ctest --test-dir build-tsan --output-on-failure -j"$JOBS" \
  -R 'ThreadPool|ParallelDifferential|ParallelAllocation|IncrementalParallel|Concurrent|DeltaCheck|FindAll|RunWorkload|RcSiComposesWithBounds|BoundedAllocate|Template|CliTemplateGolden|PromotionReference'

echo "==== ASan build (MVROB_SANITIZE=address) ===="
cmake -B build-asan -S . -DMVROB_SANITIZE=address >/dev/null
cmake --build build-asan -j"$JOBS" --target \
  common_test parallel_differential_test core_test analyzer_test \
  delta_check_test find_all_test mvcc_test concurrent_engine_test cli_test \
  metrics_test templates_test template_predicate_test split_schedule_test \
  witness_test promotion_test promotion_reference_test crash_test
# Serve runs RunCli on threads that own an ASan alternate signal stack;
# Crash covers the recorder keeping it.
MVROB_POOL_WORKERS=3 \
  ctest --test-dir build-asan --output-on-failure -j"$JOBS" \
  -R 'DenseBitset|BitMatrix|ThreadPool|ParallelDifferential|Core|Analyzer|DeltaCheck|FindAll|RunWorkload|RcSiComposesWithBounds|BoundedAllocate|Template|CliTemplateGolden|SplitCondition|Witness|Promotion|Serve|Crash|FlagTableMatchesHelp|EveryCommandRejectsFlags|EveryPresenceRule|RejectsFlagsTheCommand'

echo "==== all CI stages passed ===="
