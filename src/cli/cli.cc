#include "cli/cli.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>

#include "cli/export.h"
#include "cli/serve.h"
#include "common/crash.h"
#include "common/json.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/profiler.h"
#include "common/string_util.h"
#include "common/version.h"
#include "core/analyzer.h"
#include "core/explain.h"
#include "core/incremental.h"
#include "core/optimal_allocation.h"
#include "core/robustness.h"
#include "core/split_schedule.h"
#include "core/witness.h"
#include "iso/allowed.h"
#include "iso/materialize.h"
#include "mvcc/driver.h"
#include "mvcc/recorder.h"
#include "mvcc/roundtrip.h"
#include "mvcc/trace.h"
#include "mvcc/txn_trace.h"
#include "oracle/brute_force.h"
#include "oracle/reference_checker.h"
#include "promote/export.h"
#include "promote/optimizer.h"
#include "oracle/split_enumerator.h"
#include "oracle/statistics.h"
#include "schedule/anomaly.h"
#include "schedule/dot.h"
#include "schedule/serializability.h"
#include "templates/parser.h"
#include "templates/promote.h"
#include "templates/robustness.h"
#include "templates/witness.h"
#include "txn/parser.h"
#include "workloads/registry.h"
#include "workloads/stats.h"

namespace mvrob {
namespace {

constexpr const char* kUsage = R"(mvrob — mixed isolation-level robustness & allocation

usage: mvrob <command> [flags]

commands:
  check      decide robustness of an allocation (Algorithm 1)
  allocate   compute the optimal robust allocation (Algorithm 2)
  explore    analyze one schedule: dependencies, SeG, allowed-under
  census     enumerate all interleavings: allowed / anomalous counts
  templates  per-program allocation for a template workload: predicate
             reads (key ranges), declared functional constraints, refined
             template-pair conflicts, promotion, engine certification
  report     full markdown analysis of a workload
  simulate   execute the workload on the MVCC engine and report outcomes
  validate   round-trip recorded engine runs through the formal checker
  crosscheck validate Algorithm 1 against the exhaustive oracles
  shell      interactive session: add transactions, watch the optimum move
  promote    search for reads to promote (SELECT ... FOR UPDATE) so a
             strictly cheaper allocation becomes robust
  serve      run the workload continuously and expose live telemetry
             over HTTP: /metrics (Prometheus), /healthz, /snapshot,
             /witness, /allocation, /debug/pprof, /debug/stacks
  version    print build information (git describe, compiler, sanitizer)
  help       this text

common flags:
  --txns <text|@file>      transaction DSL ("T1: R[x] W[y]" per line)
  --workload <spec>        built-in workload instead of --txns, e.g.
                           tpcc:w=2,d=3  smallbank:c=4  auction  ycsb:a
                           synthetic:n=10,o=8,w=40,h=30,seed=3
  --alloc <spec>           allocation "T1=RC T2=SI" (others: --default)
  --default <RC|SI|SSI>    level for unmentioned transactions (default SI)
  --schedule <text>        operation order "R1[x] W2[x] C2 C1" (explore)
  --dot / --timeline       extra renderings (explore)
  --rcsi                   restrict to {RC, SI} (allocate; composes with
                           --pin/--atmost, which reject --json, --explain
                           and --witness-json/-dot)
  --explain                per-transaction obstacles (allocate)
  --pin "T1=RC ..."        fix transactions to exact levels (allocate)
  --atmost "T2=SI ..."     per-transaction upper bounds (allocate)
  --max <n>                interleaving cap (census; default 2000000)
  --templates <text|@file> template DSL (templates); v2 adds predicate
                           reads R[key_$lo..$hi] / R[key_*D], `function`
                           declarations and `constraint` lines
                           (docs/templates.md)
  --json                   machine-readable output (check, allocate)
  --runs <n>               engine executions (simulate: default 20,
                           validate: default 200)
  --concurrency <n>        sessions in flight (simulate, validate;
                           default 4)
  --engine-threads <n>     OS worker threads for the MVCC engine
                           (simulate, validate, serve; default 1 = the
                           deterministic driver, >1 = the sharded
                           many-core engine; validate then also replays
                           every concurrent run on the single-threaded
                           oracle)
  --engine-shards <n>      key-space shards of the many-core engine
                           (simulate, validate, serve; default 0 = auto
                           = max(16, 4*threads); requires
                           --engine-threads > 1)
  --seed <n>               base RNG seed (simulate, validate; default 0)
  --witness-json <file|->  structured witness provenance as JSON: every
                           counterexample edge with its conflict type,
                           operation pair and Definition 3.1 condition
                           (check, allocate, shell; '-' = stdout)
  --witness-dot <file|->   the same witness as a Graphviz digraph
  --record-schedule <file> replayable schedule file of the last engine
                           run (simulate)
  --record-trace <file>    Chrome trace_event timeline of the last
                           engine run (simulate)
  --threads <n>            worker threads for robustness checks (check,
                           allocate, report, promote, templates,
                           simulate, validate, shell, serve; default 1,
                           0 = all cores)
  --stats-json <file>      write a metrics snapshot (counters, gauges,
                           histograms) as JSON after the command (under
                           serve: once, on clean shutdown)
  --trace-out <file>       write recorded phase spans as a Chrome
                           trace_event file (chrome://tracing, Perfetto;
                           under serve: once, on clean shutdown)
  --trace-sample <n>       sample 1 in <n> logical transactions into
                           per-attempt spans with causal abort
                           attribution (simulate, serve). Sampled spans
                           are merged into --trace-out with retries of
                           one transaction linked by flow events; serve
                           also exposes them at /trace
  --metrics-interval <s>   rewrite the --stats-json / --trace-out files
                           every <s> seconds while the command runs
  --log-level <level>      minimum structured-log severity on stderr:
                           debug, info, warn, error, off (default info;
                           env MVROB_LOG_LEVEL)
  --profile-hz <n>         sampling CPU profiler rate, samples per second
                           of on-CPU time per thread (check, allocate,
                           simulate, promote, serve; default 0 = off;
                           serve exposes the live profile at
                           /debug/pprof and as mvrob_profile_* series)
  --profile-out <file>     write the aggregate folded-stack profile here
                           when the command finishes (implies
                           --profile-hz 97 when the rate is unset;
                           render with tools/flamegraph.py)

promote flags:
  --budget <n>             promotion budget: at most <n> reads are
                           promoted (default 8)
  --target <spec|level>    target mode: find promotions making the
                           workload robust under this fixed allocation
                           ("T1=RC T2=SI", unmentioned: --default, which
                           defaults to RC here; or a bare level name for
                           a uniform target, e.g. --target RC)
  --promotion-json <file|-> promotion-plan provenance as JSON
                           (docs/formats.md, "Promotion plan")
  --validate-runs <n>      after the search, certify the promoted
                           workload with <n> recorded engine runs
                           through the round-trip validator (default 0
                           = skip; exits 2 on any disagreement)
  --weight-si <n>          allocation cost of one SI slot (default 1)
  --weight-ssi <n>         allocation cost of one SSI slot (default 2)

templates flags:
  --no-constraints         drop the declared functional constraints and
                           analyze under the distinct-parameter rule
                           alone (the comparison baseline)
  --copies <n>             instances per admissible parameter assignment
                           in the canonical instantiation (default 2)
  --max-instances <n>      refuse canonical instantiations larger than
                           this many transactions (default 4096)
  --promote                search for template reads to promote
                           (SELECT ... FOR UPDATE across every instance)
                           so a strictly cheaper per-template allocation
                           becomes robust
  (--explain, --rcsi, --witness-json and --validate-runs also apply at
   template granularity; the witness JSON names which predicate or
   constraint discharged each template-pair conflict, see docs/formats.md)

serve flags:
  --port <n>               listen port (default 0 = ephemeral)
  --host <addr>            listen address (default 127.0.0.1)
  --port-file <file>       write the bound port here after listening
  --witness-interval <s>   robustness re-check cadence (default 30)
  --duration <s>           stop after <s> seconds (default 0 = until
                           SIGINT/SIGTERM)
  --window <s>             sliding window of the live per-level series
                           (default 60)
  --adapt                  adaptive allocation: re-derive SI/SSI cost
                           weights from the live windowed telemetry,
                           re-run Algorithm 2 (and the promotion
                           optimizer under --adapt-budget), and hot-swap
                           the allocation at the next engine epoch;
                           every installed allocation passes a fresh
                           robustness check first
  --adapt-interval <s>     seconds between controller decisions
                           (default 30)
  --adapt-budget <n>       promotion budget per decision (default 0 =
                           allocation-only decisions)
)";

// Parsed flag map; flags are --name value pairs except boolean switches.
struct Flags {
  std::map<std::string, std::string> values;
  bool Has(const std::string& name) const { return values.contains(name); }
  std::string Get(const std::string& name) const {
    auto it = values.find(name);
    return it == values.end() ? std::string() : it->second;
  }
};

constexpr CliFlag kFlags[] = {
    // Common flags.
    {"txns", true},
    {"workload", true},
    {"alloc", true},
    {"default", true},
    {"schedule", true},
    {"dot", false},
    {"timeline", false},
    {"rcsi", false},
    {"explain", false},
    {"pin", true},
    {"atmost", true},
    {"max", true},
    {"templates", true},
    {"json", false},
    {"runs", true},
    {"concurrency", true},
    {"engine-threads", true},
    {"engine-shards", true},
    {"seed", true},
    {"witness-json", true},
    {"witness-dot", true},
    {"record-schedule", true},
    {"record-trace", true},
    {"threads", true},
    {"stats-json", true},
    {"trace-out", true},
    {"trace-sample", true},
    {"metrics-interval", true},
    {"log-level", true},
    {"profile-hz", true},
    {"profile-out", true},
    // promote.
    {"budget", true},
    {"target", true},
    {"promotion-json", true},
    {"validate-runs", true},
    {"weight-si", true},
    {"weight-ssi", true},
    // templates.
    {"no-constraints", false},
    {"copies", true},
    {"max-instances", true},
    {"promote", false},
    // serve.
    {"port", true},
    {"host", true},
    {"port-file", true},
    {"witness-interval", true},
    {"duration", true},
    {"window", true},
    {"adapt", false},
    {"adapt-interval", true},
    {"adapt-budget", true},
};

StatusOr<Flags> ParseFlags(const std::vector<std::string>& args,
                           size_t start) {
  Flags flags;
  for (size_t i = start; i < args.size(); ++i) {
    if (!args[i].starts_with("--")) {
      return Status::InvalidArgument(
          StrCat("unexpected argument '", args[i], "'"));
    }
    std::string name = args[i].substr(2);
    const CliFlag* flag =
        std::find_if(std::begin(kFlags), std::end(kFlags),
                     [&](const CliFlag& known) { return name == known.name; });
    if (flag == std::end(kFlags)) {
      return Status::InvalidArgument(
          StrCat("unknown flag --", name, " (see mvrob --help)"));
    }
    if (!flag->takes_value) {
      flags.values[name] = "1";
      continue;
    }
    if (i + 1 >= args.size()) {
      return Status::InvalidArgument(StrCat("--", name, " needs a value"));
    }
    flags.values[name] = args[++i];
  }
  return flags;
}

// Resolves "@path" arguments to file contents.
StatusOr<std::string> LoadText(const std::string& value) {
  if (!value.starts_with("@")) return value;
  std::ifstream file(value.substr(1));
  if (!file) {
    return Status::NotFound(StrCat("cannot open ", value.substr(1)));
  }
  std::ostringstream text;
  text << file.rdbuf();
  return text.str();
}

StatusOr<TransactionSet> LoadTxns(const Flags& flags) {
  if (flags.Has("workload")) {
    StatusOr<Workload> workload = MakeNamedWorkload(flags.Get("workload"));
    if (!workload.ok()) return workload.status();
    return std::move(workload->txns);
  }
  if (!flags.Has("txns")) {
    return Status::InvalidArgument("--txns or --workload is required");
  }
  StatusOr<std::string> text = LoadText(flags.Get("txns"));
  if (!text.ok()) return text.status();
  return ParseTransactionSet(*text);
}

StatusOr<Allocation> LoadAllocation(const Flags& flags,
                                    const TransactionSet& txns) {
  IsolationLevel fallback = IsolationLevel::kSI;
  if (flags.Has("default")) {
    StatusOr<IsolationLevel> parsed =
        ParseIsolationLevel(flags.Get("default"));
    if (!parsed.ok()) return parsed.status();
    fallback = *parsed;
  }
  return ParseAllocation(txns, flags.Get("alloc"), fallback);
}

int Fail(std::ostream& err, const Status& status) {
  err << "error: " << status.ToString() << "\n";
  return 1;
}

// Strictly parsed numeric flags: junk ("12x", "abc"), a stray sign, or an
// out-of-range value is an error, never a silently coerced number.
StatusOr<int> IntFlag(const Flags& flags, const std::string& name,
                      int fallback,
                      int min = std::numeric_limits<int>::min(),
                      int max = std::numeric_limits<int>::max()) {
  if (!flags.Has(name)) return fallback;
  StatusOr<int> parsed = ParseInt(flags.Get(name), min, max);
  if (!parsed.ok()) {
    return Status::InvalidArgument(
        StrCat("--", name, ": ", parsed.status().message()));
  }
  return parsed;
}

StatusOr<uint64_t> Uint64Flag(const Flags& flags, const std::string& name,
                              uint64_t fallback) {
  if (!flags.Has(name)) return fallback;
  StatusOr<uint64_t> parsed = ParseUint64(flags.Get(name));
  if (!parsed.ok()) {
    return Status::InvalidArgument(
        StrCat("--", name, ": ", parsed.status().message()));
  }
  return parsed;
}

StatusOr<CheckOptions> LoadCheckOptions(const Flags& flags,
                                        MetricsRegistry* metrics) {
  CheckOptions options;
  options.metrics = metrics;
  StatusOr<int> threads = IntFlag(flags, "threads", options.num_threads);
  if (!threads.ok()) return threads.status();
  options.num_threads = *threads;
  return options;
}

// --engine-threads / --engine-shards, shared by simulate, validate and
// serve. Shards partition the many-core engine only, so a shard count
// without more than one engine thread is rejected rather than ignored.
struct EngineFlags {
  int threads = 1;
  size_t shards = 0;
};

StatusOr<EngineFlags> LoadEngineFlags(const Flags& flags) {
  StatusOr<int> threads = IntFlag(flags, "engine-threads", 1, 1, 256);
  if (!threads.ok()) return threads.status();
  StatusOr<int> shards = IntFlag(flags, "engine-shards", 0, 1, 1 << 16);
  if (!shards.ok()) return shards.status();
  if (*shards != 0 && *threads == 1) {
    return Status::InvalidArgument(
        "--engine-shards requires --engine-threads > 1 (the single-threaded "
        "engine has no shards)");
  }
  return EngineFlags{*threads, static_cast<size_t>(*shards)};
}

// WriteTextFile / EmitArtifact live in cli/export.h, shared with the
// periodic exporter and the serve loop.

// Emits the --witness-json / --witness-dot artifacts for a robustness
// verdict; no-op when neither flag is present.
Status EmitRobustnessWitness(const Flags& flags, const TransactionSet& txns,
                             const Allocation& alloc,
                             const RobustnessResult& result,
                             std::ostream& out) {
  if (flags.Has("witness-json")) {
    Status emitted = EmitArtifact(flags.Get("witness-json"),
                                  RobustnessWitnessJson(txns, alloc, result),
                                  out);
    if (!emitted.ok()) return emitted;
  }
  if (flags.Has("witness-dot")) {
    Status emitted = EmitArtifact(flags.Get("witness-dot"),
                                  RobustnessWitnessDot(txns, alloc, result),
                                  out);
    if (!emitted.ok()) return emitted;
  }
  return Status::Ok();
}

// The allocate/shell counterpart: per-transaction obstacle provenance.
Status EmitAllocationWitness(const Flags& flags, const TransactionSet& txns,
                             const AllocationExplanation& explanation,
                             std::ostream& out) {
  if (flags.Has("witness-json")) {
    Status emitted =
        EmitArtifact(flags.Get("witness-json"),
                     AllocationExplanationJson(txns, explanation), out);
    if (!emitted.ok()) return emitted;
  }
  if (flags.Has("witness-dot")) {
    Status emitted =
        EmitArtifact(flags.Get("witness-dot"),
                     AllocationExplanationDot(txns, explanation), out);
    if (!emitted.ok()) return emitted;
  }
  return Status::Ok();
}

// Emits a counterexample chain as a JSON object.
void ChainToJson(const TransactionSet& txns, const CounterexampleChain& chain,
                 JsonWriter& json) {
  json.BeginObject();
  json.Key("split_txn");
  json.String(txns.txn(chain.t1).name());
  json.Key("split_after");
  json.String(txns.FormatOp(chain.b1));
  json.Key("chain");
  json.BeginArray();
  for (TxnId t : chain.ChainTxns()) json.String(txns.txn(t).name());
  json.EndArray();
  json.EndObject();
}

int CmdCheck(const Flags& flags, std::ostream& out, std::ostream& err,
             MetricsRegistry* metrics) {
  StatusOr<TransactionSet> txns = LoadTxns(flags);
  if (!txns.ok()) return Fail(err, txns.status());
  StatusOr<Allocation> alloc = LoadAllocation(flags, *txns);
  if (!alloc.ok()) return Fail(err, alloc.status());
  StatusOr<CheckOptions> options = LoadCheckOptions(flags, metrics);
  if (!options.ok()) return Fail(err, options.status());

  RobustnessResult result = CheckRobustness(*txns, *alloc, *options);
  Status witness_out = EmitRobustnessWitness(flags, *txns, *alloc, result, out);
  if (!witness_out.ok()) return Fail(err, witness_out);

  if (flags.Has("json")) {
    JsonWriter json;
    json.BeginObject();
    json.Key("allocation");
    json.String(alloc->ToString(*txns));
    json.Key("robust");
    json.Bool(result.robust);
    if (!result.robust) {
      json.Key("counterexample");
      ChainToJson(*txns, *result.counterexample, json);
    }
    json.EndObject();
    out << json.str() << "\n";
    return 0;
  }

  out << "workload:\n" << txns->ToString();
  out << "allocation: " << alloc->ToString(*txns) << "\n";
  out << "robust: " << (result.robust ? "yes" : "no") << "\n";
  if (!result.robust) {
    out << "counterexample: " << result.counterexample->ToString(*txns)
        << "\n";
    StatusOr<Schedule> witness =
        BuildSplitSchedule(*txns, *alloc, *result.counterexample);
    if (witness.ok()) {
      out << "witness schedule: " << witness->ToString() << "\n";
    }
  }
  return 0;
}

// The box `allocate` searches: Free, or RcSi under --rcsi, narrowed by
// --pin / --atmost. A pin or cap only ever narrows the box, so a pin above
// SI under --rcsi leaves it empty, which ComputeOptimalAllocation rejects.
StatusOr<AllocationBounds> LoadBounds(const Flags& flags,
                                      const TransactionSet& txns) {
  AllocationBounds bounds = flags.Has("rcsi")
                                ? AllocationBounds::RcSi(txns.size())
                                : AllocationBounds::Free(txns.size());
  if (flags.Has("pin")) {
    // Reuse the allocation parser: unmentioned transactions default to RC
    // and a second parse with SSI default distinguishes them.
    StatusOr<Allocation> low =
        ParseAllocation(txns, flags.Get("pin"), IsolationLevel::kRC);
    if (!low.ok()) return low.status();
    StatusOr<Allocation> high =
        ParseAllocation(txns, flags.Get("pin"), IsolationLevel::kSSI);
    if (!high.ok()) return high.status();
    for (TxnId t = 0; t < txns.size(); ++t) {
      if (low->level(t) != high->level(t)) continue;  // Not mentioned.
      bounds.AtLeast(t, low->level(t));
      if (low->level(t) < bounds.max_level[t]) {
        bounds.AtMost(t, low->level(t));
      }
    }
  }
  if (flags.Has("atmost")) {
    StatusOr<Allocation> cap =
        ParseAllocation(txns, flags.Get("atmost"), IsolationLevel::kSSI);
    if (!cap.ok()) return cap.status();
    for (TxnId t = 0; t < txns.size(); ++t) {
      if (cap->level(t) < bounds.max_level[t]) {
        bounds.AtMost(t, cap->level(t));
      }
    }
  }
  return bounds;
}

int CmdAllocate(const Flags& flags, std::ostream& out, std::ostream& err,
                MetricsRegistry* metrics) {
  StatusOr<TransactionSet> txns = LoadTxns(flags);
  if (!txns.ok()) return Fail(err, txns.status());
  StatusOr<CheckOptions> options = LoadCheckOptions(flags, metrics);
  if (!options.ok()) return Fail(err, options.status());
  const bool pinned = flags.Has("pin") || flags.Has("atmost");
  const bool bounded = pinned || flags.Has("rcsi");
  if (bounded) {
    for (const char* output : {"json", "explain", "witness-json",
                               "witness-dot"}) {
      if (!flags.Has(output)) continue;
      return Fail(err, Status::InvalidArgument(StrCat(
                           "--", output,
                           " does not apply with --rcsi, --pin or --atmost")));
    }
  }
  if (flags.Has("json") && flags.Has("explain")) {
    return Fail(err, Status::InvalidArgument(
                         "--explain does not apply with --json (use "
                         "--witness-json for the obstacles)"));
  }
  StatusOr<AllocationBounds> bounds = LoadBounds(flags, *txns);
  if (!bounds.ok()) return Fail(err, bounds.status());

  const RobustnessAnalyzer analyzer(*txns, metrics);
  StatusOr<OptimalAllocationResult> optimum =
      ComputeOptimalAllocation(analyzer, *bounds, *options);
  if (!optimum.ok()) return Fail(err, optimum.status());
  const OptimalAllocationResult& result = *optimum;
  if (pinned) {
    if (!result.feasible) {
      out << "no robust allocation exists within the given bounds\n";
      out << "counterexample at the bounds' top: "
          << result.counterexample->ToString(*txns) << "\n";
      return 0;
    }
    out << "optimal allocation within bounds: "
        << result.allocation.ToString(*txns) << "\n";
    return 0;
  }
  if (bounded) {
    if (!result.feasible) {
      out << "no robust {RC,SI} allocation exists\n";
      out << "counterexample against A_SI: "
          << result.counterexample->ToString(*txns) << "\n";
      return 0;
    }
    out << "optimal {RC,SI} allocation: "
        << result.allocation.ToString(*txns) << "\n";
    return 0;
  }

  // One explanation serves --witness-json/-dot and the --explain text.
  const bool witness = flags.Has("witness-json") || flags.Has("witness-dot");
  const bool explain = flags.Has("explain");
  std::optional<AllocationExplanation> explanation;
  if (witness || explain) {
    StatusOr<AllocationExplanation> explained =
        ExplainAllocation(*txns, result.allocation, *options);
    if (!explained.ok()) return Fail(err, explained.status());
    explanation = *std::move(explained);
  }
  if (witness) {
    Status witness_out = EmitAllocationWitness(flags, *txns, *explanation, out);
    if (!witness_out.ok()) return Fail(err, witness_out);
  }
  if (flags.Has("json")) {
    JsonWriter json;
    json.BeginObject();
    json.Key("levels");
    json.BeginObject();
    for (TxnId t = 0; t < txns->size(); ++t) {
      json.Key(txns->txn(t).name());
      json.String(IsolationLevelToString(result.allocation.level(t)));
    }
    json.EndObject();
    json.Key("robustness_checks");
    json.Uint(result.robustness_checks);
    json.EndObject();
    out << json.str() << "\n";
    return 0;
  }
  out << "optimal allocation: " << result.allocation.ToString(*txns) << "\n";
  out << "levels: RC=" << result.allocation.CountAt(IsolationLevel::kRC)
      << " SI=" << result.allocation.CountAt(IsolationLevel::kSI)
      << " SSI=" << result.allocation.CountAt(IsolationLevel::kSSI) << "\n";
  if (explain) out << explanation->ToString(*txns);
  return 0;
}

int CmdExplore(const Flags& flags, std::ostream& out, std::ostream& err) {
  StatusOr<TransactionSet> txns = LoadTxns(flags);
  if (!txns.ok()) return Fail(err, txns.status());
  if (!flags.Has("schedule")) {
    return Fail(err, Status::InvalidArgument("--schedule is required"));
  }
  StatusOr<std::vector<OpRef>> order =
      ParseScheduleOrder(*txns, flags.Get("schedule"));
  if (!order.ok()) return Fail(err, order.status());
  StatusOr<Allocation> alloc = LoadAllocation(flags, *txns);
  if (!alloc.ok()) return Fail(err, alloc.status());
  StatusOr<Schedule> schedule = MaterializeSchedule(&*txns, *order, *alloc);
  if (!schedule.ok()) return Fail(err, schedule.status());

  out << "schedule: " << schedule->ToString(/*with_versions=*/true) << "\n";
  if (flags.Has("timeline")) out << ScheduleTimeline(*schedule);
  SerializationGraph graph = SerializationGraph::Build(*schedule);
  for (const Dependency& edge : graph.edges()) {
    out << "  " << FormatDependency(*txns, edge) << "\n";
  }
  out << "conflict serializable: " << (graph.IsAcyclic() ? "yes" : "no")
      << "\n";
  for (const AnomalyReport& anomaly : FindAnomalies(*schedule)) {
    out << "anomaly: " << anomaly.ToString(*txns) << "\n";
  }
  AllowedCheckResult allowed = CheckAllowedUnder(*schedule, *alloc);
  out << "allowed under " << alloc->ToString(*txns) << ": "
      << (allowed.allowed ? "yes" : "no") << "\n";
  for (const std::string& violation : allowed.violations) {
    out << "  - " << violation << "\n";
  }
  if (flags.Has("dot")) out << SerializationGraphToDot(*txns, graph);
  return 0;
}

int CmdCensus(const Flags& flags, std::ostream& out, std::ostream& err) {
  StatusOr<TransactionSet> txns = LoadTxns(flags);
  if (!txns.ok()) return Fail(err, txns.status());
  StatusOr<Allocation> alloc = LoadAllocation(flags, *txns);
  if (!alloc.ok()) return Fail(err, alloc.status());
  StatusOr<uint64_t> max_interleavings = Uint64Flag(flags, "max", 2'000'000);
  if (!max_interleavings.ok()) return Fail(err, max_interleavings.status());
  StatusOr<ScheduleCensus> census =
      ComputeScheduleCensus(*txns, *alloc, *max_interleavings);
  if (!census.ok()) return Fail(err, census.status());
  out << "interleavings: " << census->interleavings << "\n";
  out << "allowed:       " << census->allowed << "\n";
  out << "serializable:  " << census->serializable << "\n";
  out << "anomalous:     " << census->anomalous << "\n";
  return 0;
}

int CmdTemplates(const Flags& flags, std::ostream& out, std::ostream& err,
                 MetricsRegistry* metrics) {
  if (!flags.Has("templates")) {
    return Fail(err, Status::InvalidArgument("--templates is required"));
  }
  StatusOr<std::string> text = LoadText(flags.Get("templates"));
  if (!text.ok()) return Fail(err, text.status());
  StatusOr<TemplateSet> parsed = ParseTemplateSet(*text);
  if (!parsed.ok()) return Fail(err, parsed.status());
  TemplateSet set =
      flags.Has("no-constraints") ? parsed->WithoutConstraints() : *parsed;

  InstantiationOptions inst;
  StatusOr<int> copies =
      IntFlag(flags, "copies", inst.copies_per_assignment, 1, 8);
  if (!copies.ok()) return Fail(err, copies.status());
  inst.copies_per_assignment = *copies;
  StatusOr<int> max_instances =
      IntFlag(flags, "max-instances", inst.max_instances, 1);
  if (!max_instances.ok()) return Fail(err, max_instances.status());
  inst.max_instances = *max_instances;
  StatusOr<CheckOptions> options = LoadCheckOptions(flags, metrics);
  if (!options.ok()) return Fail(err, options.status());

  // One analysis serves every section below: the allocation, the
  // conflict report, --explain, --promote, --validate-runs and the
  // witness JSON.
  StatusOr<TemplateAnalysis> analysis =
      TemplateAnalysis::Build(set, inst, *options);
  if (!analysis.ok()) return Fail(err, analysis.status());
  const bool rcsi = flags.Has("rcsi");
  StatusOr<TemplateAllocationResult> allocation =
      ComputeOptimalTemplateAllocation(
          *analysis, rcsi ? AllocationBounds::RcSi(set.size())
                          : AllocationBounds::Free(set.size()));
  if (!allocation.ok()) return Fail(err, allocation.status());
  const TemplateAllocationResult& result = *allocation;

  TemplateWitnessInputs witness;
  witness.robustness_checks = result.robustness_checks;
  if (result.feasible) witness.levels = &result.levels;
  if (!result.feasible) {  // Only the RcSi box can be infeasible.
    out << "NOT robustly {RC, SI}-allocatable at template granularity.\n"
        << "witness: "
        << result.counterexample->ToString(analysis->txns(result.world));
    const std::string& world = analysis->world_name(result.world);
    if (!world.empty()) out << " [world " << world << "]";
    out << "\n";
  } else if (rcsi) {
    out << "optimal {RC, SI} per-program allocation: "
        << FormatTemplateAllocation(set, result.levels) << "\n";
  } else {
    out << "optimal per-program allocation: "
        << FormatTemplateAllocation(set, result.levels) << "\n";
    if (analysis->num_worlds() > 1) {
      out << "function worlds checked: " << analysis->num_worlds()
          << " (robust in every interpretation of the declared "
             "functions)\n";
    }
  }

  // The refined potential-conflict relation, with attribution: which
  // constraint or predicate discharged each template-op pair relative to
  // the distinct-parameter baseline.
  if (const TemplateConflictAnalysis* conflicts = analysis->conflicts()) {
    out << "template-pair conflicts: " << conflicts->conflicting_pairs
        << " (distinct-parameter baseline: "
        << conflicts->baseline_conflicting_pairs << ")\n";
    if (flags.Has("explain")) {
      for (const TemplateOpPairConflict& pair : conflicts->op_pairs) {
        if (pair.conflicts || !pair.baseline_conflicts) continue;
        out << "  " << set.tmpl(pair.tmpl_a).name() << ".op" << pair.op_a
            << " x " << set.tmpl(pair.tmpl_b).name() << ".op" << pair.op_b
            << " (" << pair.kind << "): discharged by "
            << pair.discharged_by << "\n";
      }
    }
  }

  std::optional<TemplateExplanation> explanation;
  if (flags.Has("explain") && result.feasible) {
    StatusOr<TemplateExplanation> explained =
        ExplainTemplateAllocation(*analysis, result.levels);
    if (!explained.ok()) return Fail(err, explained.status());
    explanation = *std::move(explained);
    witness.explanation = &*explanation;
    out << "\nwhy no template can run lower:\n"
        << explanation->ToString(*analysis);
  }

  std::optional<TemplatePromotionPlan> promotion;
  if (flags.Has("promote")) {
    StatusOr<TemplatePromotionPlan> plan =
        OptimizeTemplatePromotions(*analysis, PromoteOptions{});
    if (!plan.ok()) return Fail(err, plan.status());
    promotion = *std::move(plan);
    witness.promotion = &*promotion;
    if (promotion->improved) {
      out << "\ntemplate promotions (SELECT ... FOR UPDATE): "
          << FormatTemplatePromotions(set, promotion->promotions) << "\n"
          << "  before: "
          << FormatTemplateAllocation(set, promotion->before_levels)
          << " (weighted " << promotion->before_cost.weighted << ")\n"
          << "  after:  "
          << FormatTemplateAllocation(set, promotion->after_levels)
          << " (weighted " << promotion->after_cost.weighted << ")\n";
    } else {
      out << "\nno template promotion lowers the allocation cost\n";
    }
  }

  // Engine certification: every world's canonical instantiation is run on
  // the MVCC engine under the computed per-template allocation and
  // round-tripped through the formal checker.
  uint64_t disagreements = 0;
  StatusOr<int> validate_runs =
      IntFlag(flags, "validate-runs", 0, 0, std::numeric_limits<int>::max());
  if (!validate_runs.ok()) return Fail(err, validate_runs.status());
  if (*validate_runs > 0 && result.feasible) {
    StatusOr<uint64_t> seed = Uint64Flag(flags, "seed", 0);
    if (!seed.ok()) return Fail(err, seed.status());
    for (size_t w = 0; w < analysis->num_worlds(); ++w) {
      RoundTripOptions rt;
      rt.runs = *validate_runs;
      rt.seed = *seed;
      StatusOr<RoundTripReport> report = ValidateEngineRuns(
          analysis->instantiation(w).txns,
          analysis->InstanceAllocation(w, result.levels), rt);
      if (!report.ok()) return Fail(err, report.status());
      disagreements += report->disagreements;
      out << "validation: runs=" << report->runs
          << " certified=" << report->certified
          << " disagreements=" << report->disagreements
          << " anomalous=" << report->anomalous_runs;
      if (!analysis->world_name(w).empty()) {
        out << " [world " << analysis->world_name(w) << "]";
      }
      out << "\n";
    }
  }

  if (flags.Has("witness-json")) {
    Status emitted = EmitArtifact(flags.Get("witness-json"),
                                  TemplateWitnessJson(*analysis, witness), out);
    if (!emitted.ok()) return Fail(err, emitted);
  }
  if (!result.feasible) return 1;
  if (disagreements != 0) return 2;
  return 0;
}

int CmdReport(const Flags& flags, std::ostream& out, std::ostream& err,
              MetricsRegistry* metrics) {
  StatusOr<TransactionSet> txns = LoadTxns(flags);
  if (!txns.ok()) return Fail(err, txns.status());
  StatusOr<CheckOptions> options = LoadCheckOptions(flags, metrics);
  if (!options.ok()) return Fail(err, options.status());

  out << "# Workload analysis\n\n";
  out << "## Transactions\n\n```\n" << txns->ToString() << "```\n\n";
  out << ComputeWorkloadStats(*txns).ToString() << "\n\n";

  out << "## Robustness against homogeneous allocations\n\n";
  out << "| allocation | robust |\n|---|---|\n";
  const size_t n = txns->size();
  const RobustnessAnalyzer analyzer(*txns, metrics);
  RobustnessResult rc = analyzer.Check(Allocation::AllRC(n), *options);
  RobustnessResult si = analyzer.Check(Allocation::AllSI(n), *options);
  out << "| A_RC  | " << (rc.robust ? "yes" : "no") << " |\n";
  out << "| A_SI  | " << (si.robust ? "yes" : "no") << " |\n";
  out << "| A_SSI | yes |\n\n";

  OptimalAllocationResult optimal = ComputeOptimalAllocation(analyzer, *options);
  out << "## Optimal robust allocation\n\n";
  out << "```\n" << optimal.allocation.ToString(*txns) << "\n```\n\n";
  out << "RC=" << optimal.allocation.CountAt(IsolationLevel::kRC)
      << " SI=" << optimal.allocation.CountAt(IsolationLevel::kSI)
      << " SSI=" << optimal.allocation.CountAt(IsolationLevel::kSSI)
      << " (" << optimal.robustness_checks << " robustness checks)\n\n";

  StatusOr<AllocationExplanation> explanation =
      ExplainAllocation(*txns, optimal.allocation, *options);
  if (explanation.ok()) {
    out << "## Why no transaction can run lower\n\n```\n"
        << explanation->ToString(*txns) << "```\n\n";
  }

  const std::vector<CounterexampleChain> spots =
      analyzer.FindAll(Allocation::AllSI(n), /*limit=*/8, *options).chains;
  if (!spots.empty()) {
    out << "## Trouble spots under A_SI\n\n";
    for (const CounterexampleChain& chain : spots) {
      out << "- " << chain.ToString(*txns) << "\n";
    }
    out << "\n";
  }

  OptimalAllocationResult rcsi =
      ComputeOptimalAllocation(analyzer, AllocationBounds::RcSi(n), *options)
          .value();
  out << "## The {RC, SI} setting (Oracle)\n\n";
  if (rcsi.feasible) {
    out << "Robustly allocatable: `" << rcsi.allocation.ToString(*txns)
        << "`\n";
  } else {
    out << "NOT robustly allocatable — no assignment of RC/SI avoids "
           "anomalies.\nWitness: "
        << rcsi.counterexample->ToString(*txns) << "\n";
  }

  // A census when enumeration is cheap.
  StatusOr<ScheduleCensus> census =
      ComputeScheduleCensus(*txns, Allocation::AllSI(txns->size()),
                            /*max_interleavings=*/200'000);
  if (census.ok()) {
    out << "\n## Interleaving census under A_SI\n\n";
    out << census->allowed << " of " << census->interleavings
        << " interleavings allowed; " << census->anomalous
        << " anomalous.\n";
  }
  return 0;
}

int CmdSimulate(const Flags& flags, std::ostream& out, std::ostream& err,
                MetricsRegistry* metrics, TxnTracer* tracer) {
  StatusOr<TransactionSet> txns = LoadTxns(flags);
  if (!txns.ok()) return Fail(err, txns.status());
  StatusOr<Allocation> alloc = LoadAllocation(flags, *txns);
  if (!alloc.ok()) return Fail(err, alloc.status());
  StatusOr<int> runs =
      IntFlag(flags, "runs", 20, 1, std::numeric_limits<int>::max());
  if (!runs.ok()) return Fail(err, runs.status());
  StatusOr<int> concurrency =
      IntFlag(flags, "concurrency", 4, 1, std::numeric_limits<int>::max());
  if (!concurrency.ok()) return Fail(err, concurrency.status());
  StatusOr<uint64_t> seed = Uint64Flag(flags, "seed", 0);
  if (!seed.ok()) return Fail(err, seed.status());
  StatusOr<EngineFlags> engine = LoadEngineFlags(flags);
  if (!engine.ok()) return Fail(err, engine.status());
  StatusOr<CheckOptions> check = LoadCheckOptions(flags, metrics);
  if (!check.ok()) return Fail(err, check.status());

  out << "simulating " << *runs << " executions of " << txns->size()
      << " transactions under " << alloc->ToString(*txns);
  if (engine->threads > 1) out << " (" << engine->threads << " engine threads)";
  out << "\n";
  // --record-schedule / --record-trace export the *last* run; the recorder
  // is cleared between runs so the files cover one complete execution.
  const bool recording =
      flags.Has("record-schedule") || flags.Has("record-trace");
  std::optional<ScheduleRecorder> recorder;
  if (recording) recorder.emplace();
  uint64_t commits = 0;
  uint64_t fuw = 0;
  uint64_t ssi = 0;
  uint64_t serializable = 0;
  std::map<std::string, int> anomaly_counts;
  for (int r = 0; r < *runs; ++r) {
    if (recorder.has_value()) recorder->Clear();
    RandomRunOptions options;
    options.concurrency = *concurrency;
    options.seed = *seed + static_cast<uint64_t>(r);
    options.engine_threads = engine->threads;
    options.engine_shards = engine->shards;
    options.metrics = metrics;
    options.tracer = tracer;
    if (recorder.has_value()) options.recorder = &*recorder;
    const WorkloadRun engine_run = RunWorkload(*txns, *alloc, options);
    commits += engine_run.report().committed;
    fuw += engine_run.stats().aborts_write_conflict;
    ssi += engine_run.stats().aborts_ssi;
    StatusOr<ExportedRun> run = engine_run.Export(*txns);
    if (!run.ok()) continue;
    StatusOr<Schedule> schedule = run->BuildSchedule();
    if (!schedule.ok()) continue;
    std::vector<AnomalyReport> anomalies = FindAnomalies(*schedule);
    if (anomalies.empty()) {
      ++serializable;
    } else {
      for (const AnomalyReport& anomaly : anomalies) {
        ++anomaly_counts[AnomalyKindToString(anomaly.kind)];
      }
    }
  }
  out << "commits: " << commits << ", first-updater aborts: " << fuw
      << ", SSI aborts: " << ssi << "\n";
  out << "serializable runs: " << serializable << "/" << *runs << "\n";
  for (const auto& [kind, count] : anomaly_counts) {
    out << "anomaly '" << kind << "': " << count << " occurrence(s)\n";
  }
  bool robust = CheckRobustness(*txns, *alloc, *check).robust;
  out << "(Algorithm 1 verdict for this allocation: "
      << (robust ? "robust - anomalies are impossible"
                 : "NOT robust - anomalies are possible")
      << ")\n";
  if (recorder.has_value()) {
    if (flags.Has("record-schedule")) {
      Status written = EmitArtifact(flags.Get("record-schedule"),
                                    recorder->ToText(*txns), out);
      if (!written.ok()) return Fail(err, written);
    }
    if (flags.Has("record-trace")) {
      Status written = EmitArtifact(flags.Get("record-trace"),
                                    recorder->ToChromeTrace(*txns), out);
      if (!written.ok()) return Fail(err, written);
    }
    if (recorder->dropped() > 0) {
      GlobalLogger().Log(LogLevel::kWarn, "cli.simulate",
                         "recorder dropped events",
                         {LogField("dropped", recorder->dropped()),
                          LogField("capacity", recorder->capacity())});
    }
  }
  return 0;
}

// Records randomized engine runs and feeds every recording back through
// the formal checker (mvcc/roundtrip.h). Exit code 2 on any
// theory/execution disagreement.
int CmdValidate(const Flags& flags, std::ostream& out, std::ostream& err,
                MetricsRegistry* metrics) {
  StatusOr<TransactionSet> txns = LoadTxns(flags);
  if (!txns.ok()) return Fail(err, txns.status());
  StatusOr<Allocation> alloc = LoadAllocation(flags, *txns);
  if (!alloc.ok()) return Fail(err, alloc.status());
  StatusOr<CheckOptions> check = LoadCheckOptions(flags, metrics);
  if (!check.ok()) return Fail(err, check.status());
  StatusOr<int> runs =
      IntFlag(flags, "runs", 200, 0, std::numeric_limits<int>::max());
  if (!runs.ok()) return Fail(err, runs.status());
  StatusOr<int> concurrency =
      IntFlag(flags, "concurrency", 4, 1, std::numeric_limits<int>::max());
  if (!concurrency.ok()) return Fail(err, concurrency.status());
  StatusOr<uint64_t> seed = Uint64Flag(flags, "seed", 0);
  if (!seed.ok()) return Fail(err, seed.status());
  StatusOr<EngineFlags> engine = LoadEngineFlags(flags);
  if (!engine.ok()) return Fail(err, engine.status());

  RoundTripOptions options;
  options.runs = *runs;
  options.concurrency = *concurrency;
  options.seed = *seed;
  options.engine_threads = engine->threads;
  options.engine_shards = engine->shards;
  options.check = *check;
  options.metrics = metrics;
  StatusOr<RoundTripReport> report =
      ValidateEngineRuns(*txns, *alloc, options);
  if (!report.ok()) return Fail(err, report.status());
  out << report->ToString();
  return report->disagreements == 0 ? 0 : 2;
}

// Interactive loop: one command per line on `in`.
//   add <Name>: R[x] W[y]   add a transaction and reallocate
//   remove <Name>           drop a transaction
//   show                    print workload + current optimal allocation
//   quit
int CmdShell(const Flags& flags, std::istream& in, std::ostream& out,
             std::ostream& err, MetricsRegistry* metrics) {
  StatusOr<CheckOptions> check = LoadCheckOptions(flags, metrics);
  if (!check.ok()) return Fail(err, check.status());
  IncrementalAllocator allocator;
  allocator.set_check_options(*check);
  // With --witness-json / --witness-dot, the witness files are rewritten
  // after every successful add/remove, tracking the current optimum's
  // provenance across the interactive session.
  auto refresh_witness = [&]() {
    if (!flags.Has("witness-json") && !flags.Has("witness-dot")) return;
    if (allocator.txns().empty()) return;
    StatusOr<AllocationExplanation> explanation =
        ExplainAllocation(allocator.txns(), allocator.allocation(), *check);
    if (!explanation.ok()) {
      err << "error: " << explanation.status().ToString() << "\n";
      return;
    }
    Status emitted =
        EmitAllocationWitness(flags, allocator.txns(), *explanation, out);
    if (!emitted.ok()) err << "error: " << emitted.ToString() << "\n";
  };
  out << "mvrob shell - 'add <Name>: R[x] W[y]', 'remove <Name>', 'show', "
         "'quit'\n";
  std::string line;
  while (out << "> " << std::flush, std::getline(in, line)) {
    std::string_view trimmed = StripWhitespace(line);
    if (trimmed.empty()) continue;
    if (trimmed == "quit" || trimmed == "exit") break;
    if (trimmed == "show") {
      out << allocator.txns().ToString();
      if (!allocator.txns().empty()) {
        out << "optimal: "
            << allocator.allocation().ToString(allocator.txns()) << "\n";
      }
      continue;
    }
    if (trimmed.starts_with("remove ")) {
      std::string name(StripWhitespace(trimmed.substr(7)));
      TxnId txn = allocator.txns().FindTransaction(name);
      if (txn == kInvalidTxnId) {
        err << "error: no transaction '" << name << "'\n";
        continue;
      }
      Status removed = allocator.RemoveTransaction(txn);
      if (!removed.ok()) {
        err << "error: " << removed.ToString() << "\n";
        continue;
      }
      out << "removed " << name << "\n";
      if (!allocator.txns().empty()) {
        out << "optimal: "
            << allocator.allocation().ToString(allocator.txns()) << "\n";
      }
      refresh_witness();
      continue;
    }
    if (trimmed.starts_with("add ")) {
      // Parse "<Name>: ops" by reusing the workload DSL on a fresh set,
      // then copy the transaction over with interned objects.
      StatusOr<TransactionSet> parsed =
          ParseTransactionSet(trimmed.substr(4));
      if (!parsed.ok() || parsed->size() != 1) {
        err << "error: expected 'add Name: R[x] W[y] ...'\n";
        continue;
      }
      const Transaction& txn = parsed->txn(0);
      std::vector<Operation> ops;
      for (int i = 0; i + 1 < txn.num_ops(); ++i) {
        Operation op = txn.op(i);
        op.object = allocator.InternObject(parsed->ObjectName(op.object));
        ops.push_back(op);
      }
      StatusOr<TxnId> added =
          allocator.AddTransaction(txn.name(), std::move(ops));
      if (!added.ok()) {
        err << "error: " << added.status().ToString() << "\n";
        continue;
      }
      out << "added " << txn.name() << "; optimal: "
          << allocator.allocation().ToString(allocator.txns()) << "\n";
      refresh_witness();
      continue;
    }
    err << "error: unknown shell command '" << trimmed << "'\n";
  }
  return 0;
}

// Long-running telemetry server; see cli/serve.h for the subsystem.
int CmdServe(const Flags& flags, std::ostream& out, std::ostream& err) {
  StatusOr<TransactionSet> txns = LoadTxns(flags);
  if (!txns.ok()) return Fail(err, txns.status());
  StatusOr<Allocation> alloc = LoadAllocation(flags, *txns);
  if (!alloc.ok()) return Fail(err, alloc.status());

  ServeParams params;
  params.txns = std::move(*txns);
  params.alloc = std::move(*alloc);
  params.host = flags.Has("host") ? flags.Get("host") : params.host;
  params.port_file = flags.Get("port-file");

  StatusOr<int> port = IntFlag(flags, "port", 0, 0, 65535);
  if (!port.ok()) return Fail(err, port.status());
  params.port = *port;
  StatusOr<int> witness_interval =
      IntFlag(flags, "witness-interval", 30, 1,
              std::numeric_limits<int>::max());
  if (!witness_interval.ok()) return Fail(err, witness_interval.status());
  params.witness_interval_s = *witness_interval;
  StatusOr<int> duration =
      IntFlag(flags, "duration", 0, 0, std::numeric_limits<int>::max());
  if (!duration.ok()) return Fail(err, duration.status());
  params.duration_s = *duration;
  StatusOr<int> window = IntFlag(flags, "window", 60, 1, 3600);
  if (!window.ok()) return Fail(err, window.status());
  params.window_s = static_cast<uint32_t>(*window);
  StatusOr<int> concurrency =
      IntFlag(flags, "concurrency", 4, 1, std::numeric_limits<int>::max());
  if (!concurrency.ok()) return Fail(err, concurrency.status());
  params.concurrency = *concurrency;
  StatusOr<uint64_t> seed = Uint64Flag(flags, "seed", 0);
  if (!seed.ok()) return Fail(err, seed.status());
  params.seed = *seed;
  StatusOr<int> threads = IntFlag(flags, "threads", 1);
  if (!threads.ok()) return Fail(err, threads.status());
  params.threads = *threads;
  StatusOr<EngineFlags> engine = LoadEngineFlags(flags);
  if (!engine.ok()) return Fail(err, engine.status());
  params.engine_threads = engine->threads;
  params.engine_shards = engine->shards;

  params.adapt = flags.Has("adapt");
  StatusOr<int> adapt_interval =
      IntFlag(flags, "adapt-interval", 30, 1,
              std::numeric_limits<int>::max());
  if (!adapt_interval.ok()) return Fail(err, adapt_interval.status());
  params.adapt_interval_s = *adapt_interval;
  StatusOr<int> adapt_budget =
      IntFlag(flags, "adapt-budget", 0, 0, 1 << 20);
  if (!adapt_budget.ok()) return Fail(err, adapt_budget.status());
  params.adapt_budget = *adapt_budget;

  StatusOr<uint64_t> trace_sample = Uint64Flag(flags, "trace-sample", 0);
  if (!trace_sample.ok()) return Fail(err, trace_sample.status());
  if (flags.Has("trace-sample") && *trace_sample == 0) {
    return Fail(err,
                Status::InvalidArgument("--trace-sample must be >= 1"));
  }
  params.trace_sample = *trace_sample;
  // serve owns its export files: they are written once on clean shutdown
  // (with the sampled txn spans merged into the trace), not by the
  // end-of-command exporter in RunCli.
  params.stats_json = flags.Get("stats-json");
  params.trace_out = flags.Get("trace-out");

  // serve also owns the profiler lifecycle (started with the server,
  // exported on clean shutdown); --profile-out alone implies the default
  // sampling rate, mirroring the non-serve commands.
  StatusOr<int> profile_hz = IntFlag(flags, "profile-hz", 0, 0, 1000);
  if (!profile_hz.ok()) return Fail(err, profile_hz.status());
  params.profile_hz = *profile_hz;
  params.profile_out = flags.Get("profile-out");
  if (params.profile_hz == 0 && !params.profile_out.empty()) {
    params.profile_hz = ProfilerOptions().hz;
  }

  return RunServe(std::move(params), out, err);
}

int CmdCrossCheck(const Flags& flags, std::ostream& out, std::ostream& err) {
  StatusOr<TransactionSet> txns = LoadTxns(flags);
  if (!txns.ok()) return Fail(err, txns.status());
  StatusOr<Allocation> alloc = LoadAllocation(flags, *txns);
  if (!alloc.ok()) return Fail(err, alloc.status());

  // The reference checker on purpose: crosscheck referees the analyzer.
  RobustnessResult algorithm = CheckRobustness(*txns, *alloc);
  out << "Algorithm 1 (PTIME):       "
      << (algorithm.robust ? "robust" : "not robust") << "\n";

  std::optional<CounterexampleChain> split =
      EnumerateSplitSchedules(*txns, *alloc);
  out << "Definition 3.1 enumeration: "
      << (split.has_value() ? "counterexample found" : "no split schedule")
      << "\n";

  StatusOr<BruteForceResult> brute = BruteForceRobustness(*txns, *alloc);
  if (brute.ok()) {
    out << "Brute-force oracle:        "
        << (brute->robust ? "robust" : "not robust") << " ("
        << brute->interleavings_checked << " interleavings)\n";
  } else {
    out << "Brute-force oracle:        skipped (" << brute.status().message()
        << ")\n";
  }

  bool agree = algorithm.robust == !split.has_value() &&
               (!brute.ok() || brute->robust == algorithm.robust);
  if (!algorithm.robust) {
    Status verified =
        VerifyCounterexample(*txns, *alloc, *algorithm.counterexample);
    out << "Witness verification:      "
        << (verified.ok() ? "allowed & non-serializable" : "FAILED") << "\n";
    agree = agree && verified.ok();
  }
  out << (agree ? "ALL CHECKS AGREE" : "DISAGREEMENT — please report a bug")
      << "\n";
  return agree ? 0 : 2;
}

// Witness-guided read promotion (docs/promotion.md): search for a small
// set of SELECT ... FOR UPDATE promotions under which Algorithm 2 returns
// a strictly cheaper allocation — or, with --target, under which a fixed
// allocation becomes robust.
int CmdPromote(const Flags& flags, std::ostream& out, std::ostream& err,
               MetricsRegistry* metrics) {
  StatusOr<TransactionSet> txns = LoadTxns(flags);
  if (!txns.ok()) return Fail(err, txns.status());
  StatusOr<CheckOptions> check = LoadCheckOptions(flags, metrics);
  if (!check.ok()) return Fail(err, check.status());
  PromoteOptions options;
  options.check = *check;
  StatusOr<int> budget = IntFlag(flags, "budget", options.max_promotions, 0,
                                 std::numeric_limits<int>::max());
  if (!budget.ok()) return Fail(err, budget.status());
  options.max_promotions = *budget;
  StatusOr<int> weight_si =
      IntFlag(flags, "weight-si", options.weight_si, 0, 1 << 20);
  if (!weight_si.ok()) return Fail(err, weight_si.status());
  options.weight_si = *weight_si;
  StatusOr<int> weight_ssi =
      IntFlag(flags, "weight-ssi", options.weight_ssi, 0, 1 << 20);
  if (!weight_ssi.ok()) return Fail(err, weight_ssi.status());
  options.weight_ssi = *weight_ssi;

  StatusOr<PromotionPlan> plan = [&]() -> StatusOr<PromotionPlan> {
    if (!flags.Has("target")) return OptimizePromotions(*txns, options);
    // Target mode: "T1=RC T2=SI" with --default (RC here) for the rest,
    // or a bare level name for a uniform target.
    const std::string spec = flags.Get("target");
    StatusOr<IsolationLevel> uniform = ParseIsolationLevel(spec);
    if (uniform.ok()) {
      return PromoteForTarget(*txns, Allocation(txns->size(), *uniform),
                              options);
    }
    IsolationLevel fallback = IsolationLevel::kRC;
    if (flags.Has("default")) {
      StatusOr<IsolationLevel> parsed =
          ParseIsolationLevel(flags.Get("default"));
      if (!parsed.ok()) return parsed.status();
      fallback = *parsed;
    }
    StatusOr<Allocation> target = ParseAllocation(*txns, spec, fallback);
    if (!target.ok()) return target.status();
    return PromoteForTarget(*txns, *target, options);
  }();
  if (!plan.ok()) return Fail(err, plan.status());

  // Optional certification, run before emission so the JSON document can
  // carry the verdict: the promoted workload must round-trip through the
  // engine + formal machinery without a single disagreement, and the
  // promoted allocation being robust means zero anomalous runs.
  std::optional<RoundTripReport> validation;
  StatusOr<int> validate_runs =
      IntFlag(flags, "validate-runs", 0, 0, std::numeric_limits<int>::max());
  if (!validate_runs.ok()) return Fail(err, validate_runs.status());
  if (*validate_runs > 0) {
    StatusOr<int> concurrency =
        IntFlag(flags, "concurrency", 4, 1, std::numeric_limits<int>::max());
    if (!concurrency.ok()) return Fail(err, concurrency.status());
    StatusOr<uint64_t> seed = Uint64Flag(flags, "seed", 0);
    if (!seed.ok()) return Fail(err, seed.status());
    RoundTripOptions rt;
    rt.runs = *validate_runs;
    rt.concurrency = *concurrency;
    rt.seed = *seed;
    rt.check = *check;
    rt.metrics = metrics;
    StatusOr<RoundTripReport> report =
        ValidateEngineRuns(plan->promoted, plan->after_allocation, rt);
    if (!report.ok()) return Fail(err, report.status());
    validation = *std::move(report);
  }
  std::string validation_json;
  if (validation.has_value()) {
    JsonWriter json;
    json.BeginObject();
    json.Key("runs");
    json.Uint(validation->runs);
    json.Key("certified");
    json.Uint(validation->certified);
    json.Key("disagreements");
    json.Uint(validation->disagreements);
    json.Key("serializable_runs");
    json.Uint(validation->serializable_runs);
    json.Key("anomalous_runs");
    json.Uint(validation->anomalous_runs);
    json.Key("skipped_unexportable");
    json.Uint(validation->skipped_unexportable);
    json.Key("allocation_robust");
    json.Bool(validation->allocation_robust);
    json.EndObject();
    validation_json = json.str();
  }

  if (flags.Has("json")) {
    out << PromotionPlanJson(*txns, *plan, options, validation_json) << "\n";
  } else {
    out << PromotionPlanToString(*txns, *plan);
    if (validation.has_value()) {
      out << "\nvalidation of the promoted workload under the after "
             "allocation:\n"
          << validation->ToString();
    }
  }
  if (flags.Has("promotion-json")) {
    Status emitted = EmitArtifact(
        flags.Get("promotion-json"),
        PromotionPlanJson(*txns, *plan, options, validation_json), out);
    if (!emitted.ok()) return Fail(err, emitted);
  }
  if (validation.has_value() && validation->disagreements != 0) return 2;
  return 0;
}

int Dispatch(const std::string& command, const Flags& flags, std::istream& in,
             std::ostream& out, std::ostream& err, MetricsRegistry* metrics,
             TxnTracer* tracer) {
  if (command == "check") return CmdCheck(flags, out, err, metrics);
  if (command == "allocate") return CmdAllocate(flags, out, err, metrics);
  if (command == "explore") return CmdExplore(flags, out, err);
  if (command == "census") return CmdCensus(flags, out, err);
  if (command == "templates") return CmdTemplates(flags, out, err, metrics);
  if (command == "report") return CmdReport(flags, out, err, metrics);
  if (command == "crosscheck") return CmdCrossCheck(flags, out, err);
  if (command == "simulate") {
    return CmdSimulate(flags, out, err, metrics, tracer);
  }
  if (command == "validate") return CmdValidate(flags, out, err, metrics);
  if (command == "shell") return CmdShell(flags, in, out, err, metrics);
  if (command == "promote") return CmdPromote(flags, out, err, metrics);
  if (command == "serve") return CmdServe(flags, out, err);
  err << "error: unknown command '" << command << "'\n" << kUsage;
  return 1;
}

}  // namespace

std::span<const CliFlag> CliFlags() { return kFlags; }

int RunCli(const std::vector<std::string>& args, std::ostream& out,
           std::ostream& err) {
  return RunCli(args, std::cin, out, err);
}

int RunCli(const std::vector<std::string>& args, std::istream& in,
           std::ostream& out, std::ostream& err) {
  if (args.empty() || args[0] == "help" || args[0] == "--help") {
    out << kUsage;
    return args.empty() ? 1 : 0;
  }
  if (args[0] == "version" || args[0] == "--version") {
    out << BuildInfoText();
    return 0;
  }
  // Register the invoking thread for the profiler/watchdog/crash stack
  // machinery and arm the crash flight recorder: any fatal signal from
  // here on writes mvrob.crash.<pid>.txt next to the working directory.
  ProfiledThreadScope main_scope("main");
  InstallCrashRecorder(CrashRecorderOptions{});
  StatusOr<Flags> flags = ParseFlags(args, 1);
  if (!flags.ok()) return Fail(err, flags.status());

  // --log-level overrides MVROB_LOG_LEVEL for this invocation.
  if (flags->Has("log-level")) {
    StatusOr<LogLevel> level = ParseLogLevel(flags->Get("log-level"));
    if (!level.ok()) {
      return Fail(err, Status::InvalidArgument(StrCat(
                           "--log-level: ", level.status().message())));
    }
    GlobalLogger().set_min_level(*level);
  }

  const std::string& command = args[0];

  // --stats-json / --trace-out turn on metrics collection for the whole
  // command; without them no registry exists and every instrumentation
  // site stays disabled (null sink). serve owns its own registry and
  // export files (written on clean shutdown, with sampled txn spans
  // merged into the trace) — an outer registry here would clobber them
  // with a near-empty snapshot after RunServe returns.
  const bool serve_owns_exports = command == "serve";
  std::optional<MetricsRegistry> registry;
  MetricsRegistry* metrics = nullptr;
  if (!serve_owns_exports &&
      (flags->Has("stats-json") || flags->Has("trace-out"))) {
    registry.emplace();
    metrics = &*registry;
  }

  // --trace-sample attaches a txn tracer to the simulate engines; serve
  // builds its own from ServeParams::trace_sample.
  std::optional<TxnTracer> tracer;
  if (!serve_owns_exports && flags->Has("trace-sample")) {
    StatusOr<uint64_t> trace_sample = Uint64Flag(*flags, "trace-sample", 0);
    if (!trace_sample.ok()) return Fail(err, trace_sample.status());
    if (*trace_sample == 0) {
      return Fail(err,
                  Status::InvalidArgument("--trace-sample must be >= 1"));
    }
    TxnTracerOptions tracer_options;
    tracer_options.sample_every_n = *trace_sample;
    tracer_options.metrics = metrics;
    tracer.emplace(tracer_options);
  }
  TxnTracer* tracer_ptr = tracer.has_value() ? &*tracer : nullptr;

  // --metrics-interval rewrites the export files on a cadence while the
  // command runs (e.g. a long report), so progress can be tailed.
  std::optional<PeriodicMetricsExporter> exporter;
  if (flags->Has("metrics-interval")) {
    StatusOr<int> interval = IntFlag(*flags, "metrics-interval", 0, 1,
                                     std::numeric_limits<int>::max());
    if (!interval.ok()) return Fail(err, interval.status());
    if (metrics == nullptr) {
      return Fail(err, Status::InvalidArgument(
                           "--metrics-interval requires --stats-json or "
                           "--trace-out (and is not supported with "
                           "serve, which exports on shutdown)"));
    }
    exporter.emplace(*registry, flags->Get("stats-json"),
                     flags->Get("trace-out"),
                     std::chrono::seconds(*interval));
  }

  // --profile-hz / --profile-out: sample the whole command (serve starts
  // its own profiler with the server instead). --profile-out alone
  // implies the default rate.
  StatusOr<int> profile_hz = IntFlag(*flags, "profile-hz", 0, 0, 1000);
  if (!profile_hz.ok()) return Fail(err, profile_hz.status());
  const std::string profile_out = flags->Get("profile-out");
  int effective_hz = *profile_hz;
  if (effective_hz == 0 && !profile_out.empty()) {
    effective_hz = ProfilerOptions().hz;
  }
  bool profiling = false;
  if (!serve_owns_exports && effective_hz > 0) {
    ProfilerOptions profile_options;
    profile_options.hz = effective_hz;
    profile_options.metrics = metrics;
    Status started = Profiler::Start(profile_options);
    if (!started.ok()) return Fail(err, started);
    profiling = true;
  }

  int code;
  {
    // Top-level span covering the entire command.
    PhaseTimer timer(metrics, StrCat("cli.", command));
    code = Dispatch(command, *flags, in, out, err, metrics, tracer_ptr);
  }
  if (profiling) {
    Profiler::Stop();
    if (!profile_out.empty()) {
      Status written = WriteTextFile(
          profile_out, Profiler::RenderFolded(Profiler::CountsSnapshot()));
      if (!written.ok()) return Fail(err, written);
    }
  }
  exporter.reset();  // Stop periodic writes before the final snapshot.
  if (registry.has_value()) {
    Status written =
        ExportMetricsFiles(*registry, flags->Get("stats-json"),
                           flags->Get("trace-out"), tracer_ptr);
    if (!written.ok()) return Fail(err, written);
  }
  return code;
}

}  // namespace mvrob
