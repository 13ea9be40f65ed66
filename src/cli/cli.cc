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

constexpr int64_t kIntMax = std::numeric_limits<int>::max();
using enum CliFlagKind;
using enum CliRuleKind;

// Every flag once. A help text is word-wrapped by `mvrob help`, where '\n'
// forces a break; defaults are stated here and applied where the command
// reads the flag.
constexpr CliFlag kFlags[] = {
    {"txns", kText, "<text|@file>", 0, 0,
     "transaction DSL (\"T1: R[x] W[y]\" per line)"},
    {"workload", kText, "<spec>", 0, 0,
     "built-in workload instead of --txns, e.g.\ntpcc:w=2,d=3 smallbank:c=4 "
     "auction ycsb:a\nsynthetic:n=10,o=8,w=40,h=30,seed=3"},
    {"alloc", kText, "<spec>", 0, 0,
     "allocation \"T1=RC T2=SI\" (others: --default)"},
    {"default", kText, "<RC|SI|SSI>", 0, 0,
     "level for unmentioned transactions (default SI)"},
    {"schedule", kText, "<text>", 0, 0,
     "operation order \"R1[x] W2[x] C2 C1\""},
    {"dot", kSwitch, "", 0, 0,
     "also render the serialization graph (Graphviz)"},
    {"timeline", kSwitch, "", 0, 0, "also render the schedule as a timeline"},
    {"rcsi", kSwitch, "", 0, 0,
     "restrict to {RC, SI}; --pin and --atmost narrow the box further"},
    {"explain", kSwitch, "", 0, 0,
     "per-transaction obstacles (templates: per template, plus the "
     "template-pair conflicts the declared rules discharged)"},
    {"pin", kText, "\"T1=RC ...\"", 0, 0, "fix transactions to exact levels"},
    {"atmost", kText, "\"T2=SI ...\"", 0, 0, "per-transaction upper bounds"},
    {"max", kUint64, "<n>", 0, 0, "interleaving cap (default 2000000)"},
    {"templates", kText, "<text|@file>", 0, 0,
     "template DSL; v2 adds predicate reads R[key_$lo..$hi] / R[key_*D], "
     "`function` declarations and `constraint` lines (docs/templates.md)"},
    {"json", kSwitch, "", 0, 0, "machine-readable output"},
    {"runs", kInt, "<n>", 0, kIntMax,
     "engine executions (simulate: default 20, at least 1; validate: "
     "default 200)"},
    {"concurrency", kInt, "<n>", 1, kIntMax, "sessions in flight (default 4)"},
    {"engine-threads", kInt, "<n>", 1, 256,
     "OS worker threads for the MVCC engine (default 1 = the deterministic "
     "driver, >1 = the sharded many-core engine; validate then also replays "
     "every concurrent run on the single-threaded oracle)"},
    {"engine-shards", kInt, "<n>", 1, 1 << 16,
     "key-space shards of the many-core engine (default 0 = auto = max(16, "
     "4*threads); requires --engine-threads > 1)"},
    {"seed", kUint64, "<n>", 0, 0, "base RNG seed (default 0)"},
    {"witness-json", kText, "<file|->", 0, 0,
     "structured witness provenance as JSON: every counterexample edge with "
     "its conflict type, operation pair and Definition 3.1 condition ('-' = "
     "stdout; under templates it names which predicate or constraint "
     "discharged each template-pair conflict, see docs/formats.md)"},
    {"witness-dot", kText, "<file|->", 0, 0,
     "the same witness as a Graphviz digraph"},
    {"record-schedule", kText, "<file>", 0, 0,
     "replayable schedule file of the last engine run"},
    {"record-trace", kText, "<file>", 0, 0,
     "Chrome trace_event timeline of the last engine run"},
    {"threads", kInt, "<n>", 0, kIntMax,
     "worker threads for robustness checks (default 1, 0 = all cores)"},
    {"stats-json", kText, "<file>", 0, 0,
     "write a metrics snapshot (counters, gauges, histograms) as JSON after "
     "the command (under serve: once, on clean shutdown)"},
    {"trace-out", kText, "<file>", 0, 0,
     "write recorded phase spans as a Chrome trace_event file "
     "(chrome://tracing, Perfetto; under serve: once, on clean shutdown)"},
    {"trace-sample", kUint64, "<n>", 1, 0,
     "sample 1 in <n> logical transactions into per-attempt spans with "
     "causal abort attribution. Sampled spans are merged into --trace-out "
     "with retries of one transaction linked by flow events; serve also "
     "exposes them at /trace"},
    {"metrics-interval", kInt, "<s>", 1, kIntMax,
     "rewrite the --stats-json / --trace-out files every <s> seconds while "
     "the command runs"},
    {"log-level", kText, "<level>", 0, 0,
     "minimum structured-log severity on stderr: debug, info, warn, error, "
     "off (default info; env MVROB_LOG_LEVEL)"},
    {"profile-hz", kInt, "<n>", 0, 1000,
     "sampling CPU profiler rate, samples per second of on-CPU time per "
     "thread (default 0 = off; requires --profile-out or --stats-json, "
     "except under serve, which exposes the live profile at /debug/pprof "
     "and as mvrob_profile_* series)"},
    {"profile-out", kText, "<file>", 0, 0,
     "write the aggregate folded-stack profile here when the command "
     "finishes (implies --profile-hz 97 when the rate is unset; render with "
     "tools/flamegraph.py)"},
    {"budget", kInt, "<n>", 0, kIntMax,
     "promotion budget: at most <n> reads are promoted (default 8)"},
    {"target", kText, "<spec|level>", 0, 0,
     "target mode: find promotions making the workload robust under this "
     "fixed allocation (\"T1=RC T2=SI\", unmentioned: --default, which "
     "defaults to RC here; or a bare level name for a uniform target, e.g. "
     "--target RC)"},
    {"promotion-json", kText, "<file|->", 0, 0,
     "promotion-plan provenance as JSON (docs/formats.md, \"Promotion "
     "plan\")"},
    {"validate-runs", kInt, "<n>", 0, kIntMax,
     "certify the result with <n> recorded engine runs through the "
     "round-trip validator (promote: the promoted workload; templates: every "
     "world; default 0 = skip; exits 2 on any disagreement)"},
    {"weight-si", kInt, "<n>", 0, 1 << 20,
     "allocation cost of one SI slot (default 1)"},
    {"weight-ssi", kInt, "<n>", 0, 1 << 20,
     "allocation cost of one SSI slot (default 2)"},
    {"no-constraints", kSwitch, "", 0, 0,
     "drop the declared functional constraints and analyze under the "
     "distinct-parameter rule alone (the comparison baseline)"},
    {"copies", kInt, "<n>", 1, 8,
     "instances per admissible parameter assignment in the canonical "
     "instantiation (default 2)"},
    {"max-instances", kInt, "<n>", 1, kIntMax,
     "refuse canonical instantiations larger than this many transactions "
     "(default 4096)"},
    {"promote", kSwitch, "", 0, 0,
     "search for template reads to promote (SELECT ... FOR UPDATE across "
     "every instance) so a strictly cheaper per-template allocation becomes "
     "robust"},
    {"port", kInt, "<n>", 0, 65535, "listen port (default 0 = ephemeral)"},
    {"host", kText, "<addr>", 0, 0, "listen address (default 127.0.0.1)"},
    {"port-file", kText, "<file>", 0, 0,
     "write the bound port here after listening"},
    {"witness-interval", kInt, "<s>", 1, kIntMax,
     "robustness re-check cadence (default 30)"},
    {"duration", kInt, "<s>", 0, kIntMax,
     "stop after <s> seconds (default 0 = until SIGINT/SIGTERM)"},
    {"window", kInt, "<s>", 1, 3600,
     "sliding window of the live per-level series (default 60)"},
    {"adapt", kSwitch, "", 0, 0,
     "adaptive allocation: re-derive SI/SSI cost weights from the live "
     "windowed telemetry, re-run Algorithm 2 (and the promotion optimizer "
     "under --adapt-budget), and hot-swap the allocation at the next engine "
     "epoch; every installed allocation passes a fresh robustness check "
     "first"},
    {"adapt-interval", kInt, "<s>", 1, kIntMax,
     "seconds between controller decisions (default 30)"},
    {"adapt-budget", kInt, "<n>", 0, 1 << 20,
     "promotion budget per decision (default 0 = allocation-only decisions)"},
};

constexpr const char* kRunFlags =
    "stats-json trace-out metrics-interval log-level profile-hz profile-out";

constexpr CliRule kRules[] = {
    {nullptr, "", kRequires, "txns workload"},
    {nullptr, "txns", kExcludes, "workload"},
    {"explore", "", kRequires, "schedule"},
    {"templates", "", kRequires, "templates"},
    {"allocate", "json explain witness-json witness-dot", kExcludes,
     "rcsi pin atmost"},
    {"allocate", "explain", kExcludes, "json"},
    {"promote", "default", kRequires, "target"},
    {"promote", "seed concurrency", kRequires, "validate-runs"},
    {"templates", "seed", kRequires, "validate-runs"},
    {"simulate", "trace-sample", kRequires, "trace-out stats-json"},
    {"serve", "adapt-interval adapt-budget", kRequires, "adapt"},
    {nullptr, "metrics-interval", kRequires, "stats-json trace-out"},
};

const CliFlag* FindFlag(std::string_view name) {
  for (const CliFlag& flag : kFlags) {
    if (name == flag.name) return &flag;
  }
  return nullptr;
}

// "--a", "--a or --b", "--a, --b or --c"; `last` joins the final pair.
std::string FlagList(const std::vector<std::string>& names,
                     std::string_view last) {
  std::string text;
  for (size_t i = 0; i < names.size(); ++i) {
    if (i > 0) text += i + 1 == names.size() ? StrCat(" ", last, " ") : ", ";
    text += "--" + names[i];
  }
  return text;
}

// The rule as a sentence about `given`, a subset of its flags ("--a
// requires --x or --y"); without flags, the predicate ("requires --x").
std::string RuleSentence(const CliRule& rule,
                         const std::vector<std::string>& given,
                         const std::vector<std::string>& others) {
  const bool plural = given.size() > 1;
  const char* verb = rule.kind == kRequires
                         ? (plural ? "require " : "requires ")
                         : (plural ? "do not apply with "
                                   : "does not apply with ");
  return StrCat(given.empty() ? "" : FlagList(given, "and") + " ", verb,
                FlagList(others, "or"));
}

Status CheckValue(const CliFlag& flag, const std::string& value) {
  Status status = Status::Ok();
  if (flag.kind == kInt) {
    status = ParseInt64(value, flag.min, flag.max).status();
  } else if (flag.kind == kUint64) {
    StatusOr<uint64_t> parsed = ParseUint64(value);
    status = parsed.status();
    if (parsed.ok() && *parsed < static_cast<uint64_t>(flag.min)) {
      status = Status::InvalidArgument(
          StrCat("'", value, "' is out of range [", flag.min, ", ",
                 std::numeric_limits<uint64_t>::max(), "]"));
    }
  }
  if (status.ok()) return status;
  return Status::InvalidArgument(
      StrCat("--", flag.name, ": ", status.message()));
}

// Parses `args` (after the command name) against the flags `command`
// declares: an unknown or undeclared flag, a repeated flag, a missing or
// malformed value, and a broken presence rule are errors.
StatusOr<std::map<std::string, std::string>> ParseFlags(
    const CliCommand& command, const std::vector<std::string>& args) {
  const std::vector<std::string> declared = DeclaredFlags(command);
  std::map<std::string, std::string> values;
  for (size_t i = 1; i < args.size(); ++i) {
    if (!args[i].starts_with("--")) {
      return Status::InvalidArgument(
          StrCat("unexpected argument '", args[i], "'"));
    }
    const std::string name = args[i].substr(2);
    const CliFlag* flag = FindFlag(name);
    if (flag == nullptr) {
      return Status::InvalidArgument(
          StrCat("unknown flag --", name, " (see mvrob --help)"));
    }
    if (std::find(declared.begin(), declared.end(), name) == declared.end()) {
      return Status::InvalidArgument(StrCat(
          command.name, " does not read --", name, " (see mvrob --help)"));
    }
    if (values.contains(name)) {
      return Status::InvalidArgument(StrCat("--", name, " is given twice"));
    }
    if (!flag->takes_value()) {
      values[name] = "1";
      continue;
    }
    if (i + 1 >= args.size()) {
      return Status::InvalidArgument(StrCat("--", name, " needs a value"));
    }
    Status valid = CheckValue(*flag, args[++i]);
    if (!valid.ok()) return valid;
    values[name] = args[i];
  }
  for (const CliRule& rule : kRules) {
    if (!CliRuleApplies(rule, command)) continue;
    const std::vector<std::string> flags = SplitAndTrim(rule.flags, ' ');
    const std::vector<std::string> others = SplitAndTrim(rule.others, ' ');
    std::vector<std::string> present;
    for (const std::string& other : others) {
      if (values.contains(other)) present.push_back(other);
    }
    if (flags.empty() && present.empty()) {
      return Status::InvalidArgument(
          StrCat(command.name, " ", RuleSentence(rule, {}, others)));
    }
    for (const std::string& name : flags) {
      if (!values.contains(name)) continue;
      if (rule.kind == kExcludes && !present.empty()) {
        return Status::InvalidArgument(
            RuleSentence(rule, {name}, {present.front()}));
      }
      if (rule.kind == kRequires && present.empty()) {
        return Status::InvalidArgument(RuleSentence(rule, {name}, others));
      }
    }
  }
  return values;
}

int Fail(std::ostream& err, const Status& status) {
  err << "error: " << status.ToString() << "\n";
  return 1;
}

}  // namespace

// What a command handler reads: its flags, already checked against their
// rows (so the numeric getters cannot fail), the streams, and what RunCli
// derived once from the shared flags.
struct CliInvocation {
  std::map<std::string, std::string> values;
  std::istream& in;
  std::ostream& out;
  std::ostream& err;
  MetricsRegistry* metrics = nullptr;  // --stats-json / --trace-out.
  TxnTracer* tracer = nullptr;         // --trace-sample (simulate).
  CheckOptions check = {};             // --threads, reporting to `metrics`.
  uint64_t trace_sample = 0;           // --trace-sample; 0 = off.
  int profile_hz = 0;  // --profile-hz, or the default under --profile-out.

  bool Has(const std::string& name) const { return values.contains(name); }
  std::string Get(const std::string& name) const {
    auto it = values.find(name);
    return it == values.end() ? std::string() : it->second;
  }
  int Int(const std::string& name, int fallback) const {
    return Has(name) ? ParseInt(Get(name)).value() : fallback;
  }
  uint64_t Uint64(const std::string& name, uint64_t fallback) const {
    return Has(name) ? ParseUint64(Get(name)).value() : fallback;
  }
  int Fail(const Status& status) const { return mvrob::Fail(err, status); }
};

namespace {

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

StatusOr<TransactionSet> LoadTxns(const CliInvocation& cli) {
  if (cli.Has("workload")) {
    StatusOr<Workload> workload = MakeNamedWorkload(cli.Get("workload"));
    if (!workload.ok()) return workload.status();
    return std::move(workload->txns);
  }
  StatusOr<std::string> text = LoadText(cli.Get("txns"));
  if (!text.ok()) return text.status();
  return ParseTransactionSet(*text);
}

// --default, or `fallback` without it.
StatusOr<IsolationLevel> DefaultLevel(const CliInvocation& cli,
                                      IsolationLevel fallback) {
  return cli.Has("default") ? ParseIsolationLevel(cli.Get("default"))
                            : fallback;
}

StatusOr<Allocation> LoadAllocation(const CliInvocation& cli,
                                    const TransactionSet& txns) {
  StatusOr<IsolationLevel> fallback = DefaultLevel(cli, IsolationLevel::kSI);
  if (!fallback.ok()) return fallback.status();
  return ParseAllocation(txns, cli.Get("alloc"), *fallback);
}

// --engine-threads / --engine-shards, shared by simulate, validate and
// serve. Shards partition the many-core engine only, so a shard count
// without more than one engine thread is rejected rather than ignored.
struct EngineFlags {
  int threads = 1;
  size_t shards = 0;
};

StatusOr<EngineFlags> LoadEngineFlags(const CliInvocation& cli) {
  const EngineFlags engine{cli.Int("engine-threads", 1),
                           static_cast<size_t>(cli.Int("engine-shards", 0))};
  if (engine.shards != 0 && engine.threads == 1) {
    return Status::InvalidArgument(
        "--engine-shards requires --engine-threads > 1 (the single-threaded "
        "engine has no shards)");
  }
  return engine;
}

// Writes the --witness-json / --witness-dot artifacts; `json` and `dot`
// render them, each only when its flag is given.
template <typename Json, typename Dot>
Status EmitWitness(const CliInvocation& cli, Json json, Dot dot) {
  if (cli.Has("witness-json")) {
    Status emitted = EmitArtifact(cli.Get("witness-json"), json(), cli.out);
    if (!emitted.ok()) return emitted;
  }
  if (!cli.Has("witness-dot")) return Status::Ok();
  return EmitArtifact(cli.Get("witness-dot"), dot(), cli.out);
}

// The allocate/shell witness: per-transaction obstacle provenance.
Status EmitAllocationWitness(const CliInvocation& cli,
                             const TransactionSet& txns,
                             const AllocationExplanation& explanation) {
  return EmitWitness(
      cli, [&] { return AllocationExplanationJson(txns, explanation); },
      [&] { return AllocationExplanationDot(txns, explanation); });
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

int CmdCheck(const CliInvocation& cli) {
  StatusOr<TransactionSet> txns = LoadTxns(cli);
  if (!txns.ok()) return cli.Fail(txns.status());
  StatusOr<Allocation> alloc = LoadAllocation(cli, *txns);
  if (!alloc.ok()) return cli.Fail(alloc.status());

  RobustnessResult result = CheckRobustness(*txns, *alloc, cli.check);
  Status witness_out = EmitWitness(
      cli, [&] { return RobustnessWitnessJson(*txns, *alloc, result); },
      [&] { return RobustnessWitnessDot(*txns, *alloc, result); });
  if (!witness_out.ok()) return cli.Fail(witness_out);

  std::ostream& out = cli.out;
  if (cli.Has("json")) {
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
StatusOr<AllocationBounds> LoadBounds(const CliInvocation& cli,
                                      const TransactionSet& txns) {
  AllocationBounds bounds = cli.Has("rcsi")
                                ? AllocationBounds::RcSi(txns.size())
                                : AllocationBounds::Free(txns.size());
  if (cli.Has("pin")) {
    // Reuse the allocation parser: unmentioned transactions default to RC
    // and a second parse with SSI default distinguishes them.
    StatusOr<Allocation> low =
        ParseAllocation(txns, cli.Get("pin"), IsolationLevel::kRC);
    if (!low.ok()) return low.status();
    StatusOr<Allocation> high =
        ParseAllocation(txns, cli.Get("pin"), IsolationLevel::kSSI);
    if (!high.ok()) return high.status();
    for (TxnId t = 0; t < txns.size(); ++t) {
      if (low->level(t) != high->level(t)) continue;  // Not mentioned.
      bounds.AtLeast(t, low->level(t));
      if (low->level(t) < bounds.max_level[t]) {
        bounds.AtMost(t, low->level(t));
      }
    }
  }
  if (cli.Has("atmost")) {
    StatusOr<Allocation> cap =
        ParseAllocation(txns, cli.Get("atmost"), IsolationLevel::kSSI);
    if (!cap.ok()) return cap.status();
    for (TxnId t = 0; t < txns.size(); ++t) {
      if (cap->level(t) < bounds.max_level[t]) {
        bounds.AtMost(t, cap->level(t));
      }
    }
  }
  return bounds;
}

// The bounded modes (--rcsi, --pin, --atmost) print one line of text; the
// free mode's output flags do not apply with them (kRules).
int CmdAllocate(const CliInvocation& cli) {
  StatusOr<TransactionSet> txns = LoadTxns(cli);
  if (!txns.ok()) return cli.Fail(txns.status());
  const bool pinned = cli.Has("pin") || cli.Has("atmost");
  const bool bounded = pinned || cli.Has("rcsi");
  StatusOr<AllocationBounds> bounds = LoadBounds(cli, *txns);
  if (!bounds.ok()) return cli.Fail(bounds.status());

  const RobustnessAnalyzer analyzer(*txns, cli.metrics);
  StatusOr<OptimalAllocationResult> optimum =
      ComputeOptimalAllocation(analyzer, *bounds, cli.check);
  if (!optimum.ok()) return cli.Fail(optimum.status());
  const OptimalAllocationResult& result = *optimum;
  std::ostream& out = cli.out;
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
  const bool witness = cli.Has("witness-json") || cli.Has("witness-dot");
  const bool explain = cli.Has("explain");
  std::optional<AllocationExplanation> explanation;
  if (witness || explain) {
    StatusOr<AllocationExplanation> explained =
        ExplainAllocation(*txns, result.allocation, cli.check);
    if (!explained.ok()) return cli.Fail(explained.status());
    explanation = *std::move(explained);
  }
  if (witness) {
    Status witness_out = EmitAllocationWitness(cli, *txns, *explanation);
    if (!witness_out.ok()) return cli.Fail(witness_out);
  }
  if (cli.Has("json")) {
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

int CmdExplore(const CliInvocation& cli) {
  StatusOr<TransactionSet> txns = LoadTxns(cli);
  if (!txns.ok()) return cli.Fail(txns.status());
  StatusOr<std::vector<OpRef>> order =
      ParseScheduleOrder(*txns, cli.Get("schedule"));
  if (!order.ok()) return cli.Fail(order.status());
  StatusOr<Allocation> alloc = LoadAllocation(cli, *txns);
  if (!alloc.ok()) return cli.Fail(alloc.status());
  StatusOr<Schedule> schedule = MaterializeSchedule(&*txns, *order, *alloc);
  if (!schedule.ok()) return cli.Fail(schedule.status());

  std::ostream& out = cli.out;
  out << "schedule: " << schedule->ToString(/*with_versions=*/true) << "\n";
  if (cli.Has("timeline")) out << ScheduleTimeline(*schedule);
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
  if (cli.Has("dot")) out << SerializationGraphToDot(*txns, graph);
  return 0;
}

int CmdCensus(const CliInvocation& cli) {
  StatusOr<TransactionSet> txns = LoadTxns(cli);
  if (!txns.ok()) return cli.Fail(txns.status());
  StatusOr<Allocation> alloc = LoadAllocation(cli, *txns);
  if (!alloc.ok()) return cli.Fail(alloc.status());
  StatusOr<ScheduleCensus> census =
      ComputeScheduleCensus(*txns, *alloc, cli.Uint64("max", 2'000'000));
  if (!census.ok()) return cli.Fail(census.status());
  cli.out << "interleavings: " << census->interleavings << "\n";
  cli.out << "allowed:       " << census->allowed << "\n";
  cli.out << "serializable:  " << census->serializable << "\n";
  cli.out << "anomalous:     " << census->anomalous << "\n";
  return 0;
}

int CmdTemplates(const CliInvocation& cli) {
  StatusOr<std::string> text = LoadText(cli.Get("templates"));
  if (!text.ok()) return cli.Fail(text.status());
  StatusOr<TemplateSet> parsed = ParseTemplateSet(*text);
  if (!parsed.ok()) return cli.Fail(parsed.status());
  TemplateSet set =
      cli.Has("no-constraints") ? parsed->WithoutConstraints() : *parsed;

  InstantiationOptions inst;
  inst.copies_per_assignment = cli.Int("copies", inst.copies_per_assignment);
  inst.max_instances = cli.Int("max-instances", inst.max_instances);

  // One analysis serves every section below: the allocation, the
  // conflict report, --explain, --promote, --validate-runs and the
  // witness JSON.
  StatusOr<TemplateAnalysis> analysis =
      TemplateAnalysis::Build(set, inst, cli.check);
  if (!analysis.ok()) return cli.Fail(analysis.status());
  const bool rcsi = cli.Has("rcsi");
  StatusOr<TemplateAllocationResult> allocation =
      ComputeOptimalTemplateAllocation(
          *analysis, rcsi ? AllocationBounds::RcSi(set.size())
                          : AllocationBounds::Free(set.size()));
  if (!allocation.ok()) return cli.Fail(allocation.status());
  const TemplateAllocationResult& result = *allocation;

  std::ostream& out = cli.out;
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
    if (cli.Has("explain")) {
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
  if (cli.Has("explain") && result.feasible) {
    StatusOr<TemplateExplanation> explained =
        ExplainTemplateAllocation(*analysis, result.levels);
    if (!explained.ok()) return cli.Fail(explained.status());
    explanation = *std::move(explained);
    witness.explanation = &*explanation;
    out << "\nwhy no template can run lower:\n"
        << explanation->ToString(*analysis);
  }

  std::optional<TemplatePromotionPlan> promotion;
  if (cli.Has("promote")) {
    StatusOr<TemplatePromotionPlan> plan =
        OptimizeTemplatePromotions(*analysis, PromoteOptions{});
    if (!plan.ok()) return cli.Fail(plan.status());
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
  const int validate_runs = cli.Int("validate-runs", 0);
  if (validate_runs > 0 && result.feasible) {
    for (size_t w = 0; w < analysis->num_worlds(); ++w) {
      RoundTripOptions rt;
      rt.runs = validate_runs;
      rt.seed = cli.Uint64("seed", 0);
      StatusOr<RoundTripReport> report = ValidateEngineRuns(
          analysis->instantiation(w).txns,
          analysis->InstanceAllocation(w, result.levels), rt);
      if (!report.ok()) return cli.Fail(report.status());
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

  if (cli.Has("witness-json")) {
    Status emitted = EmitArtifact(cli.Get("witness-json"),
                                  TemplateWitnessJson(*analysis, witness), out);
    if (!emitted.ok()) return cli.Fail(emitted);
  }
  if (!result.feasible) return 1;
  if (disagreements != 0) return 2;
  return 0;
}

int CmdReport(const CliInvocation& cli) {
  StatusOr<TransactionSet> txns = LoadTxns(cli);
  if (!txns.ok()) return cli.Fail(txns.status());
  const CheckOptions& options = cli.check;

  std::ostream& out = cli.out;
  out << "# Workload analysis\n\n";
  out << "## Transactions\n\n```\n" << txns->ToString() << "```\n\n";
  out << ComputeWorkloadStats(*txns).ToString() << "\n\n";

  out << "## Robustness against homogeneous allocations\n\n";
  out << "| allocation | robust |\n|---|---|\n";
  const size_t n = txns->size();
  const RobustnessAnalyzer analyzer(*txns, cli.metrics);
  RobustnessResult rc = analyzer.Check(Allocation::AllRC(n), options);
  RobustnessResult si = analyzer.Check(Allocation::AllSI(n), options);
  out << "| A_RC  | " << (rc.robust ? "yes" : "no") << " |\n";
  out << "| A_SI  | " << (si.robust ? "yes" : "no") << " |\n";
  out << "| A_SSI | yes |\n\n";

  OptimalAllocationResult optimal = ComputeOptimalAllocation(analyzer, options);
  out << "## Optimal robust allocation\n\n";
  out << "```\n" << optimal.allocation.ToString(*txns) << "\n```\n\n";
  out << "RC=" << optimal.allocation.CountAt(IsolationLevel::kRC)
      << " SI=" << optimal.allocation.CountAt(IsolationLevel::kSI)
      << " SSI=" << optimal.allocation.CountAt(IsolationLevel::kSSI)
      << " (" << optimal.robustness_checks << " robustness checks)\n\n";

  StatusOr<AllocationExplanation> explanation =
      ExplainAllocation(*txns, optimal.allocation, options);
  if (explanation.ok()) {
    out << "## Why no transaction can run lower\n\n```\n"
        << explanation->ToString(*txns) << "```\n\n";
  }

  const std::vector<CounterexampleChain> spots =
      analyzer.FindAll(Allocation::AllSI(n), /*limit=*/8, options).chains;
  if (!spots.empty()) {
    out << "## Trouble spots under A_SI\n\n";
    for (const CounterexampleChain& chain : spots) {
      out << "- " << chain.ToString(*txns) << "\n";
    }
    out << "\n";
  }

  OptimalAllocationResult rcsi =
      ComputeOptimalAllocation(analyzer, AllocationBounds::RcSi(n), options)
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

int CmdSimulate(const CliInvocation& cli) {
  StatusOr<TransactionSet> txns = LoadTxns(cli);
  if (!txns.ok()) return cli.Fail(txns.status());
  StatusOr<Allocation> alloc = LoadAllocation(cli, *txns);
  if (!alloc.ok()) return cli.Fail(alloc.status());
  const int runs = cli.Int("runs", 20);
  if (runs == 0) {  // validate shares the row and accepts 0.
    return cli.Fail(
        Status::InvalidArgument("--runs: simulate needs at least 1 run"));
  }
  StatusOr<EngineFlags> engine = LoadEngineFlags(cli);
  if (!engine.ok()) return cli.Fail(engine.status());

  std::ostream& out = cli.out;
  out << "simulating " << runs << " executions of " << txns->size()
      << " transactions under " << alloc->ToString(*txns);
  if (engine->threads > 1) out << " (" << engine->threads << " engine threads)";
  out << "\n";
  // --record-schedule / --record-trace export the *last* run; the recorder
  // is cleared between runs so the files cover one complete execution.
  const bool recording = cli.Has("record-schedule") || cli.Has("record-trace");
  std::optional<ScheduleRecorder> recorder;
  if (recording) recorder.emplace();
  uint64_t commits = 0;
  uint64_t fuw = 0;
  uint64_t ssi = 0;
  uint64_t serializable = 0;
  std::map<std::string, int> anomaly_counts;
  const int concurrency = cli.Int("concurrency", 4);
  const uint64_t seed = cli.Uint64("seed", 0);
  for (int r = 0; r < runs; ++r) {
    if (recorder.has_value()) recorder->Clear();
    RandomRunOptions options;
    options.concurrency = concurrency;
    options.seed = seed + static_cast<uint64_t>(r);
    options.engine_threads = engine->threads;
    options.engine_shards = engine->shards;
    options.metrics = cli.metrics;
    options.tracer = cli.tracer;
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
  out << "serializable runs: " << serializable << "/" << runs << "\n";
  for (const auto& [kind, count] : anomaly_counts) {
    out << "anomaly '" << kind << "': " << count << " occurrence(s)\n";
  }
  bool robust = CheckRobustness(*txns, *alloc, cli.check).robust;
  out << "(Algorithm 1 verdict for this allocation: "
      << (robust ? "robust - anomalies are impossible"
                 : "NOT robust - anomalies are possible")
      << ")\n";
  if (recorder.has_value()) {
    if (cli.Has("record-schedule")) {
      Status written = EmitArtifact(cli.Get("record-schedule"),
                                    recorder->ToText(*txns), out);
      if (!written.ok()) return cli.Fail(written);
    }
    if (cli.Has("record-trace")) {
      Status written = EmitArtifact(cli.Get("record-trace"),
                                    recorder->ToChromeTrace(*txns), out);
      if (!written.ok()) return cli.Fail(written);
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
int CmdValidate(const CliInvocation& cli) {
  StatusOr<TransactionSet> txns = LoadTxns(cli);
  if (!txns.ok()) return cli.Fail(txns.status());
  StatusOr<Allocation> alloc = LoadAllocation(cli, *txns);
  if (!alloc.ok()) return cli.Fail(alloc.status());
  StatusOr<EngineFlags> engine = LoadEngineFlags(cli);
  if (!engine.ok()) return cli.Fail(engine.status());

  RoundTripOptions options;
  options.runs = cli.Int("runs", 200);
  options.concurrency = cli.Int("concurrency", 4);
  options.seed = cli.Uint64("seed", 0);
  options.engine_threads = engine->threads;
  options.engine_shards = engine->shards;
  options.check = cli.check;
  options.metrics = cli.metrics;
  StatusOr<RoundTripReport> report =
      ValidateEngineRuns(*txns, *alloc, options);
  if (!report.ok()) return cli.Fail(report.status());
  cli.out << report->ToString();
  return report->disagreements == 0 ? 0 : 2;
}

// Interactive loop: one command per line on `in`.
//   add <Name>: R[x] W[y]   add a transaction and reallocate
//   remove <Name>           drop a transaction
//   show                    print workload + current optimal allocation
//   quit
int CmdShell(const CliInvocation& cli) {
  std::ostream& out = cli.out;
  std::ostream& err = cli.err;
  IncrementalAllocator allocator;
  allocator.set_check_options(cli.check);
  // With --witness-json / --witness-dot, the witness files are rewritten
  // after every successful add/remove, tracking the current optimum's
  // provenance across the interactive session.
  auto refresh_witness = [&]() {
    if (!cli.Has("witness-json") && !cli.Has("witness-dot")) return;
    if (allocator.txns().empty()) return;
    StatusOr<AllocationExplanation> explanation =
        ExplainAllocation(allocator.txns(), allocator.allocation(), cli.check);
    if (!explanation.ok()) {
      err << "error: " << explanation.status().ToString() << "\n";
      return;
    }
    Status emitted = EmitAllocationWitness(cli, allocator.txns(), *explanation);
    if (!emitted.ok()) err << "error: " << emitted.ToString() << "\n";
  };
  out << "mvrob shell - 'add <Name>: R[x] W[y]', 'remove <Name>', 'show', "
         "'quit'\n";
  std::string line;
  while (out << "> " << std::flush, std::getline(cli.in, line)) {
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
int CmdServe(const CliInvocation& cli) {
  StatusOr<TransactionSet> txns = LoadTxns(cli);
  if (!txns.ok()) return cli.Fail(txns.status());
  StatusOr<Allocation> alloc = LoadAllocation(cli, *txns);
  if (!alloc.ok()) return cli.Fail(alloc.status());
  StatusOr<EngineFlags> engine = LoadEngineFlags(cli);
  if (!engine.ok()) return cli.Fail(engine.status());

  ServeParams params;
  params.txns = std::move(*txns);
  params.alloc = std::move(*alloc);
  params.host = cli.Has("host") ? cli.Get("host") : params.host;
  params.port_file = cli.Get("port-file");
  params.port = cli.Int("port", params.port);
  params.witness_interval_s =
      cli.Int("witness-interval", params.witness_interval_s);
  params.duration_s = cli.Int("duration", params.duration_s);
  params.window_s = static_cast<uint32_t>(cli.Int("window", 60));
  params.concurrency = cli.Int("concurrency", params.concurrency);
  params.seed = cli.Uint64("seed", params.seed);
  params.threads = cli.check.num_threads;
  params.engine_threads = engine->threads;
  params.engine_shards = engine->shards;
  params.adapt = cli.Has("adapt");
  params.adapt_interval_s = cli.Int("adapt-interval", params.adapt_interval_s);
  params.adapt_budget = cli.Int("adapt-budget", params.adapt_budget);
  // serve owns its export files and its profiler: the files are written
  // once on clean shutdown (with the sampled txn spans merged into the
  // trace) and the profiler runs with the server, not around RunCli.
  params.trace_sample = cli.trace_sample;
  params.stats_json = cli.Get("stats-json");
  params.trace_out = cli.Get("trace-out");
  params.profile_hz = cli.profile_hz;
  params.profile_out = cli.Get("profile-out");
  return RunServe(std::move(params), cli.out, cli.err);
}

int CmdCrossCheck(const CliInvocation& cli) {
  StatusOr<TransactionSet> txns = LoadTxns(cli);
  if (!txns.ok()) return cli.Fail(txns.status());
  StatusOr<Allocation> alloc = LoadAllocation(cli, *txns);
  if (!alloc.ok()) return cli.Fail(alloc.status());

  std::ostream& out = cli.out;
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
int CmdPromote(const CliInvocation& cli) {
  StatusOr<TransactionSet> txns = LoadTxns(cli);
  if (!txns.ok()) return cli.Fail(txns.status());
  PromoteOptions options;
  options.check = cli.check;
  options.max_promotions = cli.Int("budget", options.max_promotions);
  options.weight_si = cli.Int("weight-si", options.weight_si);
  options.weight_ssi = cli.Int("weight-ssi", options.weight_ssi);

  StatusOr<PromotionPlan> plan = [&]() -> StatusOr<PromotionPlan> {
    if (!cli.Has("target")) return OptimizePromotions(*txns, options);
    // Target mode: "T1=RC T2=SI" with --default (RC here) for the rest,
    // or a bare level name for a uniform target.
    const std::string spec = cli.Get("target");
    StatusOr<IsolationLevel> uniform = ParseIsolationLevel(spec);
    if (uniform.ok() && cli.Has("default")) {
      return Status::InvalidArgument(StrCat(
          "--default does not apply with --target ", spec,
          ": a bare level covers every transaction"));
    }
    if (uniform.ok()) {
      return PromoteForTarget(*txns, Allocation(txns->size(), *uniform),
                              options);
    }
    StatusOr<IsolationLevel> fallback = DefaultLevel(cli, IsolationLevel::kRC);
    if (!fallback.ok()) return fallback.status();
    StatusOr<Allocation> target = ParseAllocation(*txns, spec, *fallback);
    if (!target.ok()) return target.status();
    return PromoteForTarget(*txns, *target, options);
  }();
  if (!plan.ok()) return cli.Fail(plan.status());

  // Optional certification, run before emission so the JSON document can
  // carry the verdict: the promoted workload must round-trip through the
  // engine + formal machinery without a single disagreement, and the
  // promoted allocation being robust means zero anomalous runs.
  std::optional<RoundTripReport> validation;
  const int validate_runs = cli.Int("validate-runs", 0);
  if (validate_runs > 0) {
    RoundTripOptions rt;
    rt.runs = validate_runs;
    rt.concurrency = cli.Int("concurrency", 4);
    rt.seed = cli.Uint64("seed", 0);
    rt.check = cli.check;
    rt.metrics = cli.metrics;
    StatusOr<RoundTripReport> report =
        ValidateEngineRuns(plan->promoted, plan->after_allocation, rt);
    if (!report.ok()) return cli.Fail(report.status());
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

  std::ostream& out = cli.out;
  if (cli.Has("json")) {
    out << PromotionPlanJson(*txns, *plan, options, validation_json) << "\n";
  } else {
    out << PromotionPlanToString(*txns, *plan);
    if (validation.has_value()) {
      out << "\nvalidation of the promoted workload under the after "
             "allocation:\n"
          << validation->ToString();
    }
  }
  if (cli.Has("promotion-json")) {
    Status emitted = EmitArtifact(
        cli.Get("promotion-json"),
        PromotionPlanJson(*txns, *plan, options, validation_json), out);
    if (!emitted.ok()) return cli.Fail(emitted);
  }
  if (validation.has_value() && validation->disagreements != 0) return 2;
  return 0;
}

std::string Usage();

int CmdHelp(const CliInvocation& cli) {
  cli.out << Usage();
  return 0;
}

int CmdVersion(const CliInvocation& cli) {
  cli.out << BuildInfoText();
  return 0;
}

// Every command with the flags it reads, in `mvrob help` order. The flag
// lists name rows of kFlags; kRules adds presence rules between them.
constexpr CliCommand kCommands[] = {
    {"check", "decide robustness of an allocation (Algorithm 1)",
     "txns workload alloc default json witness-json witness-dot threads", true,
     &CmdCheck},
    {"allocate", "compute the optimal robust allocation (Algorithm 2)",
     "txns workload rcsi pin atmost explain json witness-json witness-dot "
     "threads", true, &CmdAllocate},
    {"explore", "analyze one schedule: dependencies, SeG, allowed-under",
     "txns workload schedule alloc default dot timeline", true, &CmdExplore},
    {"census", "enumerate all interleavings: allowed / anomalous counts",
     "txns workload alloc default max", true, &CmdCensus},
    {"templates",
     "per-program allocation for a template workload: predicate reads (key "
     "ranges), declared functional constraints, refined template-pair "
     "conflicts, promotion, engine certification",
     "templates no-constraints copies max-instances rcsi explain promote "
     "validate-runs seed witness-json threads", true, &CmdTemplates},
    {"report", "full markdown analysis of a workload", "txns workload threads",
     true, &CmdReport},
    {"simulate", "execute the workload on the MVCC engine and report outcomes",
     "txns workload alloc default runs concurrency seed engine-threads "
     "engine-shards record-schedule record-trace trace-sample threads", true,
     &CmdSimulate},
    {"validate", "round-trip recorded engine runs through the formal checker",
     "txns workload alloc default runs concurrency seed engine-threads "
     "engine-shards threads", true, &CmdValidate},
    {"crosscheck", "validate Algorithm 1 against the exhaustive oracles",
     "txns workload alloc default", true, &CmdCrossCheck},
    {"shell", "interactive session: add transactions, watch the optimum move",
     "witness-json witness-dot threads", true, &CmdShell},
    {"promote",
     "search for reads to promote (SELECT ... FOR UPDATE) so a strictly "
     "cheaper allocation becomes robust",
     "txns workload budget weight-si weight-ssi target default validate-runs "
     "concurrency seed json promotion-json threads", true, &CmdPromote},
    {"serve",
     "run the workload continuously and expose live telemetry over HTTP: "
     "/metrics (Prometheus), /healthz, /snapshot, /witness, /allocation, "
     "/debug/pprof, /debug/stacks",
     "txns workload alloc default port host port-file witness-interval "
     "duration window concurrency seed engine-threads engine-shards threads "
     "adapt adapt-interval adapt-budget trace-sample stats-json trace-out "
     "log-level profile-hz profile-out", false, &CmdServe},
    {"version", "print build information (git describe, compiler, sanitizer)",
     "", false, &CmdVersion},
    {"help", "this text", "", false, &CmdHelp},
};

const CliCommand* FindCommand(std::string_view name) {
  for (const CliCommand& command : kCommands) {
    if (name == command.name) return &command;
  }
  return nullptr;
}

// Appends `head` padded to `column`, then `body` wrapped at 79 columns with
// every further line indented to `column`; '\n' in `body` forces a break.
void AppendEntry(std::string& text, const std::string& head,
                 const std::string& body, size_t column) {
  std::string line = head;
  bool fresh = false;  // `line` holds indentation only.
  auto flush = [&] {
    text += line + "\n";
    line.assign(column, ' ');
    fresh = true;
  };
  for (const std::string& paragraph : SplitAndTrim(body, '\n')) {
    if (line != head) flush();
    for (const std::string& word : SplitAndTrim(paragraph, ' ')) {
      if (!fresh && line.size() > column && line.size() + word.size() >= 79) {
        flush();
      }
      if (!fresh) {
        line.append(line.size() < column ? column - line.size() : 1, ' ');
      }
      line += word;
      fresh = false;
    }
  }
  text += line + "\n";
}

// The help text, generated from kCommands, kRules and kFlags.
std::string Usage() {
  std::string text =
      "mvrob — mixed isolation-level robustness & allocation\n\n"
      "usage: mvrob <command> [flags]\n\n"
      "commands, each with the flags it reads (any other flag is an error):\n";
  for (const CliCommand& command : kCommands) {
    AppendEntry(text, StrCat("  ", command.name), command.summary, 13);
    std::string flags;
    for (const std::string& flag : DeclaredFlags(command)) {
      flags += StrCat(" --", flag);
    }
    if (!flags.empty()) AppendEntry(text, "", flags, 13);
  }
  text += "\nrules (all: every command that reads the flags a rule names):\n";
  for (const CliRule& rule : kRules) {
    AppendEntry(text, StrCat("  ", rule.command ? rule.command : "all", ":"),
                RuleSentence(rule, SplitAndTrim(rule.flags, ' '),
                             SplitAndTrim(rule.others, ' ')),
                4);
  }
  text += "\nflags:\n";
  for (const CliFlag& flag : kFlags) {
    AppendEntry(text, StrCat("  --", flag.name, " ", flag.value), flag.help,
                27);
  }
  return text;
}

}  // namespace

std::span<const CliFlag> CliFlags() { return kFlags; }
std::span<const CliCommand> CliCommands() { return kCommands; }
std::span<const CliRule> CliRules() { return kRules; }

std::vector<std::string> DeclaredFlags(const CliCommand& command) {
  return SplitAndTrim(
      command.run_flags ? StrCat(command.flags, " ", kRunFlags) : command.flags,
      ' ');
}

bool CliRuleApplies(const CliRule& rule, const CliCommand& command) {
  if (rule.command != nullptr) {
    return command.name == std::string_view(rule.command);
  }
  const std::vector<std::string> declared = DeclaredFlags(command);
  for (const std::string& name :
       SplitAndTrim(StrCat(rule.flags, " ", rule.others), ' ')) {
    if (std::find(declared.begin(), declared.end(), name) == declared.end()) {
      return false;
    }
  }
  return true;
}

int RunCli(const std::vector<std::string>& args, std::ostream& out,
           std::ostream& err) {
  return RunCli(args, std::cin, out, err);
}

int RunCli(const std::vector<std::string>& args, std::istream& in,
           std::ostream& out, std::ostream& err) {
  if (args.empty()) {
    out << Usage();
    return 1;
  }
  const std::string name = args[0] == "--help"      ? "help"
                           : args[0] == "--version" ? "version"
                                                    : args[0];
  const CliCommand* command = FindCommand(name);
  if (command == nullptr) {
    err << "error: unknown command '" << name << "'\n" << Usage();
    return 1;
  }
  // Register the invoking thread for the profiler/watchdog/crash stack
  // machinery and arm the crash flight recorder: any fatal signal from
  // here on writes mvrob.crash.<pid>.txt next to the working directory.
  ProfiledThreadScope main_scope("main");
  InstallCrashRecorder(CrashRecorderOptions{});
  StatusOr<std::map<std::string, std::string>> values =
      ParseFlags(*command, args);
  if (!values.ok()) return Fail(err, values.status());
  CliInvocation cli{*std::move(values), in, out, err};

  // --log-level overrides MVROB_LOG_LEVEL for this invocation.
  if (cli.Has("log-level")) {
    StatusOr<LogLevel> level = ParseLogLevel(cli.Get("log-level"));
    if (!level.ok()) {
      return Fail(err, Status::InvalidArgument(StrCat(
                           "--log-level: ", level.status().message())));
    }
    GlobalLogger().set_min_level(*level);
  }

  // The shared flags, read once here. RunCli runs the run flags around
  // the command (command->run_flags); serve owns its registry, tracer,
  // profiler and export files, which it starts with the server and writes
  // on clean shutdown — an outer registry here would clobber them with a
  // near-empty snapshot after RunServe returns.
  const bool run_flags = command->run_flags;
  cli.check.num_threads = cli.Int("threads", cli.check.num_threads);
  cli.trace_sample = cli.Uint64("trace-sample", 0);
  const std::string profile_out = cli.Get("profile-out");
  cli.profile_hz = cli.Int("profile-hz", 0);
  if (cli.profile_hz == 0 && !profile_out.empty()) {
    cli.profile_hz = ProfilerOptions().hz;
  }
  // Outside serve (whose /debug/pprof reads the live profile), samples
  // land only in --profile-out and the --stats-json gauges.
  if (run_flags && cli.Has("profile-hz") && profile_out.empty() &&
      !cli.Has("stats-json")) {
    return Fail(err, Status::InvalidArgument(
                         "--profile-hz requires --profile-out or --stats-json"));
  }

  // --stats-json / --trace-out turn on metrics collection for the whole
  // command; without them no registry exists and every instrumentation
  // site stays disabled (null sink).
  std::optional<MetricsRegistry> registry;
  if (run_flags && (cli.Has("stats-json") || cli.Has("trace-out"))) {
    registry.emplace();
    cli.metrics = &*registry;
    cli.check.metrics = cli.metrics;
  }

  // --trace-sample attaches a txn tracer to the simulate engines.
  std::optional<TxnTracer> tracer;
  if (run_flags && cli.trace_sample > 0) {
    TxnTracerOptions tracer_options;
    tracer_options.sample_every_n = cli.trace_sample;
    tracer_options.metrics = cli.metrics;
    cli.tracer = &tracer.emplace(tracer_options);
  }

  // --metrics-interval (which requires --stats-json or --trace-out)
  // rewrites the export files on a cadence while the command runs (e.g. a
  // long report), so progress can be tailed.
  std::optional<PeriodicMetricsExporter> exporter;
  if (cli.Has("metrics-interval")) {
    exporter.emplace(*registry, cli.Get("stats-json"), cli.Get("trace-out"),
                     std::chrono::seconds(cli.Int("metrics-interval", 0)));
  }

  // --profile-hz / --profile-out: sample the whole command.
  bool profiling = false;
  if (run_flags && cli.profile_hz > 0) {
    ProfilerOptions profile_options;
    profile_options.hz = cli.profile_hz;
    profile_options.metrics = cli.metrics;
    Status started = Profiler::Start(profile_options);
    if (!started.ok()) return Fail(err, started);
    profiling = true;
  }

  int code;
  {
    // Top-level span covering the entire command.
    PhaseTimer timer(cli.metrics, StrCat("cli.", command->name));
    code = command->run(cli);
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
        ExportMetricsFiles(*registry, cli.Get("stats-json"),
                           cli.Get("trace-out"), cli.tracer);
    if (!written.ok()) return Fail(err, written);
  }
  return code;
}

}  // namespace mvrob
