#include "core/witness.h"

#include <utility>

#include "common/json.h"
#include "common/string_util.h"
#include "core/split_schedule.h"
#include "schedule/dot.h"

namespace mvrob {
namespace {

const char* OpTypeName(const Operation& op) {
  if (op.IsRead()) return "read";
  if (op.IsWrite()) return "write";
  return "commit";
}

// Edge `index` of the `count` SplitChainEdges, with its conflict mode and
// the Definition 3.1 condition it discharges.
WitnessEdge JustifyEdge(const TransactionSet& txns,
                        const CounterexampleChain& chain,
                        const ChainEdge& edge, size_t index, size_t count) {
  auto name = [&](TxnId t) { return txns.txn(t).name(); };
  auto op = [&](OpRef ref) { return txns.FormatOp(ref); };
  WitnessEdge justified{edge.from, edge.to, edge.b, edge.a, "none",
                        "3.1(chain)", ""};
  if (edge.b.IsOp0()) {
    justified.detail = StrCat("MISSING conflict between ", name(edge.from),
                              " and ", name(edge.to));
    return justified;
  }
  justified.conflict = ConflictKind(txns.op(edge.b), txns.op(edge.a));
  if (index == 0) {
    justified.condition = "3.1(4)";
    justified.detail = StrCat(op(edge.b), " reads the object that ",
                              op(edge.a), " writes; T1 is split after ",
                              op(edge.b));
  } else if (index + 1 < count) {
    justified.detail = StrCat("conflicting quadruple (", name(edge.from), ", ",
                              op(edge.b), ", ", op(edge.a), ", ",
                              name(edge.to), ") links the chain");
  } else if (justified.conflict == "rw") {
    justified.condition = "3.1(5)";
    justified.detail = StrCat(op(edge.b),
                              " closes the cycle with an rw-antidependency "
                              "into ",
                              op(edge.a));
  } else {
    justified.condition = "3.1(5)-rc";
    justified.detail = StrCat(op(edge.b), " closes the cycle into ",
                              op(edge.a), " via the RC split case (A(",
                              name(chain.t1), ") = RC, b1 <_T1 a1)");
  }
  return justified;
}

// Emits one witness report as a JSON object (the value after a Key()).
void WitnessReportJson(const TransactionSet& txns, const Allocation& alloc,
                       const WitnessReport& report, JsonWriter& json) {
  json.BeginObject();
  json.Key("split_txn");
  json.String(txns.txn(report.chain.t1).name());
  json.Key("split_after");
  json.String(txns.FormatOp(report.chain.b1));
  json.Key("chain");
  json.BeginArray();
  for (TxnId t : report.chain_txns) {
    json.BeginObject();
    json.Key("txn");
    json.String(txns.txn(t).name());
    json.Key("level");
    json.String(IsolationLevelToString(alloc.level(t)));
    json.EndObject();
  }
  json.EndArray();
  json.Key("edges");
  json.BeginArray();
  for (const WitnessEdge& edge : report.edges) {
    json.BeginObject();
    json.Key("from");
    json.String(txns.txn(edge.from).name());
    json.Key("to");
    json.String(txns.txn(edge.to).name());
    json.Key("b");
    json.String(txns.FormatOp(edge.b));
    json.Key("a");
    json.String(txns.FormatOp(edge.a));
    json.Key("conflict");
    json.String(edge.conflict);
    json.Key("condition");
    json.String(edge.condition);
    json.Key("detail");
    json.String(edge.detail);
    json.EndObject();
  }
  json.EndArray();
  json.Key("conditions");
  json.BeginArray();
  for (const WitnessCondition& condition : report.conditions) {
    json.BeginObject();
    json.Key("condition");
    json.String(condition.condition);
    json.Key("holds");
    json.Bool(condition.holds);
    json.Key("detail");
    json.String(condition.detail);
    json.EndObject();
  }
  json.EndArray();
  json.Key("split_schedule");
  json.BeginObject();
  json.Key("prefix_len");
  json.Int(report.prefix_len);
  json.Key("order");
  json.BeginArray();
  for (const OpRef& ref : report.split_order) {
    const Operation& op = txns.op(ref);
    json.BeginObject();
    json.Key("op");
    json.String(txns.FormatOp(ref));
    json.Key("txn");
    json.String(txns.txn(ref.txn).name());
    json.Key("type");
    json.String(OpTypeName(op));
    if (!op.IsCommit()) {
      json.Key("object");
      json.String(txns.ObjectName(op.object));
    }
    json.EndObject();
  }
  json.EndArray();
  StatusOr<Schedule> schedule =
      BuildSplitSchedule(txns, alloc, report.chain);
  if (schedule.ok()) {
    json.Key("schedule");
    json.String(schedule->ToString(/*with_versions=*/true));
    json.Key("timeline");
    json.String(ScheduleTimeline(*schedule));
  }
  json.EndObject();
  json.Key("verified");
  json.Bool(report.verified);
  if (!report.verified) {
    json.Key("verify_error");
    json.String(report.verify_error);
  }
  json.EndObject();
}

void AllocationJson(const TransactionSet& txns, const Allocation& alloc,
                    JsonWriter& json) {
  json.BeginObject();
  for (TxnId t = 0; t < txns.size(); ++t) {
    json.Key(txns.txn(t).name());
    json.String(IsolationLevelToString(alloc.level(t)));
  }
  json.EndObject();
}

// Appends the chain of `report` to `dot`, with T1 drawn split into its
// prefix and postfix halves. `id_prefix` namespaces node ids so several
// chains can share one graph (the allocate obstacle view); `context` is
// appended to node labels when non-empty.
void AppendChainToDot(DotGraph& dot, const TransactionSet& txns,
                      const Allocation& alloc, const WitnessReport& report,
                      const std::string& id_prefix,
                      const std::string& context) {
  const CounterexampleChain& chain = report.chain;
  auto node_id = [&](TxnId t) { return StrCat(id_prefix, "n", t); };
  auto label = [&](TxnId t, std::string_view suffix) {
    std::string text = StrCat(txns.txn(t).name(), suffix, "\n",
                              IsolationLevelToString(alloc.level(t)));
    if (!context.empty()) text = StrCat(context, "\n", text);
    return text;
  };
  std::string t1_pre = StrCat(node_id(chain.t1), "_pre");
  std::string t1_post = StrCat(node_id(chain.t1), "_post");
  dot.AddNode({t1_pre,
               label(chain.t1,
                     StrCat(" prefix(", txns.FormatOp(chain.b1), ")")),
               "box", "style=filled, fillcolor=lightgrey"});
  dot.AddNode({t1_post, label(chain.t1, " postfix"), "box",
               "style=filled, fillcolor=lightgrey"});
  for (TxnId t : chain.MiddleTxns()) {
    dot.AddNode({node_id(t), label(t, ""), "box"});
  }
  // Program order within the split T1.
  dot.AddEdge({t1_pre, t1_post, "program order", /*dashed=*/true});
  for (const WitnessEdge& edge : report.edges) {
    std::string from = edge.from == chain.t1 ? t1_pre : node_id(edge.from);
    std::string to = node_id(edge.to);
    if (edge.to == chain.t1) {
      to = edge.a.index <= chain.b1.index ? t1_pre : t1_post;
    }
    dot.AddEdge({from, to,
                 StrCat(txns.FormatOp(edge.b), "->", txns.FormatOp(edge.a),
                        " (", edge.conflict, ", ", edge.condition, ")"),
                 edge.conflict == "rw"});
  }
}

}  // namespace

StatusOr<WitnessReport> BuildWitnessReport(const TransactionSet& txns,
                                           const Allocation& alloc,
                                           const CounterexampleChain& chain) {
  Status references = CheckChainReferences(txns, chain);
  if (!references.ok()) return references;
  if (alloc.size() != txns.size()) {
    return Status::InvalidArgument("allocation size mismatch");
  }

  WitnessReport report;
  report.chain = chain;
  report.chain_txns = chain.ChainTxns();

  const std::vector<ChainEdge> edges = SplitChainEdges(txns, chain);
  for (size_t i = 0; i < edges.size(); ++i) {
    report.edges.push_back(
        JustifyEdge(txns, chain, edges[i], i, edges.size()));
  }
  report.conditions = EvaluateSplitConditions(txns, alloc, chain);
  report.split_order = BuildSplitOrder(txns, chain);
  report.prefix_len = chain.b1.index + 1;
  Status verified = VerifyCounterexample(txns, alloc, chain);
  report.verified = verified.ok();
  if (!verified.ok()) report.verify_error = verified.ToString();
  return report;
}

std::string RobustnessWitnessJson(const TransactionSet& txns,
                                  const Allocation& alloc,
                                  const RobustnessResult& result) {
  JsonWriter json;
  json.BeginObject();
  json.Key("version");
  json.Uint(1);
  json.Key("kind");
  json.String("robustness_witness");
  json.Key("robust");
  json.Bool(result.robust);
  json.Key("allocation");
  AllocationJson(txns, alloc, json);
  json.Key("triples_examined");
  json.Uint(result.triples_examined);
  if (!result.robust && result.counterexample.has_value()) {
    StatusOr<WitnessReport> report =
        BuildWitnessReport(txns, alloc, *result.counterexample);
    if (report.ok()) {
      json.Key("witness");
      WitnessReportJson(txns, alloc, *report, json);
    } else {
      json.Key("witness_error");
      json.String(report.status().ToString());
    }
  }
  json.EndObject();
  return json.str();
}

std::string RobustnessWitnessDot(const TransactionSet& txns,
                                 const Allocation& alloc,
                                 const RobustnessResult& result) {
  DotGraph dot("witness");
  dot.AddAttribute("rankdir=LR");
  dot.AddAttribute(StrCat("label=\"",
                          DotGraph::Escape(alloc.ToString(txns)), "\""));
  if (result.robust || !result.counterexample.has_value()) {
    dot.AddNode({"verdict", "robust: no counterexample chain exists",
                 "plaintext"});
    return dot.Render();
  }
  StatusOr<WitnessReport> report =
      BuildWitnessReport(txns, alloc, *result.counterexample);
  if (!report.ok()) {
    dot.AddNode({"verdict",
                 StrCat("witness error: ", report.status().ToString()),
                 "plaintext"});
    return dot.Render();
  }
  AppendChainToDot(dot, txns, alloc, *report, "", "");
  return dot.Render();
}

std::string AllocationExplanationJson(
    const TransactionSet& txns, const AllocationExplanation& explanation) {
  const Allocation& alloc = explanation.allocation;
  JsonWriter json;
  json.BeginObject();
  json.Key("version");
  json.Uint(1);
  json.Key("kind");
  json.String("allocation_witness");
  json.Key("allocation");
  AllocationJson(txns, alloc, json);
  json.Key("counts");
  json.BeginObject();
  for (IsolationLevel level : kAllIsolationLevels) {
    json.Key(IsolationLevelToString(level));
    json.Uint(alloc.CountAt(level));
  }
  json.EndObject();
  json.Key("per_txn");
  json.BeginArray();
  for (const AllocationObstacle& entry : explanation.per_txn) {
    json.BeginObject();
    json.Key("txn");
    json.String(txns.txn(entry.txn).name());
    json.Key("assigned");
    json.String(IsolationLevelToString(entry.assigned));
    json.Key("obstacles");
    json.BeginArray();
    for (const AllocationObstacle::Obstacle& obstacle : entry.obstacles) {
      json.BeginObject();
      json.Key("attempted");
      json.String(IsolationLevelToString(obstacle.attempted));
      // The chain witnesses non-robustness of the *lowered* allocation.
      Allocation lowered = alloc.With(entry.txn, obstacle.attempted);
      StatusOr<WitnessReport> report =
          BuildWitnessReport(txns, lowered, obstacle.chain);
      if (report.ok()) {
        json.Key("witness");
        WitnessReportJson(txns, lowered, *report, json);
      } else {
        json.Key("witness_error");
        json.String(report.status().ToString());
      }
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  return json.str();
}

std::string AllocationExplanationDot(
    const TransactionSet& txns, const AllocationExplanation& explanation) {
  const Allocation& alloc = explanation.allocation;
  DotGraph dot("obstacles");
  dot.AddAttribute("rankdir=LR");
  dot.AddAttribute(StrCat("label=\"optimal allocation ",
                          DotGraph::Escape(alloc.ToString(txns)), "\""));
  size_t cluster = 0;
  for (const AllocationObstacle& entry : explanation.per_txn) {
    for (const AllocationObstacle::Obstacle& obstacle : entry.obstacles) {
      Allocation lowered = alloc.With(entry.txn, obstacle.attempted);
      StatusOr<WitnessReport> report =
          BuildWitnessReport(txns, lowered, obstacle.chain);
      if (!report.ok()) continue;
      AppendChainToDot(dot, txns, lowered, *report,
                       StrCat("o", cluster, "_"),
                       StrCat(txns.txn(entry.txn).name(), "->",
                              IsolationLevelToString(obstacle.attempted),
                              " blocked by:"));
      ++cluster;
    }
  }
  if (cluster == 0) {
    dot.AddNode({"verdict", "no obstacles: every transaction is at RC",
                 "plaintext"});
  }
  return dot.Render();
}

}  // namespace mvrob
