#include "core/explain.h"

#include "common/metrics.h"
#include "common/string_util.h"
#include "core/analyzer.h"

namespace mvrob {

std::string AllocationExplanation::ToString(
    const TransactionSet& txns) const {
  std::string out;
  for (const AllocationObstacle& entry : per_txn) {
    out += StrCat(txns.txn(entry.txn).name(), " = ",
                  IsolationLevelToString(entry.assigned), "\n");
    if (entry.obstacles.empty() && entry.assigned != IsolationLevel::kRC) {
      out += "  (could be lowered: the allocation is not optimal)\n";
    }
    for (const AllocationObstacle::Obstacle& obstacle : entry.obstacles) {
      out += StrCat("  not ", IsolationLevelToString(obstacle.attempted),
                    ": ", obstacle.chain.ToString(txns), "\n");
    }
  }
  return out;
}

StatusOr<AllocationExplanation> ExplainAllocation(
    const TransactionSet& txns, const Allocation& allocation,
    const CheckOptions& options) {
  if (allocation.size() != txns.size()) {
    return Status::InvalidArgument("allocation size mismatch");
  }
  PhaseTimer timer(options.metrics, "explain.checks");
  auto cancelled = [] {
    return Status::ResourceExhausted("the explanation was cancelled");
  };
  const RobustnessAnalyzer analyzer(txns, options.metrics);
  const RobustnessResult base = analyzer.Check(allocation, options);
  if (base.cancelled) return cancelled();
  if (!base.robust) {
    const CounterexampleChain& chain = *base.counterexample;
    std::string members;
    for (TxnId t : chain.ChainTxns()) {
      if (!members.empty()) members += ", ";
      members += txns.txn(t).name();
    }
    return Status::FailedPrecondition(StrCat(
        "the allocation is not robust; nothing to explain. ",
        txns.txn(chain.t1).name(), " at ",
        IsolationLevelToString(allocation.level(chain.t1)),
        " splits the chain [", members, "]: ", chain.ToString(txns)));
  }
  AllocationExplanation explanation;
  explanation.allocation = allocation;
  DeltaBase prepared(allocation);
  for (TxnId t = 0; t < txns.size(); ++t) {
    AllocationObstacle entry;
    entry.txn = t;
    entry.assigned = allocation.level(t);
    for (IsolationLevel lower : kAllIsolationLevels) {
      if (!(lower < entry.assigned)) continue;
      // The base is robust, so only the triples through t can break.
      const LevelChange change{t, lower};
      RobustnessResult result =
          analyzer.CheckDelta(prepared, {&change, 1}, options);
      if (result.cancelled) return cancelled();
      if (!result.robust) {
        entry.obstacles.push_back(
            AllocationObstacle::Obstacle{lower,
                                         std::move(*result.counterexample)});
      }
    }
    explanation.per_txn.push_back(std::move(entry));
  }
  return explanation;
}

}  // namespace mvrob
