#include "core/constrained_allocation.h"

#include "common/string_util.h"
#include "core/analyzer.h"

namespace mvrob {

StatusOr<ConstrainedAllocationResult> ComputeConstrainedAllocation(
    const TransactionSet& txns, const AllocationBounds& bounds) {
  const size_t n = txns.size();
  if (bounds.min_level.size() != n || bounds.max_level.size() != n) {
    return Status::InvalidArgument("bounds size mismatch");
  }
  for (TxnId t = 0; t < n; ++t) {
    if (bounds.max_level[t] < bounds.min_level[t]) {
      return Status::InvalidArgument(
          StrCat("empty bounds for ", txns.txn(t).name(), ": min ",
                 IsolationLevelToString(bounds.min_level[t]), " > max ",
                 IsolationLevelToString(bounds.max_level[t])));
    }
  }

  ConstrainedAllocationResult result;
  RobustnessAnalyzer analyzer(txns);

  // Feasibility: by Proposition 4.1(1) the box contains a robust
  // allocation iff its top element does.
  Allocation top(bounds.max_level);
  ++result.robustness_checks;
  RobustnessResult at_top = analyzer.Check(top);
  if (!at_top.robust) {
    result.feasible = false;
    result.counterexample = std::move(at_top.counterexample);
    return result;
  }
  result.feasible = true;

  Allocation allocation = top;
  for (TxnId t = 0; t < n; ++t) {
    for (IsolationLevel level : {IsolationLevel::kRC, IsolationLevel::kSI}) {
      if (level < bounds.min_level[t]) continue;
      if (!(level < allocation.level(t))) break;  // Already at/below.
      Allocation candidate = allocation.With(t, level);
      ++result.robustness_checks;
      if (analyzer.CheckDelta(allocation, candidate).robust) {
        allocation = std::move(candidate);
        break;
      }
    }
  }
  result.allocation = std::move(allocation);
  return result;
}

}  // namespace mvrob
