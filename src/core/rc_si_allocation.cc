#include "core/rc_si_allocation.h"

#include "core/analyzer.h"

namespace mvrob {

RcSiAllocationResult ComputeOptimalRcSiAllocation(const TransactionSet& txns) {
  RcSiAllocationResult result;
  RobustnessAnalyzer analyzer(txns);
  RobustnessResult against_si =
      analyzer.Check(Allocation::AllSI(txns.size()));
  ++result.robustness_checks;
  if (!against_si.robust) {
    result.allocatable = false;
    result.counterexample = std::move(against_si.counterexample);
    return result;
  }
  result.allocatable = true;
  Allocation allocation = Allocation::AllSI(txns.size());
  for (TxnId t = 0; t < txns.size(); ++t) {
    Allocation candidate = allocation.With(t, IsolationLevel::kRC);
    ++result.robustness_checks;
    if (analyzer.CheckDelta(allocation, candidate).robust) {
      allocation = std::move(candidate);
    }
  }
  result.allocation = std::move(allocation);
  return result;
}

}  // namespace mvrob
