#include "core/optimal_allocation.h"

#include "common/metrics.h"
#include "core/analyzer.h"

namespace mvrob {

OptimalAllocationResult ComputeOptimalAllocation(const TransactionSet& txns,
                                                 const CheckOptions& options) {
  // All 2|T| robustness checks run over the same transaction set, so the
  // analyzer's conflict matrices and pivot components amortize fully.
  RobustnessAnalyzer analyzer(txns, options.metrics);
  return ComputeOptimalAllocation(analyzer, options);
}

OptimalAllocationResult ComputeOptimalAllocation(
    const RobustnessAnalyzer& analyzer, const CheckOptions& options) {
  PhaseTimer timer(options.metrics, "allocation.algorithm2");
  const TransactionSet& txns = analyzer.txns();
  OptimalAllocationResult result;
  result.allocation = Allocation::AllSSI(txns.size());
  uint64_t levels_tried = 0;
  for (TxnId t = 0; t < txns.size() && !result.cancelled; ++t) {
    for (IsolationLevel level :
         {IsolationLevel::kRC, IsolationLevel::kSI}) {
      Allocation candidate = result.allocation.With(t, level);
      ++result.robustness_checks;
      ++levels_tried;
      // The current allocation is robust, so only triples through t can
      // break the candidate.
      RobustnessResult check =
          analyzer.CheckDelta(result.allocation, candidate, options);
      if (check.cancelled) {
        result.cancelled = true;
        break;
      }
      if (check.robust) {
        result.allocation = std::move(candidate);
        break;
      }
    }
  }
  if (options.metrics != nullptr) {
    options.metrics->counter("allocation.runs").Increment();
    options.metrics->counter("allocation.robustness_checks")
        .Add(result.robustness_checks);
    options.metrics->counter("allocation.lattice_levels_tried")
        .Add(levels_tried);
  }
  return result;
}

}  // namespace mvrob
