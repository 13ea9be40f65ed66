#include "core/optimal_allocation.h"

#include "common/metrics.h"
#include "common/string_util.h"
#include "core/analyzer.h"

namespace mvrob {

LoweringResult LowerToOptimum(Allocation top,
                              const std::vector<IsolationLevel>& floor,
                              const LoweringProbe& probe) {
  LoweringResult result;
  result.allocation = std::move(top);
  for (TxnId u = 0; u < result.allocation.size() && !result.cancelled; ++u) {
    for (IsolationLevel level : {IsolationLevel::kRC, IsolationLevel::kSI}) {
      if (level < floor[u]) continue;
      if (!(level < result.allocation.level(u))) break;
      Allocation candidate = result.allocation.With(u, level);
      ++result.probes;
      const ProbeVerdict verdict = probe(result.allocation, candidate);
      if (verdict == ProbeVerdict::kCancelled) {
        result.cancelled = true;
        break;
      }
      if (verdict == ProbeVerdict::kRobust) {
        result.allocation = std::move(candidate);
        break;
      }
    }
  }
  return result;
}

StatusOr<OptimalAllocationResult> ComputeOptimalAllocation(
    const RobustnessAnalyzer& analyzer, const AllocationBounds& bounds,
    const CheckOptions& options) {
  const TransactionSet& txns = analyzer.txns();
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

  PhaseTimer timer(options.metrics, "allocation.algorithm2");
  OptimalAllocationResult result;
  Allocation top(bounds.max_level);
  result.feasible = true;
  if (top != Allocation::AllSSI(n)) {
    ++result.robustness_checks;
    RobustnessResult at_top = analyzer.Check(top, options);
    result.cancelled = at_top.cancelled;
    result.feasible = at_top.robust && !at_top.cancelled;
    result.counterexample = std::move(at_top.counterexample);
  }
  uint64_t levels_tried = 0;
  if (result.feasible) {
    LoweringResult lowered = LowerToOptimum(
        std::move(top), bounds.min_level,
        [&](const Allocation& current, const Allocation& candidate) {
          // `current` is robust, so only triples through the changed
          // transaction can break the candidate.
          RobustnessResult check =
              analyzer.CheckDelta(current, candidate, options);
          if (check.cancelled) return ProbeVerdict::kCancelled;
          return check.robust ? ProbeVerdict::kRobust
                              : ProbeVerdict::kNotRobust;
        });
    result.allocation = std::move(lowered.allocation);
    result.cancelled = lowered.cancelled;
    levels_tried = lowered.probes;
    result.robustness_checks += lowered.probes;
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

OptimalAllocationResult ComputeOptimalAllocation(
    const RobustnessAnalyzer& analyzer, const CheckOptions& options) {
  // Free bounds are well formed and their top, A_SSI, is never checked.
  return ComputeOptimalAllocation(
             analyzer, AllocationBounds::Free(analyzer.txns().size()), options)
      .value();
}

OptimalAllocationResult ComputeOptimalAllocation(const TransactionSet& txns,
                                                 const CheckOptions& options) {
  // All 2|T| robustness checks run over the same transaction set, so the
  // analyzer's conflict matrices and pivot components amortize fully.
  RobustnessAnalyzer analyzer(txns, options.metrics);
  return ComputeOptimalAllocation(analyzer, options);
}

}  // namespace mvrob
