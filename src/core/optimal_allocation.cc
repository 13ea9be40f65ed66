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

Status ValidateBounds(const AllocationBounds& bounds, size_t units,
                      const std::function<std::string(size_t)>& unit_name) {
  if (bounds.min_level.size() != units || bounds.max_level.size() != units) {
    return Status::InvalidArgument("bounds size mismatch");
  }
  for (size_t u = 0; u < units; ++u) {
    if (bounds.max_level[u] < bounds.min_level[u]) {
      return Status::InvalidArgument(
          StrCat("empty bounds for ", unit_name(u), ": min ",
                 IsolationLevelToString(bounds.min_level[u]), " > max ",
                 IsolationLevelToString(bounds.max_level[u])));
    }
  }
  return Status::Ok();
}

StatusOr<OptimalAllocationResult> ComputeOptimalAllocation(
    const RobustnessAnalyzer& analyzer, const AllocationBounds& bounds,
    const CheckOptions& options) {
  const TransactionSet& txns = analyzer.txns();
  const size_t n = txns.size();
  Status valid = ValidateBounds(bounds, n, [&](size_t t) {
    return txns.txn(static_cast<TxnId>(t)).name();
  });
  if (!valid.ok()) return valid;

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
