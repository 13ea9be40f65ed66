#ifndef MVROB_CORE_OPTIMAL_ALLOCATION_H_
#define MVROB_CORE_OPTIMAL_ALLOCATION_H_

#include <cstdint>

#include "core/robustness.h"

namespace mvrob {

/// Result of the allocation computation (Algorithm 2).
struct OptimalAllocationResult {
  Allocation allocation;
  /// Number of invocations of the robustness checker — exposed for the
  /// complexity benchmarks.
  uint64_t robustness_checks = 0;
  /// True when CheckOptions::cancel stopped the search. `allocation` is
  /// then the last robust allocation reached: robust, but not necessarily
  /// optimal.
  bool cancelled = false;
};

/// Algorithm 2: computes the *unique* optimal robust allocation over
/// {RC, SI, SSI} for `txns` (Theorem 4.3, Proposition 4.2): no transaction
/// can be moved to a lower level without breaking robustness.
///
/// Starts from A_SSI (always robust, since SSI guarantees serializability)
/// and, for each transaction in turn, assigns the lowest level that keeps
/// the allocation robust. Correctness follows from Proposition 4.1(2): the
/// outcome does not depend on the iteration order.
///
/// `options` is forwarded to every robustness check; the allocation is
/// identical for every thread count (each check is deterministic).
OptimalAllocationResult ComputeOptimalAllocation(const TransactionSet& txns,
                                                 const CheckOptions& options = {});

class RobustnessAnalyzer;

/// Algorithm 2 over a caller-provided analyzer, so callers that already
/// hold one — the template layer runs Algorithm 2 once per function world
/// over conflict-pruned analyzers — reuse its matrices and pivot caches
/// instead of rebuilding them.
OptimalAllocationResult ComputeOptimalAllocation(
    const RobustnessAnalyzer& analyzer, const CheckOptions& options = {});

}  // namespace mvrob

#endif  // MVROB_CORE_OPTIMAL_ALLOCATION_H_
