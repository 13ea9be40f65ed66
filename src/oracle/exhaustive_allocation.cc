#include "oracle/exhaustive_allocation.h"

#include <algorithm>

#include "common/string_util.h"
#include "oracle/brute_force.h"
#include "oracle/reference_checker.h"

namespace mvrob {

StatusOr<ExhaustiveAllocationResult> EnumerateRobustAllocations(
    const TransactionSet& txns, const std::vector<IsolationLevel>& levels,
    RobustnessOracle oracle, uint64_t max_candidates) {
  if (levels.empty()) {
    return Status::InvalidArgument("no isolation levels given");
  }
  const size_t n = txns.size();
  uint64_t candidates = 1;
  for (size_t i = 0; i < n; ++i) {
    candidates *= levels.size();
    if (candidates > max_candidates) {
      return Status::ResourceExhausted(
          StrCat("more than ", max_candidates, " candidate allocations"));
    }
  }

  ExhaustiveAllocationResult result;
  std::vector<size_t> digits(n, 0);
  while (true) {
    std::vector<IsolationLevel> assignment(n);
    for (size_t i = 0; i < n; ++i) assignment[i] = levels[digits[i]];
    Allocation allocation(std::move(assignment));

    bool robust;
    if (oracle == RobustnessOracle::kAlgorithm) {
      robust = CheckRobustness(txns, allocation).robust;
    } else {
      StatusOr<BruteForceResult> ground_truth =
          BruteForceRobustness(txns, allocation);
      if (!ground_truth.ok()) return ground_truth.status();
      robust = ground_truth->robust;
    }
    if (robust) result.robust_allocations.push_back(std::move(allocation));

    // Next assignment (odometer).
    size_t i = 0;
    while (i < n && ++digits[i] == levels.size()) {
      digits[i] = 0;
      ++i;
    }
    if (i == n) break;
  }

  if (!result.robust_allocations.empty()) {
    std::vector<IsolationLevel> minimum(n, IsolationLevel::kSSI);
    // Seed with the first robust allocation, then take pointwise minima.
    minimum = result.robust_allocations.front().levels();
    for (const Allocation& allocation : result.robust_allocations) {
      for (size_t i = 0; i < n; ++i) {
        minimum[i] = std::min(minimum[i], allocation.level(i),
                              [](IsolationLevel x, IsolationLevel y) {
                                return x < y;
                              });
      }
    }
    result.pointwise_minimum = Allocation(std::move(minimum));
  }
  return result;
}

}  // namespace mvrob
