#ifndef MVROB_CORE_OPTIMAL_ALLOCATION_H_
#define MVROB_CORE_OPTIMAL_ALLOCATION_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/robustness.h"

namespace mvrob {

/// Per-transaction level bounds: min <= A(T) <= max. Practical sources:
///  - legacy code paths that cannot tolerate serialization failures pin
///    max = RC or SI (no retry loops for aborts);
///  - compliance-critical transactions pin min = SSI;
///  - a DBMS without SSI (Oracle) caps max = SI globally (Section 5,
///    RcSi below).
struct AllocationBounds {
  std::vector<IsolationLevel> min_level;
  std::vector<IsolationLevel> max_level;

  /// Unconstrained bounds for n transactions: Algorithm 2 (Theorem 4.3).
  static AllocationBounds Free(size_t n) {
    return AllocationBounds{
        std::vector<IsolationLevel>(n, IsolationLevel::kRC),
        std::vector<IsolationLevel>(n, IsolationLevel::kSSI)};
  }
  /// The {RC, SI} setting of Section 5 (Definition 5.3, Theorem 5.5).
  static AllocationBounds RcSi(size_t n) {
    return AllocationBounds{
        std::vector<IsolationLevel>(n, IsolationLevel::kRC),
        std::vector<IsolationLevel>(n, IsolationLevel::kSI)};
  }
  /// Pins one transaction to exactly `level`.
  AllocationBounds& Pin(TxnId txn, IsolationLevel level) {
    min_level[txn] = level;
    max_level[txn] = level;
    return *this;
  }
  AllocationBounds& AtMost(TxnId txn, IsolationLevel level) {
    max_level[txn] = level;
    return *this;
  }
  AllocationBounds& AtLeast(TxnId txn, IsolationLevel level) {
    min_level[txn] = level;
    return *this;
  }
};

/// OK when `bounds` has one level pair per unit and min <= max for each;
/// otherwise InvalidArgument naming the first empty unit by `unit_name`.
Status ValidateBounds(const AllocationBounds& bounds, size_t units,
                      const std::function<std::string(size_t)>& unit_name);

/// Result of Algorithm 2 over a box of AllocationBounds.
struct OptimalAllocationResult {
  /// Whether any robust allocation within the bounds exists. By upward
  /// closure (Proposition 4.1(1)) this holds iff the bounds' top (every
  /// transaction at its max) is robust; always true for Free bounds. For
  /// RcSi bounds this is Proposition 5.4: robust against A_SI.
  bool feasible = false;
  /// The optimal robust allocation within the bounds, when feasible;
  /// empty otherwise.
  Allocation allocation;
  /// When infeasible: Algorithm 1's counterexample against the top.
  std::optional<CounterexampleChain> counterexample;
  /// Number of invocations of the robustness checker — exposed for the
  /// complexity benchmarks. The top's check counts one, unless the top is
  /// A_SSI, which is never checked.
  uint64_t robustness_checks = 0;
  /// True when CheckOptions::cancel stopped the search. When the top's
  /// check was cancelled, feasibility is unknown: `feasible` is false and
  /// `allocation` empty. Otherwise `allocation` is the last robust
  /// allocation reached: robust, but not necessarily optimal.
  bool cancelled = false;
};

/// A probe's answer for one lowering candidate.
enum class ProbeVerdict { kRobust, kNotRobust, kCancelled };

/// Decides `candidate`, which differs from the robust `current` in the
/// levels of one unit (a transaction, or every instance of a template).
using LoweringProbe = std::function<ProbeVerdict(const Allocation& current,
                                                 const Allocation& candidate)>;

struct LoweringResult {
  Allocation allocation;
  /// One per candidate handed to the probe.
  uint64_t probes = 0;
  /// A probe answered kCancelled; `allocation` is the last robust one.
  bool cancelled = false;
};

/// The lowering step of Algorithm 2, shared by every allocator over
/// {RC, SI, SSI}: for each unit u in order, tries each level from
/// floor[u] up to, but not including, u's current level, and keeps the
/// first level the probe accepts.
///
/// Precondition: `top` is robust and floor <= top pointwise.
///
/// Why one loop serves every box [floor, top]: robust allocations are
/// closed upward (Proposition 4.1(1)) and under pointwise minimum
/// (Proposition 4.1(2)), so the robust allocations inside the box have a
/// unique minimal element, and this greedy descent reaches it in any
/// unit order. The free problem (Theorem 4.3) is the box [A_RC, A_SSI],
/// the {RC, SI} problem (Theorem 5.5) is [A_RC, A_SI], the incremental
/// allocator's warm start is [previous optimum, A_SSI], and the template
/// layer runs the same box with units = templates and a probe that
/// quantifies over every function world.
LoweringResult LowerToOptimum(Allocation top,
                              const std::vector<IsolationLevel>& floor,
                              const LoweringProbe& probe);

class RobustnessAnalyzer;

/// Algorithm 2 over the box `bounds` on a caller-provided analyzer, so
/// callers that already hold one reuse its matrices and pivot caches.
/// Checks the top with RobustnessAnalyzer::Check — except A_SSI, which no
/// witness can split (Definition 3.1 (6)) — then lowers with CheckDelta:
/// every candidate differs from a robust allocation in one transaction.
/// `options` is forwarded to every check; the allocation is identical for
/// every thread count. Fails with InvalidArgument when the bounds are
/// malformed (size mismatch, or min > max somewhere).
StatusOr<OptimalAllocationResult> ComputeOptimalAllocation(
    const RobustnessAnalyzer& analyzer, const AllocationBounds& bounds,
    const CheckOptions& options = {});

/// Algorithm 2: the *unique* optimal robust allocation over {RC, SI, SSI}
/// (Theorem 4.3, Proposition 4.2), i.e. the Free box above: no
/// transaction can be moved to a lower level without breaking robustness.
OptimalAllocationResult ComputeOptimalAllocation(
    const RobustnessAnalyzer& analyzer, const CheckOptions& options = {});

/// The same on a one-shot analyzer over `txns`.
OptimalAllocationResult ComputeOptimalAllocation(const TransactionSet& txns,
                                                 const CheckOptions& options = {});

}  // namespace mvrob

#endif  // MVROB_CORE_OPTIMAL_ALLOCATION_H_
