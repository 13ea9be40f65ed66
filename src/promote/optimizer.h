#ifndef MVROB_PROMOTE_OPTIMIZER_H_
#define MVROB_PROMOTE_OPTIMIZER_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/optimal_allocation.h"
#include "core/robustness.h"
#include "promote/promotion.h"

namespace mvrob {

/// Distinct candidates the greedy promotion searches (this one and the
/// template-level one in templates/promote.h) evaluate per round.
inline constexpr size_t kMaxCandidatesPerRound = 32;
/// When greedy stalls, the instance-level search exhaustively tries
/// subsets of the accumulated candidate pool (sizes up to the remaining
/// budget), bounded by this many Algorithm 2 evaluations.
inline constexpr size_t kExhaustiveBudget = 256;

/// Tuning knobs for the promotion search. `check` is forwarded to every
/// robustness check and Algorithm 2 run, so the search composes with the
/// parallel engine (num_threads), the observability layer (metrics) and
/// cooperative cancellation (cancel) exactly like the other subsystems.
struct PromoteOptions {
  CheckOptions check;
  /// Promotion budget: the plan never promotes more reads than this.
  /// Every promotion is an extra write, i.e. extra first-updater-wins
  /// aborts on the engine — the budget bounds that price.
  int max_promotions = 8;
  /// Counterexample chains gathered per non-robust probe (the candidate
  /// source); more chains = wider frontier per round.
  size_t witnesses_per_round = 16;
  /// Allocation cost weights (RC is always free). The defaults make one
  /// SSI slot as expensive as two SI slots.
  int weight_si = 1;
  int weight_ssi = 2;
  /// Called before each probe of the search: every Algorithm 2 run and
  /// every witness enumeration. Null by default; raising check.cancel
  /// from it stops the search at a chosen probe.
  std::function<void()> on_probe;
};

/// Scalar cost of an allocation under the option weights, with the level
/// census alongside. "Strictly cheaper" always means strictly smaller
/// `weighted`.
struct AllocationCost {
  int64_t weighted = 0;
  size_t rc = 0;
  size_t si = 0;
  size_t ssi = 0;

  friend bool operator==(const AllocationCost&,
                         const AllocationCost&) = default;
};

AllocationCost ComputeAllocationCost(const Allocation& alloc,
                                     const PromoteOptions& options);

/// One committed greedy round.
struct PromotionRound {
  /// The read promoted this round, in base-workload coordinates.
  OpRef promoted;
  AllocationCost cost_after;
  size_t candidates_evaluated = 0;
};

/// The optimizer's verdict: which reads to promote, and what the optimal
/// allocation looks like before and after.
struct PromotionPlan {
  /// Chosen promotions, in base-workload coordinates.
  PromotionSet promotions;
  /// The promoted workload (empty promotions = the base workload).
  TransactionSet promoted;
  /// Algorithm 2 on the base and the promoted workload.
  Allocation before_allocation;
  Allocation after_allocation;
  AllocationCost before_cost;
  AllocationCost after_cost;
  /// after_cost.weighted < before_cost.weighted.
  bool improved = false;
  std::vector<PromotionRound> rounds;
  bool used_exhaustive = false;
  /// Search effort: Algorithm 2 runs and total Algorithm 1 invocations.
  uint64_t allocations_computed = 0;
  uint64_t robustness_checks = 0;
  /// True when CheckOptions::cancel interrupted the search; the plan is
  /// the best one found so far.
  bool cancelled = false;

  /// Target mode only (PromoteForTarget).
  bool target_mode = false;
  std::optional<Allocation> target;
  /// Whether the promoted workload is robust under `target`.
  bool target_met = false;
};

/// Budget mode: greedy witness-guided search for a promotion set of at
/// most `options.max_promotions` reads minimizing the cost of the optimal
/// allocation (Algorithm 2) of the promoted workload.
///
/// Each round probes the current optimum's frontier — for every
/// transaction above RC, the counterexample chains that appear when it is
/// lowered one step (the same obstacles ExplainAllocation reports) — and
/// collects the read legs of the rw-antidependency edges on those chains
/// as candidates; every candidate is scored by re-running Algorithm 2 on
/// the incremented promotion set, and the best strictly-improving one is
/// committed. When no single promotion improves, the exhaustive small-k
/// fallback tries subsets of the accumulated candidate pool.
///
/// The whole search runs on one RobustnessAnalyzer over a working copy of
/// the workload with the committed promotions applied. Each lowering
/// probe of the frontier is a delta FindAll against the (robust) current
/// optimum; each candidate is scored by replacing its transaction with the
/// promoted form (RobustnessAnalyzer::Replace), running Algorithm 2 on the
/// same analyzer and replacing it back, so no candidate rewrites the
/// workload or builds an analyzer. With options.check.metrics set, the
/// probes are timed as the promote.frontier phase and the Algorithm 2
/// runs as promote.evaluate.
StatusOr<PromotionPlan> OptimizePromotions(const TransactionSet& txns,
                                           const PromoteOptions& options = {});

/// Target mode: finds a small promotion set making `txns` robust under
/// the fixed `target` allocation. Greedy set cover over the witnesses:
/// each round gathers up to `witnesses_per_round` counterexample chains
/// against `target` (a full FindAll, timed as promote.frontier, on the
/// search's one RobustnessAnalyzer) and promotes the candidate read
/// hitting the most chains, replacing its transaction in place. A
/// cancelled enumeration ends the search with `cancelled` set and
/// `target_met` false. Fails with FailedPrecondition if the budget is
/// exhausted or a witness carries no promotable read leg (the workload
/// cannot be made robust under `target` by read promotion alone).
StatusOr<PromotionPlan> PromoteForTarget(const TransactionSet& txns,
                                         const Allocation& target,
                                         const PromoteOptions& options = {});

}  // namespace mvrob

#endif  // MVROB_PROMOTE_OPTIMIZER_H_
