#include "promote/optimizer.h"

#include <algorithm>
#include <map>
#include <utility>

#include "common/metrics.h"
#include "common/string_util.h"
#include "core/analyzer.h"

namespace mvrob {

AllocationCost ComputeAllocationCost(const Allocation& alloc,
                                     const PromoteOptions& options) {
  AllocationCost cost;
  cost.rc = alloc.CountAt(IsolationLevel::kRC);
  cost.si = alloc.CountAt(IsolationLevel::kSI);
  cost.ssi = alloc.CountAt(IsolationLevel::kSSI);
  cost.weighted = static_cast<int64_t>(cost.si) * options.weight_si +
                  static_cast<int64_t>(cost.ssi) * options.weight_ssi;
  return cost;
}

namespace {

bool Cancelled(const PromoteOptions& options) {
  return options.check.cancel != nullptr &&
         options.check.cancel->load(std::memory_order_relaxed);
}

/// Levels strictly below `level`, cheapest first.
std::vector<IsolationLevel> LevelsBelow(IsolationLevel level) {
  switch (level) {
    case IsolationLevel::kSSI:
      return {IsolationLevel::kRC, IsolationLevel::kSI};
    case IsolationLevel::kSI:
      return {IsolationLevel::kRC};
    case IsolationLevel::kRC:
      return {};
  }
  return {};
}

/// Candidates (base coordinates) from the frontier of the current optimum:
/// for each transaction above RC, lower it and harvest the witness chains
/// that block the lowering — their rw read legs, mapped back through the
/// rewrite, are the only promotions that can change Algorithm 2's answer.
/// `cur_alloc` is Algorithm 2's optimum and hence robust, so every probe
/// is a delta enumeration over the triples through the lowered
/// transaction.
std::vector<OpRef> FrontierCandidates(const PromotionRewrite& rewrite,
                                      const Allocation& cur_alloc,
                                      const PromotionSet& chosen,
                                      const PromoteOptions& options,
                                      PromotionPlan& plan) {
  PhaseTimer timer(options.check.metrics, "promote.frontier");
  const TransactionSet& cur = rewrite.promoted;
  const RobustnessAnalyzer analyzer(cur, options.check.metrics);
  std::vector<OpRef> out;
  for (TxnId t = 0; t < cur.size(); ++t) {
    for (IsolationLevel lower : LevelsBelow(cur_alloc.level(t))) {
      if (Cancelled(options)) return out;
      CounterexampleList found =
          analyzer.FindAll(cur_alloc, cur_alloc.With(t, lower),
                           options.witnesses_per_round, options.check);
      ++plan.robustness_checks;
      for (const CounterexampleChain& chain : found.chains) {
        for (OpRef ref : CandidatesFromChain(cur, chain)) {
          std::optional<OpRef> base = rewrite.OriginalRef(ref);
          if (base.has_value() && !chosen.Contains(*base)) {
            out.push_back(*base);
          }
        }
      }
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// Algorithm 2 on `txns`, timed as the promote.evaluate phase; accumulates
/// the plan's effort counters.
OptimalAllocationResult Optimum(const TransactionSet& txns,
                                const PromoteOptions& options,
                                PromotionPlan& plan) {
  PhaseTimer timer(options.check.metrics, "promote.evaluate");
  OptimalAllocationResult result =
      ComputeOptimalAllocation(txns, options.check);
  ++plan.allocations_computed;
  plan.robustness_checks += result.robustness_checks;
  // A cancelled Algorithm 2 stops above the optimum; flag the plan rather
  // than let its cost pass for a verdict.
  if (result.cancelled) plan.cancelled = true;
  return result;
}

/// Algorithm 2 on `txns` with `set` applied.
struct Evaluation {
  PromotionRewrite rewrite;
  Allocation allocation;
  AllocationCost cost;
};

StatusOr<Evaluation> Evaluate(const TransactionSet& txns,
                              const PromotionSet& set,
                              const PromoteOptions& options,
                              PromotionPlan& plan) {
  StatusOr<PromotionRewrite> rewrite = ApplyPromotions(txns, set);
  if (!rewrite.ok()) return rewrite.status();
  Evaluation eval;
  eval.rewrite = std::move(*rewrite);
  eval.allocation = Optimum(eval.rewrite.promoted, options, plan).allocation;
  eval.cost = ComputeAllocationCost(eval.allocation, options);
  return eval;
}

/// Exhaustive small-k fallback: tries subsets of `pool` (sizes 1..max_k,
/// ascending, lexicographic within a size) on top of `chosen`, bounded by
/// kExhaustiveBudget Algorithm 2 evaluations. Returns the best
/// strictly-improving evaluation and its subset, if any.
struct ExhaustiveHit {
  std::vector<OpRef> subset;
  Evaluation eval;
  size_t evaluated = 0;
};

std::optional<ExhaustiveHit> ExhaustiveSearch(const TransactionSet& txns,
                                              const PromotionSet& chosen,
                                              const std::vector<OpRef>& pool,
                                              size_t max_k,
                                              const AllocationCost& to_beat,
                                              const PromoteOptions& options,
                                              PromotionPlan& plan) {
  std::optional<ExhaustiveHit> best;
  size_t evaluated = 0;
  max_k = std::min(max_k, pool.size());
  for (size_t k = 1; k <= max_k; ++k) {
    std::vector<size_t> idx(k);
    for (size_t i = 0; i < k; ++i) idx[i] = i;
    while (true) {
      if (evaluated >= kExhaustiveBudget || Cancelled(options)) {
        if (best.has_value()) best->evaluated = evaluated;
        return best;
      }
      PromotionSet trial = chosen;
      for (size_t i : idx) trial.Add(pool[i]);
      StatusOr<Evaluation> eval = Evaluate(txns, trial, options, plan);
      ++evaluated;
      if (eval.ok() && !Cancelled(options)) {
        int64_t bar = best.has_value() ? best->eval.cost.weighted
                                       : to_beat.weighted;
        if (eval->cost.weighted < bar) {
          ExhaustiveHit hit;
          for (size_t i : idx) hit.subset.push_back(pool[i]);
          hit.eval = std::move(*eval);
          best = std::move(hit);
        }
      }
      // Next k-combination of pool indices.
      size_t pos = k;
      while (pos > 0 && idx[pos - 1] == pool.size() - (k - (pos - 1))) --pos;
      if (pos == 0) break;
      ++idx[pos - 1];
      for (size_t i = pos; i < k; ++i) idx[i] = idx[i - 1] + 1;
    }
    // A strictly-improving subset of size k is good enough: promotions
    // are a cost too, so do not look for bigger subsets once one works.
    if (best.has_value()) break;
  }
  if (best.has_value()) best->evaluated = evaluated;
  return best;
}

void FillPlanResult(PromotionPlan& plan, Evaluation&& eval) {
  plan.promoted = std::move(eval.rewrite.promoted);
  plan.after_allocation = std::move(eval.allocation);
  plan.after_cost = eval.cost;
  plan.improved = plan.after_cost.weighted < plan.before_cost.weighted;
}

}  // namespace

StatusOr<PromotionPlan> OptimizePromotions(const TransactionSet& txns,
                                           const PromoteOptions& options) {
  if (txns.size() == 0) {
    return Status::InvalidArgument("promotion needs at least one transaction");
  }
  if (options.max_promotions < 0) {
    return Status::InvalidArgument("max_promotions must be >= 0");
  }
  PromotionPlan plan;
  StatusOr<Evaluation> base = Evaluate(txns, plan.promotions, options, plan);
  if (!base.ok()) return base.status();
  plan.before_allocation = base->allocation;
  plan.before_cost = base->cost;
  Evaluation current = std::move(*base);
  std::vector<OpRef> pool;  // Every frontier candidate seen, base coords.

  while (static_cast<int>(plan.promotions.size()) < options.max_promotions) {
    if (Cancelled(options)) {
      plan.cancelled = true;
      break;
    }
    if (current.cost.weighted == 0) break;  // A_RC: nothing left to win.
    std::vector<OpRef> candidates = FrontierCandidates(
        current.rewrite, current.allocation, plan.promotions, options, plan);
    if (Cancelled(options)) {
      plan.cancelled = true;
      break;
    }
    pool.insert(pool.end(), candidates.begin(), candidates.end());
    if (candidates.size() > kMaxCandidatesPerRound) {
      candidates.resize(kMaxCandidatesPerRound);
    }
    std::optional<OpRef> best_read;
    std::optional<Evaluation> best_eval;
    size_t evaluated = 0;
    for (OpRef candidate : candidates) {
      if (Cancelled(options)) break;
      PromotionSet trial = plan.promotions;
      trial.Add(candidate);
      StatusOr<Evaluation> eval = Evaluate(txns, trial, options, plan);
      ++evaluated;
      if (!eval.ok() || Cancelled(options)) continue;
      int64_t bar = best_eval.has_value() ? best_eval->cost.weighted
                                          : current.cost.weighted;
      if (eval->cost.weighted < bar) {
        best_read = candidate;
        best_eval = std::move(*eval);
      }
    }
    if (Cancelled(options)) {
      plan.cancelled = true;
      break;
    }
    if (!best_read.has_value()) break;  // Greedy stalled.
    plan.promotions.Add(*best_read);
    plan.rounds.push_back(
        PromotionRound{*best_read, best_eval->cost, evaluated});
    current = std::move(*best_eval);
  }

  // Greedy stalled (or the budget is > 1 promotion wide): exhaustively try
  // small subsets of everything the witnesses ever pointed at.
  size_t remaining = options.max_promotions > 0
                         ? static_cast<size_t>(options.max_promotions) -
                               plan.promotions.size()
                         : 0;
  if (!plan.cancelled && remaining >= 2 &&
      current.cost.weighted > 0) {
    std::sort(pool.begin(), pool.end());
    pool.erase(std::unique(pool.begin(), pool.end()), pool.end());
    std::erase_if(pool,
                  [&](OpRef r) { return plan.promotions.Contains(r); });
    std::optional<ExhaustiveHit> hit =
        ExhaustiveSearch(txns, plan.promotions, pool, remaining,
                         current.cost, options, plan);
    if (Cancelled(options)) plan.cancelled = true;
    if (hit.has_value()) {
      plan.used_exhaustive = true;
      for (OpRef read : hit->subset) {
        plan.promotions.Add(read);
        plan.rounds.push_back(
            PromotionRound{read, hit->eval.cost, hit->evaluated});
        hit->evaluated = 0;  // Attribute the effort to the first round.
      }
      current = std::move(hit->eval);
    }
  }

  FillPlanResult(plan, std::move(current));
  return plan;
}

StatusOr<PromotionPlan> PromoteForTarget(const TransactionSet& txns,
                                         const Allocation& target,
                                         const PromoteOptions& options) {
  if (target.size() != txns.size()) {
    return Status::InvalidArgument(
        StrCat("target allocation has ", target.size(), " levels for ",
               txns.size(), " transactions"));
  }
  PromotionPlan plan;
  plan.target_mode = true;
  plan.target = target;
  // Baseline and "before" framing: Algorithm 2 on the unpromoted workload.
  OptimalAllocationResult base = Optimum(txns, options, plan);
  plan.before_allocation = base.allocation;
  plan.before_cost = ComputeAllocationCost(base.allocation, options);

  StatusOr<PromotionRewrite> rewrite = ApplyPromotions(txns, plan.promotions);
  if (!rewrite.ok()) return rewrite.status();
  PromotionRewrite current = std::move(*rewrite);

  while (true) {
    if (Cancelled(options)) {
      plan.cancelled = true;
      break;
    }
    CounterexampleList found;
    {
      PhaseTimer timer(options.check.metrics, "promote.frontier");
      found = RobustnessAnalyzer(current.promoted, options.check.metrics)
                  .FindAll(target, options.witnesses_per_round, options.check);
    }
    ++plan.robustness_checks;
    if (found.cancelled) {
      // An interrupted scan returns an empty chain list without the
      // workload being robust — never read it as success.
      plan.cancelled = true;
      break;
    }
    const std::vector<CounterexampleChain>& chains = found.chains;
    if (chains.empty()) {
      plan.target_met = true;
      break;
    }
    if (static_cast<int>(plan.promotions.size()) >= options.max_promotions) {
      return Status::FailedPrecondition(
          StrCat("promotion budget of ", options.max_promotions,
                 " exhausted with the workload still not robust under the "
                 "target allocation (",
                 chains.size(), " witness(es) remain)"));
    }
    // Greedy set cover: promote the read that kills the most witnesses.
    std::map<OpRef, size_t> hits;
    for (const CounterexampleChain& chain : chains) {
      for (OpRef ref : CandidatesFromChain(current.promoted, chain)) {
        std::optional<OpRef> base_ref = current.OriginalRef(ref);
        if (base_ref.has_value() && !plan.promotions.Contains(*base_ref)) {
          ++hits[*base_ref];
        }
      }
    }
    if (hits.empty()) {
      return Status::FailedPrecondition(
          "a witness against the target allocation carries no promotable "
          "read leg; read promotion alone cannot make this workload robust "
          "under the target");
    }
    OpRef best = hits.begin()->first;  // Ties break to the smallest ref.
    for (const auto& [ref, count] : hits) {
      if (count > hits[best]) best = ref;
    }
    plan.promotions.Add(best);
    StatusOr<PromotionRewrite> next = ApplyPromotions(txns, plan.promotions);
    if (!next.ok()) return next.status();
    current = std::move(*next);
    plan.rounds.push_back(PromotionRound{
        best, ComputeAllocationCost(target, options), hits.size()});
  }

  // Report the promoted workload's own optimum as the "after" allocation —
  // it is never above the target when the target was met.
  OptimalAllocationResult after = Optimum(current.promoted, options, plan);
  plan.promoted = std::move(current.promoted);
  plan.after_allocation = std::move(after.allocation);
  plan.after_cost = ComputeAllocationCost(plan.after_allocation, options);
  plan.improved = plan.after_cost.weighted < plan.before_cost.weighted;
  return plan;
}

}  // namespace mvrob
