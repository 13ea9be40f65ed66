#include "promote/optimizer.h"

#include <algorithm>
#include <map>
#include <span>
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

/// Runs the caller's probe hook, if any.
void Probe(const PromoteOptions& options) {
  if (options.on_probe) options.on_probe();
}

/// The search's working workload: the base with the committed promotions
/// applied, its index maps, and one analyzer over it that every probe of
/// the search reuses. A candidate is scored by replacing the transactions
/// it changes, running Algorithm 2 on the same analyzer and replacing them
/// back; a commit replaces them for good and updates the maps.
class Workspace {
 public:
  Workspace(const TransactionSet& base, PromotionRewrite start,
            MetricsRegistry* metrics)
      : base_(base),
        rewrite_(std::move(start)),
        analyzer_(rewrite_.promoted, metrics) {}

  const PromotionRewrite& rewrite() const { return rewrite_; }
  const RobustnessAnalyzer& analyzer() const { return analyzer_; }

  /// Sets the transactions of `reads` (ascending) to their form under
  /// `promotions`; with `commit`, their index maps too. Fails, changing
  /// nothing, if a read is not a promotable read of the base.
  Status Set(const PromotionSet& promotions, std::span<const OpRef> reads,
             bool commit) {
    for (OpRef ref : reads) {
      if (!IsPromotableRead(base_, ref)) {
        return Status::InvalidArgument(
            StrCat("not a promotable read: txn ", ref.txn, " op ", ref.index));
      }
    }
    for (size_t i = 0; i < reads.size(); ++i) {
      const TxnId t = reads[i].txn;
      if (i > 0 && reads[i - 1].txn == t) continue;
      PromotedTransaction promoted = PromoteTransaction(base_, t, promotions);
      Status replaced = analyzer_.Replace(t, std::move(promoted.ops));
      if (!replaced.ok()) return replaced;
      if (commit) {
        rewrite_.to_original[t] = std::move(promoted.to_original);
        rewrite_.from_original[t] = std::move(promoted.from_original);
      }
    }
    return Status::Ok();
  }

  /// The promoted workload; the workspace is spent afterwards.
  TransactionSet Release() { return std::move(rewrite_.promoted); }

 private:
  const TransactionSet& base_;
  PromotionRewrite rewrite_;
  RobustnessAnalyzer analyzer_;
};

/// Candidates (base coordinates) from the frontier of the current optimum:
/// for each transaction above RC, lower it and harvest the witness chains
/// that block the lowering — their rw read legs, mapped back through the
/// rewrite, are the only promotions that can change Algorithm 2's answer.
/// `cur_alloc` is Algorithm 2's optimum and hence robust, so every probe
/// is a delta enumeration over the triples through the lowered
/// transaction.
std::vector<OpRef> FrontierCandidates(const Workspace& work,
                                      const Allocation& cur_alloc,
                                      const PromotionSet& chosen,
                                      const PromoteOptions& options,
                                      PromotionPlan& plan) {
  PhaseTimer timer(options.check.metrics, "promote.frontier");
  const TransactionSet& cur = work.rewrite().promoted;
  DeltaBase base(cur_alloc);
  std::vector<OpRef> out;
  for (TxnId t = 0; t < cur.size(); ++t) {
    for (IsolationLevel lower : LevelsBelow(cur_alloc.level(t))) {
      if (Cancelled(options)) return out;
      const LevelChange change{t, lower};
      Probe(options);
      CounterexampleList found = work.analyzer().FindAll(
          base, {&change, 1}, options.witnesses_per_round, options.check);
      ++plan.robustness_checks;
      for (const CounterexampleChain& chain : found.chains) {
        for (OpRef ref : CandidatesFromChain(cur, chain)) {
          std::optional<OpRef> base_ref = work.rewrite().OriginalRef(ref);
          if (base_ref.has_value() && !chosen.Contains(*base_ref)) {
            out.push_back(*base_ref);
          }
        }
      }
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// Algorithm 2 on the analyzer's workload, timed as the promote.evaluate
/// phase; accumulates the plan's effort counters.
OptimalAllocationResult Optimum(const RobustnessAnalyzer& analyzer,
                                const PromoteOptions& options,
                                PromotionPlan& plan) {
  Probe(options);
  PhaseTimer timer(options.check.metrics, "promote.evaluate");
  OptimalAllocationResult result =
      ComputeOptimalAllocation(analyzer, options.check);
  ++plan.allocations_computed;
  plan.robustness_checks += result.robustness_checks;
  // A cancelled Algorithm 2 stops above the optimum; flag the plan rather
  // than let its cost pass for a verdict.
  if (result.cancelled) plan.cancelled = true;
  return result;
}

/// Algorithm 2 on the working workload with `chosen` and `added`
/// (ascending) promoted.
struct Evaluation {
  Allocation allocation;
  AllocationCost cost;
};

StatusOr<Evaluation> Evaluate(Workspace& work, const PromotionSet& chosen,
                              std::span<const OpRef> added,
                              const PromoteOptions& options,
                              PromotionPlan& plan) {
  PromotionSet trial = chosen;
  for (OpRef ref : added) trial.Add(ref);
  Status applied = work.Set(trial, added, false);
  if (!applied.ok()) return applied;
  Evaluation eval;
  eval.allocation = Optimum(work.analyzer(), options, plan).allocation;
  eval.cost = ComputeAllocationCost(eval.allocation, options);
  Status restored = work.Set(chosen, added, false);
  if (!restored.ok()) return restored;
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

std::optional<ExhaustiveHit> ExhaustiveSearch(Workspace& work,
                                              const PromotionSet& chosen,
                                              const std::vector<OpRef>& pool,
                                              size_t max_k,
                                              const AllocationCost& to_beat,
                                              const PromoteOptions& options,
                                              PromotionPlan& plan) {
  std::optional<ExhaustiveHit> best;
  size_t evaluated = 0;
  max_k = std::min(max_k, pool.size());
  std::vector<OpRef> subset;
  for (size_t k = 1; k <= max_k; ++k) {
    std::vector<size_t> idx(k);
    for (size_t i = 0; i < k; ++i) idx[i] = i;
    while (true) {
      if (evaluated >= kExhaustiveBudget || Cancelled(options)) {
        if (best.has_value()) best->evaluated = evaluated;
        return best;
      }
      subset.clear();
      for (size_t i : idx) subset.push_back(pool[i]);
      StatusOr<Evaluation> eval =
          Evaluate(work, chosen, subset, options, plan);
      ++evaluated;
      if (eval.ok() && !Cancelled(options)) {
        int64_t bar = best.has_value() ? best->eval.cost.weighted
                                       : to_beat.weighted;
        if (eval->cost.weighted < bar) {
          best = ExhaustiveHit{subset, std::move(*eval), 0};
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

void FillPlanResult(PromotionPlan& plan, Workspace& work,
                    Evaluation&& eval) {
  plan.promoted = work.Release();
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
  StatusOr<PromotionRewrite> start = ApplyPromotions(txns, PromotionSet{});
  if (!start.ok()) return start.status();
  Workspace work(txns, std::move(*start), options.check.metrics);
  PromotionPlan plan;
  StatusOr<Evaluation> base = Evaluate(work, plan.promotions, {}, options, plan);
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
        work, current.allocation, plan.promotions, options, plan);
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
    for (const OpRef& candidate : candidates) {
      if (Cancelled(options)) break;
      StatusOr<Evaluation> eval =
          Evaluate(work, plan.promotions, {&candidate, 1}, options, plan);
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
    Status committed = work.Set(plan.promotions, {&*best_read, 1}, true);
    if (!committed.ok()) return committed;
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
        ExhaustiveSearch(work, plan.promotions, pool, remaining,
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
      Status committed = work.Set(plan.promotions, hit->subset, true);
      if (!committed.ok()) return committed;
      current = std::move(hit->eval);
    }
  }

  FillPlanResult(plan, work, std::move(current));
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
  StatusOr<PromotionRewrite> start = ApplyPromotions(txns, PromotionSet{});
  if (!start.ok()) return start.status();
  Workspace work(txns, std::move(*start), options.check.metrics);
  PromotionPlan plan;
  plan.target_mode = true;
  plan.target = target;
  // Baseline and "before" framing: Algorithm 2 on the unpromoted workload.
  OptimalAllocationResult base = Optimum(work.analyzer(), options, plan);
  plan.before_allocation = base.allocation;
  plan.before_cost = ComputeAllocationCost(base.allocation, options);

  while (true) {
    if (Cancelled(options)) {
      plan.cancelled = true;
      break;
    }
    CounterexampleList found;
    {
      PhaseTimer timer(options.check.metrics, "promote.frontier");
      Probe(options);
      found = work.analyzer().FindAll(target, options.witnesses_per_round,
                                      options.check);
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
      for (OpRef ref : CandidatesFromChain(work.rewrite().promoted, chain)) {
        std::optional<OpRef> base_ref = work.rewrite().OriginalRef(ref);
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
    Status committed = work.Set(plan.promotions, {&best, 1}, true);
    if (!committed.ok()) return committed;
    plan.rounds.push_back(PromotionRound{
        best, ComputeAllocationCost(target, options), hits.size()});
  }

  // Report the promoted workload's own optimum as the "after" allocation —
  // it is never above the target when the target was met.
  OptimalAllocationResult after = Optimum(work.analyzer(), options, plan);
  plan.promoted = work.Release();
  plan.after_allocation = std::move(after.allocation);
  plan.after_cost = ComputeAllocationCost(plan.after_allocation, options);
  plan.improved = plan.after_cost.weighted < plan.before_cost.weighted;
  return plan;
}

}  // namespace mvrob
