// The promotion search scores each candidate on one working analyzer
// (replace the candidate's transactions, run Algorithm 2, replace them
// back). This test keeps a copy of the search as it was before, which
// rewrote the whole workload and built a fresh analyzer per candidate,
// and requires every PromotionPlan field to be equal: on the library
// workloads and 20 random synthetics, at budgets 1, 3 and 8, at 1 and 4
// threads, in budget mode and in target mode, and with a cancel raised at
// every probe (an Algorithm 2 run or a witness enumeration). A cancelled
// plan must be flagged and its allocation robust for its promoted set.
#include <atomic>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/string_util.h"
#include "core/analyzer.h"
#include "core/optimal_allocation.h"
#include "core/robustness.h"
#include "promote/optimizer.h"
#include "promote/promotion.h"
#include "workloads/registry.h"
#include "workloads/workload.h"

namespace mvrob {
namespace {

// ---------------------------------------------------------------------------
// The rewrite-and-rebuild search, probe hook included.
// ---------------------------------------------------------------------------

void Probe(const PromoteOptions& options) {
  if (options.on_probe) options.on_probe();
}

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
  DeltaBase base(cur_alloc);
  std::vector<OpRef> out;
  for (TxnId t = 0; t < cur.size(); ++t) {
    for (IsolationLevel lower : LevelsBelow(cur_alloc.level(t))) {
      if (Cancelled(options)) return out;
      const LevelChange change{t, lower};
      Probe(options);
      CounterexampleList found = analyzer.FindAll(
          base, {&change, 1}, options.witnesses_per_round, options.check);
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
  Probe(options);
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

StatusOr<PromotionPlan> ReferenceOptimizePromotions(const TransactionSet& txns,
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

StatusOr<PromotionPlan> ReferencePromoteForTarget(const TransactionSet& txns,
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
      Probe(options);
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


// ---------------------------------------------------------------------------
// Plan equality.
// ---------------------------------------------------------------------------

void ExpectSamePlan(const PromotionPlan& want, const PromotionPlan& got) {
  EXPECT_EQ(want.promotions.reads(), got.promotions.reads());
  EXPECT_EQ(want.promoted.ToString(), got.promoted.ToString());
  EXPECT_EQ(want.promoted.num_objects(), got.promoted.num_objects());
  EXPECT_EQ(want.before_allocation, got.before_allocation);
  EXPECT_EQ(want.after_allocation, got.after_allocation);
  EXPECT_EQ(want.before_cost, got.before_cost);
  EXPECT_EQ(want.after_cost, got.after_cost);
  EXPECT_EQ(want.improved, got.improved);
  ASSERT_EQ(want.rounds.size(), got.rounds.size());
  for (size_t i = 0; i < want.rounds.size(); ++i) {
    EXPECT_EQ(want.rounds[i].promoted, got.rounds[i].promoted) << i;
    EXPECT_EQ(want.rounds[i].cost_after, got.rounds[i].cost_after) << i;
    EXPECT_EQ(want.rounds[i].candidates_evaluated,
              got.rounds[i].candidates_evaluated)
        << i;
  }
  EXPECT_EQ(want.used_exhaustive, got.used_exhaustive);
  EXPECT_EQ(want.allocations_computed, got.allocations_computed);
  EXPECT_EQ(want.robustness_checks, got.robustness_checks);
  EXPECT_EQ(want.cancelled, got.cancelled);
  EXPECT_EQ(want.target_mode, got.target_mode);
  EXPECT_EQ(want.target, got.target);
  EXPECT_EQ(want.target_met, got.target_met);
}

void ExpectSameOutcome(const StatusOr<PromotionPlan>& want,
                       const StatusOr<PromotionPlan>& got) {
  ASSERT_EQ(want.ok(), got.ok()) << (want.ok() ? got.status().ToString()
                                               : want.status().ToString());
  if (!want.ok()) {
    EXPECT_EQ(want.status().ToString(), got.status().ToString());
    return;
  }
  ExpectSamePlan(*want, *got);
}

TransactionSet NamedTxns(const std::string& spec) {
  StatusOr<Workload> workload = MakeNamedWorkload(spec);
  EXPECT_TRUE(workload.ok()) << workload.status();
  return std::move(workload->txns);
}

std::vector<std::string> LibrarySpecs() {
  return {"smallbank:c=4", "tpcc:w=1,d=2", "auction", "voter:c=2,p=2"};
}

std::vector<std::string> SyntheticSpecs() {
  std::vector<std::string> specs;
  for (int seed = 1; seed <= 20; ++seed) {
    specs.push_back(StrCat("synthetic:n=", 6 + seed % 7, ",o=", 4 + seed % 5,
                           ",w=40,h=30,seed=", seed));
  }
  return specs;
}

// The targets target mode is run against: every transaction at SI, and
// the unpromoted optimum with its SSI transactions lowered to SI.
std::vector<Allocation> Targets(const TransactionSet& txns) {
  Allocation lowered = ComputeOptimalAllocation(txns).allocation;
  for (TxnId t = 0; t < txns.size(); ++t) {
    if (lowered.level(t) == IsolationLevel::kSSI) {
      lowered.set_level(t, IsolationLevel::kSI);
    }
  }
  return {Allocation::AllSI(txns.size()), lowered};
}

// What the compared plans covered.
struct Coverage {
  int improved = 0;
  int exhaustive = 0;
  int target_met = 0;
  int failed = 0;

  void Count(const StatusOr<PromotionPlan>& plan) {
    if (!plan.ok()) {
      ++failed;
      return;
    }
    improved += plan->improved;
    exhaustive += plan->used_exhaustive;
    target_met += plan->target_met;
  }
};

void CompareEverySetting(const std::string& spec, Coverage& coverage) {
  SCOPED_TRACE(spec);
  const TransactionSet txns = NamedTxns(spec);
  for (int budget : {1, 3, 8}) {
    for (int threads : {1, 4}) {
      SCOPED_TRACE(StrCat("budget ", budget, " threads ", threads));
      PromoteOptions options;
      options.max_promotions = budget;
      options.check.num_threads = threads;
      const StatusOr<PromotionPlan> plan = OptimizePromotions(txns, options);
      ExpectSameOutcome(ReferenceOptimizePromotions(txns, options), plan);
      coverage.Count(plan);
      for (const Allocation& target : Targets(txns)) {
        SCOPED_TRACE(StrCat("target ", target.ToString(txns)));
        const StatusOr<PromotionPlan> met =
            PromoteForTarget(txns, target, options);
        ExpectSameOutcome(ReferencePromoteForTarget(txns, target, options),
                          met);
        coverage.Count(met);
      }
    }
  }
}

TEST(PromotionReferenceTest, LibraryPlansMatchRewriteAndRebuild) {
  Coverage coverage;
  for (const std::string& spec : LibrarySpecs()) {
    CompareEverySetting(spec, coverage);
  }
  EXPECT_GT(coverage.improved, 0);
  EXPECT_GT(coverage.target_met, 0);
}

TEST(PromotionReferenceTest, SyntheticPlansMatchRewriteAndRebuild) {
  Coverage coverage;
  for (const std::string& spec : SyntheticSpecs()) {
    CompareEverySetting(spec, coverage);
  }
  EXPECT_GT(coverage.improved, 0);
  EXPECT_GT(coverage.exhaustive, 0);
  EXPECT_GT(coverage.target_met, 0);
  EXPECT_GT(coverage.failed, 0);
}

// Runs `search` with a cancel raised at probe `cancel_at` (never when
// negative); returns the outcome and the number of probes seen.
template <typename Search>
std::pair<StatusOr<PromotionPlan>, int> RunCancelledAt(int cancel_at,
                                                       Search search,
                                                       PromoteOptions options) {
  std::atomic<bool> cancel{false};
  int probes = 0;
  options.check.cancel = &cancel;
  options.on_probe = [&] {
    if (probes++ == cancel_at) cancel.store(true);
  };
  StatusOr<PromotionPlan> plan = search(options);
  return {std::move(plan), probes};
}

void ExpectCancelledPlansMatch(const std::function<StatusOr<PromotionPlan>(
                                   const PromoteOptions&)>& reference,
                               const std::function<StatusOr<PromotionPlan>(
                                   const PromoteOptions&)>& search) {
  PromoteOptions options;
  options.max_promotions = 3;
  const int probes = RunCancelledAt(-1, search, options).second;
  ASSERT_GT(probes, 0);
  for (int k = 0; k < probes; ++k) {
    SCOPED_TRACE(StrCat("cancelled at probe ", k, " of ", probes));
    auto [want, want_probes] = RunCancelledAt(k, reference, options);
    auto [got, got_probes] = RunCancelledAt(k, search, options);
    EXPECT_EQ(want_probes, got_probes);
    ExpectSameOutcome(want, got);
    if (!got.ok()) continue;
    EXPECT_TRUE(got->cancelled);
    EXPECT_TRUE(
        CheckRobustness(got->promoted, got->after_allocation, {}).robust);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(PromotionReferenceTest, CancelAtEveryProbeMatchesAndStaysRobust) {
  std::vector<std::string> specs = {"smallbank:c=2", "tpcc:w=1,d=1",
                                    "auction:i=2,b=2", "voter:c=2,p=2"};
  for (int i = 0; i < 4; ++i) specs.push_back(SyntheticSpecs()[i]);
  for (const std::string& spec : specs) {
    SCOPED_TRACE(spec);
    const TransactionSet txns = NamedTxns(spec);
    ExpectCancelledPlansMatch(
        [&](const PromoteOptions& o) {
          return ReferenceOptimizePromotions(txns, o);
        },
        [&](const PromoteOptions& o) { return OptimizePromotions(txns, o); });
    for (const Allocation& target : Targets(txns)) {
      ExpectCancelledPlansMatch(
          [&](const PromoteOptions& o) {
            return ReferencePromoteForTarget(txns, target, o);
          },
          [&](const PromoteOptions& o) {
            return PromoteForTarget(txns, target, o);
          });
    }
    if (HasFailure()) return;
  }
}

}  // namespace
}  // namespace mvrob
