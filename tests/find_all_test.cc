// Differential tests for witness enumeration on the bitset analyzer.
//
//  - RobustnessAnalyzer::FindAll, full and delta, equals the reference
//    enumeration (oracle/counterexamples.h) chain for chain, order
//    included, at limits {1, 16, unlimited} and 1 and 4 threads, over the
//    delta-check corpus: random sets, the paper's examples and the named
//    workloads.
//  - ExplainAllocation equals a test-local loop over the reference
//    checker.
//  - OptimizePromotions and PromoteForTarget produce the plans of a
//    test-local copy of the promotion search whose frontier runs on the
//    reference enumeration.
//  - A raised cancel flag is reported, never read as "robust".
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "core/analyzer.h"
#include "core/explain.h"
#include "core/optimal_allocation.h"
#include "fixtures.h"
#include "oracle/counterexamples.h"
#include "oracle/reference_checker.h"
#include "promote/export.h"
#include "promote/optimizer.h"
#include "promote/promotion.h"
#include "workloads/registry.h"

namespace mvrob {
namespace {

// Force real background workers (before anything builds the shared pool)
// so the 4-thread enumerations genuinely run in parallel on any host.
const bool kPoolForced = [] {
  setenv("MVROB_POOL_WORKERS", "3", /*overwrite=*/0);
  return true;
}();

constexpr int kThreadCounts[] = {1, 4};
constexpr size_t kUnlimited = std::numeric_limits<size_t>::max();
constexpr size_t kLimits[] = {1, 16, kUnlimited};

::testing::AssertionResult SameChains(
    const std::vector<CounterexampleChain>& expected,
    const std::vector<CounterexampleChain>& actual) {
  if (expected.size() != actual.size()) {
    return ::testing::AssertionFailure()
           << expected.size() << " chains expected, " << actual.size()
           << " found";
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    const CounterexampleChain& a = expected[i];
    const CounterexampleChain& b = actual[i];
    if (a.t1 != b.t1 || a.t2 != b.t2 || a.tm != b.tm || a.b1 != b.b1 ||
        a.a1 != b.a1 || a.a2 != b.a2 || a.bm != b.bm || a.inner != b.inner) {
      return ::testing::AssertionFailure()
             << "chain " << i << " differs: expected (" << a.t1 << "," << a.t2
             << "," << a.tm << ", " << a.inner.size() << " inner), found ("
             << b.t1 << "," << b.t2 << "," << b.tm << ", " << b.inner.size()
             << " inner)";
    }
  }
  return ::testing::AssertionSuccess();
}

std::vector<CounterexampleChain> Prefix(
    const std::vector<CounterexampleChain>& chains, size_t limit) {
  return {chains.begin(),
          chains.begin() + static_cast<std::ptrdiff_t>(
                               std::min(limit, chains.size()))};
}

// Enumerations compared by this test process; reported when it ends.
uint64_t g_compared = 0;

class ComparisonReport : public ::testing::Environment {
 public:
  void TearDown() override {
    std::cout << "[find_all] " << g_compared
              << " FindAll/reference enumeration comparisons\n";
  }
};
const ::testing::Environment* const kReport =
    ::testing::AddGlobalTestEnvironment(new ComparisonReport);

// FindAll(candidate), and FindAll(base, candidate) when `base` is given
// (it must be robust), against the reference enumeration at every limit
// and thread count.
void ExpectEnumerationsMatch(const RobustnessAnalyzer& analyzer,
                             const std::optional<Allocation>& base,
                             const Allocation& candidate) {
  const TransactionSet& txns = analyzer.txns();
  const std::vector<CounterexampleChain> reference =
      FindAllCounterexamples(txns, candidate, kUnlimited);
  for (int threads : kThreadCounts) {
    CheckOptions options;
    options.num_threads = threads;
    for (size_t limit : kLimits) {
      const std::vector<CounterexampleChain> expected =
          Prefix(reference, limit);
      CounterexampleList full = analyzer.FindAll(candidate, limit, options);
      EXPECT_FALSE(full.cancelled);
      EXPECT_TRUE(SameChains(expected, full.chains))
          << "full, threads " << threads << ", limit " << limit << ", "
          << candidate.ToString(txns) << "\n"
          << txns.ToString();
      ++g_compared;
      if (!base.has_value()) continue;
      CounterexampleList delta =
          analyzer.FindAll(*base, candidate, limit, options);
      EXPECT_FALSE(delta.cancelled);
      EXPECT_TRUE(SameChains(expected, delta.chains))
          << "delta, threads " << threads << ", limit " << limit << ", base "
          << base->ToString(txns) << ", candidate "
          << candidate.ToString(txns) << "\n"
          << txns.ToString();
      ++g_compared;
    }
  }
}

// The homogeneous allocations, the optimum, random allocations, every
// one-step lowering of the optimum (the promotion frontier's probes), and
// random re-levelings of randomly raised robust bases.
void CheckEnumerations(const TransactionSet& txns, uint64_t seed) {
  SCOPED_TRACE(txns.ToString());
  const RobustnessAnalyzer analyzer(txns);
  const size_t n = txns.size();
  Rng rng(seed * 2654435761u + 17);
  auto random_allocation = [&] {
    std::vector<IsolationLevel> levels;
    for (size_t t = 0; t < n; ++t) {
      levels.push_back(kAllIsolationLevels[rng.Index(3)]);
    }
    return Allocation(std::move(levels));
  };
  const Allocation optimum = ComputeOptimalAllocation(analyzer).allocation;
  for (const Allocation& alloc :
       {Allocation::AllRC(n), Allocation::AllSI(n), Allocation::AllSSI(n),
        optimum, random_allocation(), random_allocation()}) {
    ExpectEnumerationsMatch(analyzer, std::nullopt, alloc);
  }
  for (TxnId t = 0; t < n; ++t) {
    for (IsolationLevel lower : kAllIsolationLevels) {
      if (!(lower < optimum.level(t))) break;
      ExpectEnumerationsMatch(analyzer, optimum, optimum.With(t, lower));
    }
  }
  for (int round = 0; round < 3; ++round) {
    Allocation base = optimum;
    for (TxnId t = 0; t < n; ++t) {
      IsolationLevel level = kAllIsolationLevels[rng.Index(3)];
      if (base.level(t) < level) base.set_level(t, level);
    }
    Allocation candidate = base;
    const size_t changes = 1 + rng.Index(3);
    for (size_t c = 0; c < changes; ++c) {
      candidate.set_level(static_cast<TxnId>(rng.Index(n)),
                          kAllIsolationLevels[rng.Index(3)]);
    }
    ExpectEnumerationsMatch(analyzer, base, candidate);
  }
}

constexpr uint64_t kSetsPerChunk = 50;
constexpr uint64_t kChunks = 21;  // The delta-check corpus's 1050 sets.

class FindAllSyntheticTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FindAllSyntheticTest, EnumerationsEqualReference) {
  for (uint64_t i = 0; i < kSetsPerChunk; ++i) {
    const uint64_t seed = GetParam() * kSetsPerChunk + i;
    CheckEnumerations(DeltaCorpusSet(seed), seed);
    if (HasFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Chunks, FindAllSyntheticTest,
                         ::testing::Range<uint64_t>(0, kChunks));

TransactionSet Named(const std::string& spec) {
  StatusOr<Workload> workload = MakeNamedWorkload(spec);
  EXPECT_TRUE(workload.ok()) << spec << ": " << workload.status();
  return workload.ok() ? std::move(workload->txns) : TransactionSet();
}

const char* const kNamedWorkloads[] = {
    "smallbank:c=4", "tpcc:w=1,d=2", "auction",
    "ycsb:a,n=24",   "voter",        "synthetic:n=16,o=6,w=50,h=40"};

TEST(FindAllCorpusTest, PaperExamplesAndNamedWorkloads) {
  CheckEnumerations(Figure2Txns(), 1);
  CheckEnumerations(Example26Txns(), 2);
  CheckEnumerations(Example52Txns(), 3);
  uint64_t seed = 4;
  for (const char* spec : kNamedWorkloads) {
    SCOPED_TRACE(spec);
    CheckEnumerations(Named(spec), seed++);
  }
}

// A raised cancel flag marks both forms cancelled with no chains, at every
// thread count: an empty list never passes for "robust".
TEST(FindAllCorpusTest, CancelledEnumerationSaysSo) {
  const TransactionSet txns = Named("smallbank:c=4");
  const size_t n = txns.size();
  const RobustnessAnalyzer analyzer(txns);
  std::atomic<bool> cancel{true};
  for (int threads : kThreadCounts) {
    CheckOptions options;
    options.num_threads = threads;
    options.cancel = &cancel;
    const Allocation base = Allocation::AllSSI(n);
    for (const Allocation& candidate :
         {base.With(0, IsolationLevel::kRC), Allocation::AllRC(n)}) {
      CounterexampleList full = analyzer.FindAll(candidate, 16, options);
      EXPECT_TRUE(full.cancelled);
      EXPECT_TRUE(full.chains.empty());
      CounterexampleList delta =
          analyzer.FindAll(base, candidate, 16, options);
      EXPECT_TRUE(delta.cancelled);
      EXPECT_TRUE(delta.chains.empty());
    }
  }
}

// ---- ExplainAllocation against the reference checker. ----

// The explanation as a loop over the reference CheckRobustness.
StatusOr<AllocationExplanation> ReferenceExplanation(
    const TransactionSet& txns, const Allocation& allocation) {
  if (RobustnessResult base = CheckRobustness(txns, allocation);
      !base.robust) {
    const CounterexampleChain& chain = *base.counterexample;
    std::string members;
    for (TxnId t : chain.ChainTxns()) {
      if (!members.empty()) members += ", ";
      members += txns.txn(t).name();
    }
    return Status::FailedPrecondition(StrCat(
        "the allocation is not robust; nothing to explain. ",
        txns.txn(chain.t1).name(), " at ",
        IsolationLevelToString(allocation.level(chain.t1)),
        " splits the chain [", members, "]: ", chain.ToString(txns)));
  }
  AllocationExplanation explanation;
  explanation.allocation = allocation;
  for (TxnId t = 0; t < txns.size(); ++t) {
    AllocationObstacle entry;
    entry.txn = t;
    entry.assigned = allocation.level(t);
    for (IsolationLevel lower : kAllIsolationLevels) {
      if (!(lower < entry.assigned)) continue;
      RobustnessResult result =
          CheckRobustness(txns, allocation.With(t, lower));
      if (!result.robust) {
        entry.obstacles.push_back(
            AllocationObstacle::Obstacle{lower,
                                         std::move(*result.counterexample)});
      }
    }
    explanation.per_txn.push_back(std::move(entry));
  }
  return explanation;
}

void ExpectExplanationMatches(const TransactionSet& txns,
                              const Allocation& allocation) {
  StatusOr<AllocationExplanation> expected =
      ReferenceExplanation(txns, allocation);
  for (int threads : kThreadCounts) {
    CheckOptions options;
    options.num_threads = threads;
    StatusOr<AllocationExplanation> actual =
        ExplainAllocation(txns, allocation, options);
    ASSERT_EQ(expected.ok(), actual.ok()) << actual.status();
    if (!expected.ok()) {
      EXPECT_EQ(expected.status().ToString(), actual.status().ToString());
      continue;
    }
    ASSERT_EQ(expected->per_txn.size(), actual->per_txn.size());
    for (size_t t = 0; t < expected->per_txn.size(); ++t) {
      const AllocationObstacle& e = expected->per_txn[t];
      const AllocationObstacle& a = actual->per_txn[t];
      EXPECT_EQ(e.txn, a.txn);
      EXPECT_EQ(e.assigned, a.assigned);
      ASSERT_EQ(e.obstacles.size(), a.obstacles.size()) << "txn " << t;
      for (size_t i = 0; i < e.obstacles.size(); ++i) {
        EXPECT_EQ(e.obstacles[i].attempted, a.obstacles[i].attempted);
        EXPECT_TRUE(
            SameChains({e.obstacles[i].chain}, {a.obstacles[i].chain}))
            << "txn " << t << ", obstacle " << i;
      }
    }
    EXPECT_EQ(expected->ToString(txns), actual->ToString(txns));
  }
}

TEST(FindAllExplainTest, ExplanationEqualsReferenceLoop) {
  std::vector<TransactionSet> sets = {Figure2Txns(), Example26Txns(),
                                      Example52Txns()};
  for (const char* spec : kNamedWorkloads) sets.push_back(Named(spec));
  for (uint64_t seed = 0; seed < 200; ++seed) {
    sets.push_back(DeltaCorpusSet(seed));
  }
  for (const TransactionSet& txns : sets) {
    SCOPED_TRACE(txns.ToString());
    const size_t n = txns.size();
    // The optimum (every obstacle), A_SSI (not optimal: some transactions
    // have none) and A_RC (usually not robust: the error path).
    ExpectExplanationMatches(txns, ComputeOptimalAllocation(txns).allocation);
    ExpectExplanationMatches(txns, Allocation::AllSSI(n));
    ExpectExplanationMatches(txns, Allocation::AllRC(n));
    if (HasFailure()) return;
  }
}

// ---- The promotion search against a reference-frontier copy. ----

// The promotion search as it ran on the reference enumeration: every
// witness probe calls FindAllCounterexamples.
namespace reference {

bool Cancelled(const PromoteOptions& options) {
  return options.check.cancel != nullptr &&
         options.check.cancel->load(std::memory_order_relaxed);
}

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

std::vector<OpRef> FrontierCandidates(const PromotionRewrite& rewrite,
                                      const Allocation& cur_alloc,
                                      const PromotionSet& chosen,
                                      const PromoteOptions& options,
                                      PromotionPlan& plan) {
  const TransactionSet& cur = rewrite.promoted;
  std::vector<OpRef> out;
  for (TxnId t = 0; t < cur.size(); ++t) {
    for (IsolationLevel lower : LevelsBelow(cur_alloc.level(t))) {
      if (Cancelled(options)) return out;
      std::vector<CounterexampleChain> chains = FindAllCounterexamples(
          cur, cur_alloc.With(t, lower), options.witnesses_per_round,
          options.check);
      ++plan.robustness_checks;
      for (const CounterexampleChain& chain : chains) {
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

OptimalAllocationResult Optimum(const TransactionSet& txns,
                                const PromoteOptions& options,
                                PromotionPlan& plan) {
  OptimalAllocationResult result =
      ComputeOptimalAllocation(txns, options.check);
  ++plan.allocations_computed;
  plan.robustness_checks += result.robustness_checks;
  if (result.cancelled) plan.cancelled = true;
  return result;
}

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
      size_t pos = k;
      while (pos > 0 && idx[pos - 1] == pool.size() - (k - (pos - 1))) --pos;
      if (pos == 0) break;
      ++idx[pos - 1];
      for (size_t i = pos; i < k; ++i) idx[i] = idx[i - 1] + 1;
    }
    if (best.has_value()) break;
  }
  if (best.has_value()) best->evaluated = evaluated;
  return best;
}

PromotionPlan OptimizePromotions(const TransactionSet& txns,
                                 const PromoteOptions& options) {
  PromotionPlan plan;
  StatusOr<Evaluation> base = Evaluate(txns, plan.promotions, options, plan);
  EXPECT_TRUE(base.ok()) << base.status();
  plan.before_allocation = base->allocation;
  plan.before_cost = base->cost;
  Evaluation current = std::move(*base);
  std::vector<OpRef> pool;
  while (static_cast<int>(plan.promotions.size()) < options.max_promotions) {
    if (Cancelled(options)) {
      plan.cancelled = true;
      break;
    }
    if (current.cost.weighted == 0) break;
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
    if (!best_read.has_value()) break;
    plan.promotions.Add(*best_read);
    plan.rounds.push_back(
        PromotionRound{*best_read, best_eval->cost, evaluated});
    current = std::move(*best_eval);
  }
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
        hit->evaluated = 0;
      }
      current = std::move(hit->eval);
    }
  }
  plan.promoted = std::move(current.rewrite.promoted);
  plan.after_allocation = std::move(current.allocation);
  plan.after_cost = current.cost;
  plan.improved = plan.after_cost.weighted < plan.before_cost.weighted;
  return plan;
}

StatusOr<PromotionPlan> PromoteForTarget(const TransactionSet& txns,
                                         const Allocation& target,
                                         const PromoteOptions& options) {
  PromotionPlan plan;
  plan.target_mode = true;
  plan.target = target;
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
    std::vector<CounterexampleChain> chains =
        FindAllCounterexamples(current.promoted, target,
                               options.witnesses_per_round, options.check);
    ++plan.robustness_checks;
    if (Cancelled(options)) {
      plan.cancelled = true;
      break;
    }
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
    OpRef best = hits.begin()->first;
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
  OptimalAllocationResult after = Optimum(current.promoted, options, plan);
  plan.promoted = std::move(current.promoted);
  plan.after_allocation = std::move(after.allocation);
  plan.after_cost = ComputeAllocationCost(plan.after_allocation, options);
  plan.improved = plan.after_cost.weighted < plan.before_cost.weighted;
  return plan;
}

}  // namespace reference

void ExpectSamePlan(const TransactionSet& txns, const PromoteOptions& options,
                    const StatusOr<PromotionPlan>& expected,
                    const StatusOr<PromotionPlan>& actual) {
  ASSERT_EQ(expected.ok(), actual.ok()) << actual.status();
  if (!expected.ok()) {
    EXPECT_EQ(expected.status().ToString(), actual.status().ToString());
    return;
  }
  // The JSON carries the promotions, both allocations and costs, every
  // round, the rewritten workload and the effort counters.
  EXPECT_EQ(PromotionPlanJson(txns, *expected, options),
            PromotionPlanJson(txns, *actual, options));
  EXPECT_EQ(expected->robustness_checks, actual->robustness_checks);
  EXPECT_EQ(expected->allocations_computed, actual->allocations_computed);
  EXPECT_EQ(expected->cancelled, actual->cancelled);
  EXPECT_EQ(expected->target_met, actual->target_met);
}

TEST(FindAllPromotionTest, PlansEqualReferenceFrontier) {
  for (const char* spec : {"smallbank:c=4", "smallbank:c=8", "tpcc:w=1,d=2"}) {
    SCOPED_TRACE(spec);
    const TransactionSet txns = Named(spec);
    const size_t n = txns.size();
    for (int threads : kThreadCounts) {
      SCOPED_TRACE(StrCat("threads=", threads));
      PromoteOptions options;
      options.check.num_threads = threads;
      StatusOr<PromotionPlan> budget = OptimizePromotions(txns, options);
      ExpectSamePlan(txns, options,
                     reference::OptimizePromotions(txns, options), budget);
      // A budget of 1 leaves the exhaustive fallback out; 3 lets it run.
      // Few witnesses per probe make the plan depend on which chains come
      // first.
      for (int max_promotions : {1, 3}) {
        for (size_t witnesses : {1, 4}) {
          PromoteOptions narrow = options;
          narrow.max_promotions = max_promotions;
          narrow.witnesses_per_round = witnesses;
          ExpectSamePlan(txns, narrow,
                         reference::OptimizePromotions(txns, narrow),
                         OptimizePromotions(txns, narrow));
          ExpectSamePlan(
              txns, narrow,
              reference::PromoteForTarget(txns, Allocation::AllSI(n), narrow),
              PromoteForTarget(txns, Allocation::AllSI(n), narrow));
        }
      }
      for (const Allocation& target :
           {Allocation::AllSI(n), Allocation::AllRC(n),
            ComputeOptimalAllocation(txns).allocation.With(
                0, IsolationLevel::kRC)}) {
        ExpectSamePlan(txns, options,
                       reference::PromoteForTarget(txns, target, options),
                       PromoteForTarget(txns, target, options));
      }
    }
  }
}

TEST(FindAllPromotionTest, CancelledTargetSearchIsNotMet) {
  const TransactionSet txns = Named("smallbank:c=4");
  std::atomic<bool> cancel{true};
  for (int threads : kThreadCounts) {
    PromoteOptions options;
    options.check.num_threads = threads;
    options.check.cancel = &cancel;
    StatusOr<PromotionPlan> plan =
        PromoteForTarget(txns, Allocation::AllSI(txns.size()), options);
    ASSERT_TRUE(plan.ok()) << plan.status();
    EXPECT_TRUE(plan->cancelled);
    EXPECT_FALSE(plan->target_met);
  }
}

}  // namespace
}  // namespace mvrob
