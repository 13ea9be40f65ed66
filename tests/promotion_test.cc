// Unit and golden-file tests for the read-promotion optimizer
// (src/promote/): the promotion rewrite, candidate extraction from witness
// chains, the greedy/exhaustive search, target mode, and the provenance
// export.
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "core/optimal_allocation.h"
#include "oracle/counterexamples.h"
#include "oracle/reference_checker.h"
#include "promote/export.h"
#include "promote/optimizer.h"
#include "promote/promotion.h"
#include "txn/parser.h"
#include "workloads/registry.h"
#include "workloads/workload.h"

namespace mvrob {
namespace {

TransactionSet Parse(const std::string& text) {
  StatusOr<TransactionSet> txns = ParseTransactionSet(text);
  EXPECT_TRUE(txns.ok()) << txns.status();
  return *txns;
}

TransactionSet NamedTxns(const std::string& spec) {
  StatusOr<Workload> workload = MakeNamedWorkload(spec);
  EXPECT_TRUE(workload.ok()) << workload.status();
  return std::move(workload->txns);
}

std::string GoldenPath(const std::string& name) {
  return std::string(MVROB_GOLDEN_DIR) + "/" + name;
}

void CompareGolden(const std::string& name, const std::string& actual) {
  const std::string path = GoldenPath(name);
  if (std::getenv("MVROB_UPDATE_GOLDEN") != nullptr) {
    std::ofstream file(path);
    ASSERT_TRUE(file.good()) << "cannot write " << path;
    file << actual;
    return;
  }
  std::ifstream file(path);
  ASSERT_TRUE(file.good())
      << "missing golden file " << path
      << " — regenerate with MVROB_UPDATE_GOLDEN=1 ./promotion_test";
  std::ostringstream expected;
  expected << file.rdbuf();
  EXPECT_EQ(expected.str(), actual)
      << "golden mismatch for " << name
      << " — regenerate with MVROB_UPDATE_GOLDEN=1 ./promotion_test if the "
         "change is intended";
}

// The three-transaction write-skew triangle: every transaction reads what
// another writes, so A_SSI is optimal unpromoted, and promoting the
// rw-antidependency read legs unlocks A_RC.
constexpr const char* kTriangle = R"(
  T1: R[x] R[y] W[z]
  T2: R[z] W[x]
  T3: R[z] W[y]
)";

// ---------------------------------------------------------------------------
// PromotionSet / IsPromotableRead / ApplyPromotions
// ---------------------------------------------------------------------------

TEST(PromotionSetTest, AddKeepsRefsSortedAndUnique) {
  PromotionSet set;
  EXPECT_TRUE(set.empty());
  EXPECT_TRUE(set.Add(OpRef{1, 0}));
  EXPECT_TRUE(set.Add(OpRef{0, 1}));
  EXPECT_FALSE(set.Add(OpRef{1, 0}));  // Duplicate.
  EXPECT_TRUE(set.Contains(OpRef{0, 1}));
  EXPECT_FALSE(set.Contains(OpRef{0, 0}));
  ASSERT_EQ(set.size(), 2u);
  EXPECT_EQ(set.reads()[0], (OpRef{0, 1}));
  EXPECT_EQ(set.reads()[1], (OpRef{1, 0}));
}

TEST(PromotionTest, PromotableReadsExcludeWritesAndReadsOfOwnWrites) {
  TransactionSet txns = Parse(R"(
    T1: R[x] W[y]
    T2: R[y] W[y]
  )");
  EXPECT_TRUE(IsPromotableRead(txns, OpRef{0, 0}));   // R1[x].
  EXPECT_FALSE(IsPromotableRead(txns, OpRef{0, 1}));  // W1[y]: not a read.
  // R2[y]: T2 writes y itself — the write lock is already taken.
  EXPECT_FALSE(IsPromotableRead(txns, OpRef{1, 0}));
  EXPECT_FALSE(IsPromotableRead(txns, OpRef{0, 2}));  // Commit.
  EXPECT_FALSE(IsPromotableRead(txns, OpRef::Op0()));
  PromotionSet all = AllPromotableReads(txns);
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all.reads()[0], (OpRef{0, 0}));
}

TEST(PromotionTest, ApplyPromotionsInsertsWriteBeforeRead) {
  TransactionSet txns = Parse("T1: R[x] R[y] W[z]");
  PromotionSet set;
  set.Add(OpRef{0, 1});  // R1[y].
  StatusOr<PromotionRewrite> rewrite = ApplyPromotions(txns, set);
  ASSERT_TRUE(rewrite.ok()) << rewrite.status();
  const Transaction& t = rewrite->promoted.txn(0);
  // R[x] W[y] R[y] W[z] C — the write lands directly before the read.
  ASSERT_EQ(t.num_ops(), 5);
  EXPECT_TRUE(t.op(0).IsRead());
  EXPECT_TRUE(t.op(1).IsWrite());
  EXPECT_TRUE(t.op(2).IsRead());
  EXPECT_EQ(t.op(1).object, t.op(2).object);
  EXPECT_TRUE(t.op(3).IsWrite());
  // Object universe preserved: same names, same ids.
  EXPECT_EQ(rewrite->promoted.num_objects(), txns.num_objects());
  EXPECT_EQ(rewrite->promoted.FindObject("y"), txns.FindObject("y"));
}

TEST(PromotionTest, RewriteMapsRoundTrip) {
  TransactionSet txns = Parse(R"(
    T1: R[x] R[y] W[z]
    T2: R[z] W[x]
  )");
  PromotionSet set;
  set.Add(OpRef{0, 0});
  set.Add(OpRef{0, 1});
  set.Add(OpRef{1, 0});
  StatusOr<PromotionRewrite> rewrite = ApplyPromotions(txns, set);
  ASSERT_TRUE(rewrite.ok()) << rewrite.status();
  for (TxnId t = 0; t < txns.size(); ++t) {
    const Transaction& base = txns.txn(t);
    for (int i = 0; i < base.num_ops(); ++i) {
      OpRef original{t, i};
      OpRef promoted = rewrite->PromotedRef(original);
      // The mapped op is the same op...
      if (!base.op(i).IsCommit()) {
        EXPECT_EQ(base.op(i), rewrite->promoted.op(promoted));
      }
      // ...and maps back to where it came from.
      std::optional<OpRef> back = rewrite->OriginalRef(promoted);
      ASSERT_TRUE(back.has_value());
      EXPECT_EQ(*back, original);
    }
  }
  // Inserted writes map back to nothing.
  EXPECT_FALSE(rewrite->OriginalRef(OpRef{0, 0}).has_value());
  EXPECT_EQ(rewrite->promoted.txn(0).num_ops(), 6);  // 2 inserted + 3 + C.
}

TEST(PromotionTest, ApplyPromotionsRejectsNonPromotableRefs) {
  TransactionSet txns = Parse("T1: R[x] W[x]");
  PromotionSet write;
  write.Add(OpRef{0, 1});
  EXPECT_FALSE(ApplyPromotions(txns, write).ok());
  PromotionSet own_write_read;
  own_write_read.Add(OpRef{0, 0});  // T1 writes x itself.
  EXPECT_FALSE(ApplyPromotions(txns, own_write_read).ok());
  PromotionSet out_of_range;
  out_of_range.Add(OpRef{5, 0});
  EXPECT_FALSE(ApplyPromotions(txns, out_of_range).ok());
}

// ---------------------------------------------------------------------------
// Candidate extraction from witness chains
// ---------------------------------------------------------------------------

TEST(PromotionCandidatesTest, TriangleChainYieldsItsRwReadLegs) {
  TransactionSet txns = Parse(kTriangle);
  Allocation rc = Allocation::AllRC(txns.size());
  std::vector<CounterexampleChain> chains =
      FindAllCounterexamples(txns, rc, 64);
  ASSERT_FALSE(chains.empty());
  // Every candidate is a promotable read, and the union over all chains
  // covers the b1 legs the optimizer needs.
  std::vector<OpRef> all = ExtractPromotionCandidates(txns, chains);
  ASSERT_FALSE(all.empty());
  for (OpRef ref : all) {
    EXPECT_TRUE(IsPromotableRead(txns, ref)) << txns.FormatOp(ref);
  }
  for (const CounterexampleChain& chain : chains) {
    std::vector<OpRef> one = CandidatesFromChain(txns, chain);
    // b1 reads an object another transaction writes and its own
    // transaction does not: always promotable, always a candidate.
    EXPECT_NE(std::find(one.begin(), one.end(), chain.b1), one.end())
        << chain.ToString(txns);
  }
}

TEST(PromotionCandidatesTest, NonPromotableReadLegsAreFilteredOut) {
  // Classic lost-update pair: both transactions read and write x, so the
  // rw read legs are reads-before-own-writes — not promotable.
  TransactionSet txns = Parse(R"(
    T1: R[x] W[x]
    T2: R[x] W[x]
  )");
  std::vector<CounterexampleChain> chains =
      FindAllCounterexamples(txns, Allocation::AllRC(txns.size()), 64);
  ASSERT_FALSE(chains.empty());
  EXPECT_TRUE(ExtractPromotionCandidates(txns, chains).empty());
}

// ---------------------------------------------------------------------------
// Promotion kills the split chains it targets
// ---------------------------------------------------------------------------

TEST(PromotionTest, PromotingReadLegsMakesWriteSkewRcRobust) {
  // Write skew. Promoting R1[x] inserts W1[x], which ww-conflicts with
  // W2[x] inside prefix_{b1}(T1) and kills every chain split at T1
  // (condition 3.1(2)) — but the symmetric chain split at T2 (b1 = R2[y],
  // whose prefix holds no writes) survives at RC. One promotion lets T1
  // drop to RC with T2 at SI (condition 3.1(3): the surviving chain needs
  // postfix_{b1}(T2) clean, and W2[x] ww-conflicts with W1[x]); full
  // RC-robustness needs both read legs promoted.
  TransactionSet txns = Parse(R"(
    T1: R[x] W[y]
    T2: R[y] W[x]
  )");
  EXPECT_FALSE(CheckRobustnessRC(txns).robust);

  PromotionSet one;
  one.Add(OpRef{0, 0});  // R1[x].
  StatusOr<PromotionRewrite> first = ApplyPromotions(txns, one);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(CheckRobustnessRC(first->promoted).robust);
  EXPECT_TRUE(CheckRobustness(first->promoted,
                              Allocation({IsolationLevel::kRC,
                                          IsolationLevel::kSI}))
                  .robust);

  PromotionSet both;
  both.Add(OpRef{0, 0});  // R1[x].
  both.Add(OpRef{1, 0});  // R2[y].
  StatusOr<PromotionRewrite> second = ApplyPromotions(txns, both);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(CheckRobustnessRC(second->promoted).robust);
}

// ---------------------------------------------------------------------------
// OptimizePromotions (budget mode)
// ---------------------------------------------------------------------------

TEST(OptimizePromotionsTest, TriangleDropsFromSsiToRc) {
  TransactionSet txns = Parse(kTriangle);
  StatusOr<PromotionPlan> plan = OptimizePromotions(txns);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_TRUE(plan->improved);
  EXPECT_EQ(plan->before_cost.ssi, 3u);
  EXPECT_EQ(plan->after_cost.weighted, 0);
  EXPECT_EQ(plan->after_cost.rc, 3u);
  EXPECT_FALSE(plan->cancelled);
  // The promoted workload's allocation verdict is reproducible.
  OptimalAllocationResult check = ComputeOptimalAllocation(plan->promoted);
  EXPECT_EQ(check.allocation, plan->after_allocation);
}

TEST(OptimizePromotionsTest, SmallBankGetsStrictlyCheaper) {
  TransactionSet txns = NamedTxns("smallbank:c=2");
  StatusOr<PromotionPlan> plan = OptimizePromotions(txns);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_TRUE(plan->improved);
  EXPECT_LT(plan->after_cost.weighted, plan->before_cost.weighted);
  // SmallBank's obstacle is the two Balance read-only probes: promoting
  // their reads clears every SSI slot.
  EXPECT_EQ(plan->after_cost.ssi, 0u);
  OptimalAllocationResult check = ComputeOptimalAllocation(plan->promoted);
  EXPECT_EQ(check.allocation, plan->after_allocation);
}

TEST(OptimizePromotionsTest, TpccGetsStrictlyCheaper) {
  TransactionSet txns = NamedTxns("tpcc:w=1,d=2");
  StatusOr<PromotionPlan> plan = OptimizePromotions(txns);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_TRUE(plan->improved);
  EXPECT_LT(plan->after_cost.weighted, plan->before_cost.weighted);
}

TEST(OptimizePromotionsTest, RobustWorkloadNeedsNothing) {
  TransactionSet txns = Parse(R"(
    T1: R[x] W[y]
    T2: R[z] W[w]
  )");
  StatusOr<PromotionPlan> plan = OptimizePromotions(txns);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_TRUE(plan->promotions.empty());
  EXPECT_FALSE(plan->improved);
  EXPECT_EQ(plan->before_cost.weighted, 0);
  EXPECT_EQ(plan->rounds.size(), 0u);
}

TEST(OptimizePromotionsTest, ZeroBudgetPromotesNothing) {
  TransactionSet txns = Parse(kTriangle);
  PromoteOptions options;
  options.max_promotions = 0;
  StatusOr<PromotionPlan> plan = OptimizePromotions(txns, options);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_TRUE(plan->promotions.empty());
  EXPECT_FALSE(plan->improved);
  EXPECT_EQ(plan->after_allocation, plan->before_allocation);
}

TEST(OptimizePromotionsTest, CancelFlagReturnsBestSoFar) {
  TransactionSet txns = NamedTxns("smallbank:c=2");
  std::atomic<bool> cancel{true};  // Raised before the search starts.
  PromoteOptions options;
  options.check.cancel = &cancel;
  StatusOr<PromotionPlan> plan = OptimizePromotions(txns, options);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_TRUE(plan->cancelled);
  EXPECT_TRUE(plan->promotions.empty());
}

TEST(OptimizePromotionsTest, ThreadedSearchMatchesSequential) {
  TransactionSet txns = NamedTxns("smallbank:c=2");
  StatusOr<PromotionPlan> sequential = OptimizePromotions(txns);
  PromoteOptions threaded;
  threaded.check.num_threads = 4;
  StatusOr<PromotionPlan> parallel = OptimizePromotions(txns, threaded);
  ASSERT_TRUE(sequential.ok() && parallel.ok());
  EXPECT_EQ(sequential->promotions.reads(), parallel->promotions.reads());
  EXPECT_EQ(sequential->after_allocation, parallel->after_allocation);
}

TEST(OptimizePromotionsTest, CostWeightsShapeTheObjective) {
  TransactionSet txns = Parse(kTriangle);
  PromoteOptions options;
  options.weight_si = 3;
  options.weight_ssi = 10;
  StatusOr<PromotionPlan> plan = OptimizePromotions(txns, options);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->before_cost.weighted, 30);  // 3 SSI slots.
  EXPECT_EQ(plan->after_cost.weighted, 0);
}

// ---------------------------------------------------------------------------
// PromoteForTarget (target mode)
// ---------------------------------------------------------------------------

TEST(PromoteForTargetTest, TriangleReachesAllRc) {
  TransactionSet txns = Parse(kTriangle);
  Allocation target = Allocation::AllRC(txns.size());
  StatusOr<PromotionPlan> plan = PromoteForTarget(txns, target);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_TRUE(plan->target_met);
  EXPECT_FALSE(plan->promotions.empty());
  StatusOr<PromotionRewrite> rewrite =
      ApplyPromotions(txns, plan->promotions);
  ASSERT_TRUE(rewrite.ok());
  EXPECT_TRUE(CheckRobustness(rewrite->promoted, target).robust);
}

TEST(PromoteForTargetTest, AlreadyRobustTargetNeedsNoPromotions) {
  TransactionSet txns = Parse(kTriangle);
  Allocation target = Allocation::AllSSI(txns.size());
  StatusOr<PromotionPlan> plan = PromoteForTarget(txns, target);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_TRUE(plan->target_met);
  EXPECT_TRUE(plan->promotions.empty());
}

TEST(PromoteForTargetTest, UnreachableTargetFailsCleanly) {
  // Lost-update pair: no promotable read legs exist, so no promotion set
  // can make A_RC robust.
  TransactionSet txns = Parse(R"(
    T1: R[x] W[x]
    T2: R[x] W[x]
  )");
  StatusOr<PromotionPlan> plan =
      PromoteForTarget(txns, Allocation::AllRC(txns.size()));
  EXPECT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kFailedPrecondition);
}

TEST(PromoteForTargetTest, SizeMismatchIsInvalid) {
  TransactionSet txns = Parse(kTriangle);
  EXPECT_FALSE(PromoteForTarget(txns, Allocation::AllRC(1)).ok());
}

// ---------------------------------------------------------------------------
// Provenance export: golden files
// ---------------------------------------------------------------------------

TEST(PromotionGoldenTest, TrianglePlanJson) {
  TransactionSet txns = Parse(kTriangle);
  PromoteOptions options;
  StatusOr<PromotionPlan> plan = OptimizePromotions(txns, options);
  ASSERT_TRUE(plan.ok());
  CompareGolden("triangle.promotion.json",
                PromotionPlanJson(txns, *plan, options));
}

TEST(PromotionGoldenTest, TrianglePlanText) {
  TransactionSet txns = Parse(kTriangle);
  StatusOr<PromotionPlan> plan = OptimizePromotions(txns);
  ASSERT_TRUE(plan.ok());
  CompareGolden("triangle.promotion.txt",
                PromotionPlanToString(txns, *plan));
}

TEST(PromotionGoldenTest, TargetModePlanJson) {
  TransactionSet txns = Parse(kTriangle);
  PromoteOptions options;
  StatusOr<PromotionPlan> plan =
      PromoteForTarget(txns, Allocation::AllRC(txns.size()), options);
  ASSERT_TRUE(plan.ok());
  CompareGolden("triangle_target_rc.promotion.json",
                PromotionPlanJson(txns, *plan, options));
}

TEST(PromotionGoldenTest, SmallBankPlanJson) {
  TransactionSet txns = NamedTxns("smallbank:c=1");
  PromoteOptions options;
  StatusOr<PromotionPlan> plan = OptimizePromotions(txns, options);
  ASSERT_TRUE(plan.ok());
  CompareGolden("smallbank_c1.promotion.json",
                PromotionPlanJson(txns, *plan, options));
}

}  // namespace
}  // namespace mvrob
