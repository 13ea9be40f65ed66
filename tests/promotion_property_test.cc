// Property tests for read promotion (src/promote/), cross-checked against
// the brute-force interleaving oracle and the MVCC engine:
//
//  1. Optimizer safety — the search only commits strict improvements, so
//     its result never costs more than Algorithm 2 on the unpromoted
//     workload and is always robust. Blind full promotion has no such
//     guarantee: a promoted write installs a real version and can create
//     new rw-antidependencies (pinned by a concrete backfire witness).
//  2. Full promotion — after promoting every promotable read, a read can
//     serve as the b1 leg of a Definition 3.1 chain only if it precedes an
//     own write of the same object; when no such read exists the workload
//     is robust under A_RC outright.
//  3. Oracle agreement — the promoted workload's Algorithm 1 verdicts
//     match exhaustive enumeration on small random instances.
//  4. Engine certification — every promoted workload in the suite passes
//     the round-trip validator under its optimized allocation with zero
//     disagreements and zero anomalous runs.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/optimal_allocation.h"
#include "core/robustness.h"
#include "mvcc/roundtrip.h"
#include "oracle/brute_force.h"
#include "oracle/reference_checker.h"
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

// Small random instances, enumerable by the brute-force oracle. The
// general regime (at_most_one_access off would break the engine's
// exportable image, so the registry's synthetic generator keeps it on).
std::vector<std::string> SmallSyntheticSpecs() {
  std::vector<std::string> specs;
  for (int seed : {1, 2, 3, 5, 8, 13, 21, 34}) {
    specs.push_back("synthetic:n=3,o=3,w=40,h=30,seed=" +
                    std::to_string(seed));
  }
  return specs;
}

// True if `read` follows a write of the same object in its own
// transaction (the only reads that can still open a split chain after
// full promotion).
bool ReadsAfterOwnWrite(const TransactionSet& txns, OpRef read) {
  const Transaction& t = txns.txn(read.txn);
  for (int i = 0; i < read.index; ++i) {
    if (t.op(i).IsWrite() && t.op(i).object == txns.op(read).object) {
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// 1. Optimizer safety: never worse than Algorithm 2 unpromoted.
// ---------------------------------------------------------------------------

TEST(PromotionPropertyTest, OptimizerNeverRegresses) {
  for (const std::string& spec : SmallSyntheticSpecs()) {
    TransactionSet txns = NamedTxns(spec);
    StatusOr<PromotionPlan> plan = OptimizePromotions(txns);
    ASSERT_TRUE(plan.ok()) << spec;
    EXPECT_LE(plan->after_cost.weighted, plan->before_cost.weighted) << spec;
    EXPECT_EQ(plan->improved,
              plan->after_cost.weighted < plan->before_cost.weighted)
        << spec;
    // The after-allocation is Algorithm 2's output on the promoted
    // workload, hence robust by construction — re-verify independently.
    EXPECT_TRUE(CheckRobustness(plan->promoted, plan->after_allocation).robust)
        << spec;
    // No improvement means no promotions were committed.
    if (!plan->improved) {
      EXPECT_TRUE(plan->promotions.empty()) << spec;
    }
  }
}

TEST(PromotionPropertyTest, BlindFullPromotionCanBackfire) {
  // Promotion is NOT monotone: the inserted write installs a real version,
  // so other transactions' reads of that object gain rw-antidependencies
  // that did not exist before, and promoting *every* promotable read can
  // push the optimum up. This seed is a concrete witness — and the reason
  // OptimizePromotions searches instead of promoting everything.
  TransactionSet txns = NamedTxns("synthetic:n=3,o=3,w=40,h=30,seed=5");
  Allocation before = ComputeOptimalAllocation(txns).allocation;
  StatusOr<PromotionRewrite> rewrite =
      ApplyPromotions(txns, AllPromotableReads(txns));
  ASSERT_TRUE(rewrite.ok());
  Allocation after = ComputeOptimalAllocation(rewrite->promoted).allocation;
  EXPECT_FALSE(after.LessEq(before))
      << "full promotion no longer backfires on this seed; pick another "
         "witness for this property";
  // The optimizer correctly declines: no strict improvement exists here.
  StatusOr<PromotionPlan> plan = OptimizePromotions(txns);
  ASSERT_TRUE(plan.ok());
  EXPECT_LE(plan->after_cost.weighted, plan->before_cost.weighted);
}

// ---------------------------------------------------------------------------
// 2. Full promotion and the b1 characterization.
// ---------------------------------------------------------------------------

TEST(PromotionPropertyTest, FullPromotionCharacterizesRcRobustness) {
  for (const std::string& spec : SmallSyntheticSpecs()) {
    TransactionSet txns = NamedTxns(spec);
    StatusOr<PromotionRewrite> rewrite =
        ApplyPromotions(txns, AllPromotableReads(txns));
    ASSERT_TRUE(rewrite.ok()) << spec;
    const TransactionSet& promoted = rewrite->promoted;

    // After full promotion, every read either follows an own write of its
    // object (promoted, or an original write-then-read program) or its
    // transaction writes the object later (unpromotable read-then-write).
    bool any_uncovered = false;
    for (TxnId t = 0; t < promoted.size(); ++t) {
      for (int i = 0; i < promoted.txn(t).num_ops(); ++i) {
        OpRef ref{t, i};
        if (!promoted.txn(t).op(i).IsRead()) continue;
        if (!ReadsAfterOwnWrite(promoted, ref)) {
          // Must be a read-before-own-write; promotion left it alone.
          EXPECT_TRUE(promoted.txn(t).Writes(promoted.op(ref).object))
              << spec << ": " << promoted.FormatOp(ref)
              << " is uncovered yet was not promoted";
          any_uncovered = true;
        }
      }
    }
    // No uncovered reads at all => nothing can serve as b1 => robust
    // under A_RC (hence under every allocation).
    RobustnessResult rc = CheckRobustnessRC(promoted);
    if (!any_uncovered) {
      EXPECT_TRUE(rc.robust) << spec;
    }
    // Any surviving counterexample must pin an uncovered read as b1.
    if (!rc.robust) {
      ASSERT_TRUE(rc.counterexample.has_value());
      EXPECT_FALSE(ReadsAfterOwnWrite(promoted, rc.counterexample->b1))
          << spec << ": covered read "
          << promoted.FormatOp(rc.counterexample->b1)
          << " opened a split chain";
    }
  }
}

// ---------------------------------------------------------------------------
// 3. Oracle agreement on promoted workloads.
// ---------------------------------------------------------------------------

TEST(PromotionPropertyTest, PromotedVerdictsMatchBruteForce) {
  for (const std::string& spec : SmallSyntheticSpecs()) {
    TransactionSet txns = NamedTxns(spec);
    StatusOr<PromotionPlan> plan = OptimizePromotions(txns);
    ASSERT_TRUE(plan.ok()) << spec;
    const TransactionSet& promoted = plan->promoted;
    for (IsolationLevel level : kAllIsolationLevels) {
      Allocation alloc(promoted.size(), level);
      StatusOr<BruteForceResult> oracle =
          BruteForceRobustness(promoted, alloc);
      if (!oracle.ok()) continue;  // Interleaving cap; skip, never fail.
      EXPECT_EQ(CheckRobustness(promoted, alloc).robust, oracle->robust)
          << spec << " under " << IsolationLevelToString(level);
    }
    // The optimizer's after-allocation is itself brute-force robust.
    StatusOr<BruteForceResult> after =
        BruteForceRobustness(promoted, plan->after_allocation);
    if (after.ok()) {
      EXPECT_TRUE(after->robust) << spec;
    }
  }
}

TEST(PromotionPropertyTest, TriangleBruteForceConfirmsRcAfterPromotion) {
  TransactionSet txns = Parse(R"(
    T1: R[x] R[y] W[z]
    T2: R[z] W[x]
    T3: R[z] W[y]
  )");
  ASSERT_FALSE(CheckRobustnessRC(txns).robust);
  StatusOr<PromotionPlan> plan = OptimizePromotions(txns);
  ASSERT_TRUE(plan.ok());
  StatusOr<BruteForceResult> oracle = BruteForceRobustness(
      plan->promoted, Allocation::AllRC(plan->promoted.size()));
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  EXPECT_TRUE(oracle->robust);
}

// ---------------------------------------------------------------------------
// 4. Engine certification of promoted workloads.
// ---------------------------------------------------------------------------

void CertifyPromotedWorkload(const std::string& spec, int runs) {
  TransactionSet txns = NamedTxns(spec);
  StatusOr<PromotionPlan> plan = OptimizePromotions(txns);
  ASSERT_TRUE(plan.ok()) << spec;
  RoundTripOptions options;
  options.runs = runs;
  options.seed = 7;
  StatusOr<RoundTripReport> report =
      ValidateEngineRuns(plan->promoted, plan->after_allocation, options);
  ASSERT_TRUE(report.ok()) << spec << ": " << report.status();
  EXPECT_EQ(report->disagreements, 0u) << spec << "\n"
                                       << report->ToString();
  // The optimized allocation is robust by construction, so no engine run
  // may exhibit an anomaly — promotions cost aborts, never anomalies.
  EXPECT_TRUE(report->allocation_robust) << spec;
  EXPECT_EQ(report->anomalous_runs, 0u) << spec;
}

TEST(PromotionPropertyTest, EngineCertifiesPromotedSmallBank) {
  CertifyPromotedWorkload("smallbank:c=2", 60);
}

TEST(PromotionPropertyTest, EngineCertifiesPromotedTpcc) {
  CertifyPromotedWorkload("tpcc:w=1,d=2", 40);
}

TEST(PromotionPropertyTest, EngineCertifiesPromotedSynthetics) {
  for (const std::string& spec :
       {std::string("synthetic:n=4,o=3,w=40,h=30,seed=2"),
        std::string("synthetic:n=4,o=4,w=50,h=20,seed=9")}) {
    CertifyPromotedWorkload(spec, 40);
  }
}

}  // namespace
}  // namespace mvrob
