#include <gtest/gtest.h>

#include "core/optimal_allocation.h"
#include "core/robustness.h"
#include "core/split_schedule.h"
#include "fixtures.h"
#include "oracle/brute_force.h"
#include "oracle/counterexamples.h"
#include "iso/allowed.h"
#include "oracle/mixed_iso_graph.h"
#include "oracle/reference_checker.h"
#include "schedule/serializability.h"
#include "txn/parser.h"

namespace mvrob {
namespace {

TransactionSet Parse(const char* text) {
  StatusOr<TransactionSet> txns = ParseTransactionSet(text);
  EXPECT_TRUE(txns.ok()) << txns.status();
  return std::move(txns).value();
}

// The classic write-skew pair: the textbook snapshot-isolation anomaly.
constexpr const char* kWriteSkew = R"(
  T1: R[x] W[y]
  T2: R[y] W[x]
)";

// The classic lost-update pair: safe under SI (first-committer-wins), not
// under RC.
constexpr const char* kLostUpdate = R"(
  T1: R[x] W[x]
  T2: R[x] W[x]
)";

TEST(ConflictTxnTest, StaticPredicates) {
  TransactionSet txns = Parse(kWriteSkew);
  EXPECT_TRUE(TxnsConflict(txns, 0, 1));
  EXPECT_TRUE(TxnsConflict(txns, 1, 0));
  EXPECT_FALSE(TxnsConflict(txns, 0, 0));
  EXPECT_TRUE(WwConflictFreeTxns(txns, 0, 1));  // Disjoint write sets.
  // T1 writes y which T2 reads -> not wr-conflict-free.
  EXPECT_FALSE(WrConflictFreeTxns(txns, 0, 1));
  EXPECT_FALSE(WrConflictFreeTxns(txns, 1, 0));

  TransactionSet lost = Parse(kLostUpdate);
  EXPECT_FALSE(WwConflictFreeTxns(lost, 0, 1));
}

TEST(ConflictTxnTest, FindConflictingPair) {
  TransactionSet txns = Parse(kWriteSkew);
  auto pair = FindConflictingPair(txns, 0, 1);
  ASSERT_TRUE(pair.has_value());
  EXPECT_TRUE(Conflicting(txns.op(pair->first), txns.op(pair->second)));

  TransactionSet disjoint = Parse(R"(
    T1: R[a]
    T2: R[b]
  )");
  EXPECT_FALSE(FindConflictingPair(disjoint, 0, 1).has_value());
}

TEST(MixedIsoGraphTest, ExcludesConflictingTransactions) {
  TransactionSet txns = Parse(R"(
    T1: R[x] W[y]
    T2: W[x]
    T3: R[y]
    T4: R[z] W[z]
  )");
  // T2 (conflicts on x) and T3 (conflicts on y) are not nodes for T1 = 0.
  MixedIsoGraph graph(txns, 0, {});
  EXPECT_FALSE(graph.Contains(0));
  EXPECT_FALSE(graph.Contains(1));
  EXPECT_FALSE(graph.Contains(2));
  EXPECT_TRUE(graph.Contains(3));
}

TEST(MixedIsoGraphTest, InnerChainDirectAndViaMiddle) {
  TransactionSet txns = Parse(R"(
    T1: R[x]
    T2: W[x] R[a]
    T3: W[a] W[b]
    T4: R[b] W[q]
  )");
  // For t1 = T1: T3 does not conflict with T1 (objects a, b), so the graph
  // contains T3 (and T4, but T4 is excluded below). T2 and T4 do not
  // conflict directly, so the chain T2 ~> T4 must route through T3.
  MixedIsoGraph graph(txns, 0, {1, 3});
  EXPECT_TRUE(graph.Contains(2));
  auto chain = graph.FindInnerChain(1, 3);
  ASSERT_TRUE(chain.has_value());
  EXPECT_EQ(*chain, std::vector<TxnId>{2});
  // Same transaction: empty chain.
  auto self_chain = graph.FindInnerChain(1, 1);
  ASSERT_TRUE(self_chain.has_value());
  EXPECT_TRUE(self_chain->empty());
  // Direct conflicts short-circuit to an empty chain: T2 and T3 conflict
  // on object a.
  MixedIsoGraph direct(txns, 0, {1, 2});
  auto direct_chain = direct.FindInnerChain(1, 2);
  ASSERT_TRUE(direct_chain.has_value());
  EXPECT_TRUE(direct_chain->empty());
}

TEST(MixedIsoGraphTest, NoChainWhenDisconnected) {
  TransactionSet txns = Parse(R"(
    T1: R[x]
    T2: W[x] R[a]
    T3: W[x] R[b]
  )");
  // T2 and T3 conflict on x, but the graph for T1 has no nodes (both T2 and
  // T3 are excluded); direct conflict T2-T3 still yields an empty chain.
  MixedIsoGraph graph(txns, 0, {1, 2});
  auto chain = graph.FindInnerChain(1, 2);
  ASSERT_TRUE(chain.has_value());
  EXPECT_TRUE(chain->empty());

  TransactionSet apart = Parse(R"(
    T1: R[x]
    T2: W[x] R[a]
    T3: W[x] R[b]
    T4: W[q]
  )");
  MixedIsoGraph graph2(apart, 0, {1, 2});
  // T2 and T3 conflict directly - chain exists.
  EXPECT_TRUE(graph2.FindInnerChain(1, 2).has_value());
}

// ---------------------------------------------------------------------------
// Algorithm 1 on canonical pairs.
// ---------------------------------------------------------------------------

TEST(RobustnessTest, WriteSkewMatrix) {
  TransactionSet txns = Parse(kWriteSkew);
  // Robust only when both transactions run SSI.
  for (IsolationLevel l1 : kAllIsolationLevels) {
    for (IsolationLevel l2 : kAllIsolationLevels) {
      Allocation a({l1, l2});
      bool expected = l1 == IsolationLevel::kSSI && l2 == IsolationLevel::kSSI;
      RobustnessResult result = CheckRobustness(txns, a);
      EXPECT_EQ(result.robust, expected) << a.ToString(txns);
      if (!result.robust) {
        ASSERT_TRUE(result.counterexample.has_value());
        Status verified = VerifyCounterexample(txns, a, *result.counterexample);
        EXPECT_TRUE(verified.ok()) << verified;
      }
    }
  }
}

TEST(RobustnessTest, LostUpdateMatrix) {
  TransactionSet txns = Parse(kLostUpdate);
  // Robust iff both transactions run SI or higher (the ww conflict disables
  // the vulnerable edge; RC's counterflow case breaks robustness).
  for (IsolationLevel l1 : kAllIsolationLevels) {
    for (IsolationLevel l2 : kAllIsolationLevels) {
      Allocation a({l1, l2});
      bool expected =
          l1 != IsolationLevel::kRC && l2 != IsolationLevel::kRC;
      RobustnessResult result = CheckRobustness(txns, a);
      EXPECT_EQ(result.robust, expected) << a.ToString(txns);
      if (!result.robust) {
        EXPECT_TRUE(
            VerifyCounterexample(txns, a, *result.counterexample).ok());
      }
    }
  }
}

TEST(RobustnessTest, ReadOnlyPlusWriterIsFullyRobust) {
  TransactionSet txns = Parse(R"(
    T1: R[x]
    T2: W[x]
  )");
  for (IsolationLevel l1 : kAllIsolationLevels) {
    for (IsolationLevel l2 : kAllIsolationLevels) {
      EXPECT_TRUE(CheckRobustness(txns, Allocation({l1, l2})).robust);
    }
  }
}

TEST(RobustnessTest, SingleTransactionIsRobust) {
  TransactionSet txns = Parse("T1: R[x] W[x] W[y]");
  for (IsolationLevel level : kAllIsolationLevels) {
    EXPECT_TRUE(CheckRobustness(txns, Allocation(1, level)).robust);
  }
}

TEST(RobustnessTest, Figure2WorkloadAgainstSelectedAllocations) {
  TransactionSet txns = Figure2Txns();
  // A_SSI is always robust.
  EXPECT_TRUE(CheckRobustnessSSI(txns).robust);
  // The Figure 2 schedule itself witnesses non-robustness of, e.g.,
  // T1=SI T2=SI T3=SI T4=RC (it is allowed and not serializable).
  Allocation mixed({IsolationLevel::kSI, IsolationLevel::kSI,
                    IsolationLevel::kSI, IsolationLevel::kRC});
  RobustnessResult result = CheckRobustness(txns, mixed);
  EXPECT_FALSE(result.robust);
  EXPECT_TRUE(VerifyCounterexample(txns, mixed, *result.counterexample).ok());
  // Homogeneous RC is not robust (split T4 after R4[t], chain T2 -> T3).
  EXPECT_FALSE(CheckRobustnessRC(txns).robust);
  // Homogeneous SI *is* robust: every vulnerable pivot (T2 or T4) requires
  // the chain T3 ~> T1, but every other transaction conflicts with the
  // pivot, so no inner chain exists. (Note the Figure 2 schedule itself is
  // not allowed under A_SI — T4 exhibits a concurrent write.)
  EXPECT_TRUE(CheckRobustnessSI(txns).robust);
}

TEST(RobustnessTest, SsiPairIsRobustButSsiSiPairIsNot) {
  // With mixed allocations, SSI only protects structures whose transactions
  // are *all* SSI: the write-skew pair at {SSI, SI} is still unsafe.
  TransactionSet txns = Parse(kWriteSkew);
  Allocation ssi_si({IsolationLevel::kSSI, IsolationLevel::kSI});
  RobustnessResult result = CheckRobustness(txns, ssi_si);
  EXPECT_FALSE(result.robust);
  EXPECT_TRUE(VerifyCounterexample(txns, ssi_si, *result.counterexample).ok());
}

TEST(RobustnessTest, ThreeTxnChainNeedsInnerTransaction) {
  // T1 -> T2 -> T3 -> T1 with T2, T3 conflicting only via object b; the
  // counterexample requires the inner chain through the mixed-iso-graph.
  TransactionSet txns = Parse(R"(
    T1: R[x] W[y]
    T2: W[x] W[b]
    T3: R[b] R[y]
  )");
  RobustnessResult result = CheckRobustnessSI(txns);
  ASSERT_FALSE(result.robust);
  EXPECT_TRUE(
      VerifyCounterexample(txns, Allocation::AllSI(3), *result.counterexample)
          .ok());
}

TEST(RobustnessTest, TriplesExaminedGrowsWithN) {
  TransactionSet small = Parse("T1: R[x]\nT2: R[y]");
  TransactionSet large = Parse("T1: R[x]\nT2: R[y]\nT3: R[z]\nT4: R[w]");
  RobustnessResult rs = CheckRobustnessSI(small);
  RobustnessResult rl = CheckRobustnessSI(large);
  EXPECT_LT(rs.triples_examined, rl.triples_examined);
  EXPECT_EQ(rl.triples_examined, 4u * 3u * 3u);
}

// ---------------------------------------------------------------------------
// Split schedules.
// ---------------------------------------------------------------------------

TEST(SplitScheduleTest, BuildsCanonicalWriteSkewCounterexample) {
  TransactionSet txns = Parse(kWriteSkew);
  Allocation a = Allocation::AllSI(2);
  RobustnessResult result = CheckRobustness(txns, a);
  ASSERT_FALSE(result.robust);
  const CounterexampleChain& chain = *result.counterexample;
  EXPECT_TRUE(ValidateSplitChain(txns, a, chain).ok());

  StatusOr<Schedule> schedule = BuildSplitSchedule(txns, a, chain);
  ASSERT_TRUE(schedule.ok());
  EXPECT_TRUE(AllowedUnder(*schedule, a));
  EXPECT_FALSE(IsConflictSerializable(*schedule));
  // The split shape: T1's prefix first, T1's commit last among chain txns.
  EXPECT_EQ(schedule->order().front().txn, chain.t1);
}

TEST(SplitScheduleTest, ValidatorRejectsBrokenChains) {
  TransactionSet txns = Parse(kWriteSkew);
  Allocation a = Allocation::AllSI(2);
  CounterexampleChain chain = *CheckRobustness(txns, a).counterexample;

  CounterexampleChain bad = chain;
  bad.t2 = bad.t1;  // T2 must differ from T1.
  EXPECT_FALSE(ValidateSplitChain(txns, a, bad).ok());

  bad = chain;
  bad.b1 = OpRef{chain.t1, 99};  // Invalid reference.
  EXPECT_FALSE(ValidateSplitChain(txns, a, bad).ok());

  bad = chain;
  bad.a2 = OpRef{chain.t2, txns.txn(chain.t2).commit_index()};
  EXPECT_FALSE(ValidateSplitChain(txns, a, bad).ok());  // a2 not a write.

  // All-SSI violates condition (6).
  EXPECT_FALSE(ValidateSplitChain(txns, Allocation::AllSSI(2), chain).ok());
}

TEST(SplitScheduleTest, RemainingTransactionsAreAppended) {
  TransactionSet txns = Parse(R"(
    T1: R[x] W[y]
    T2: R[y] W[x]
    T3: R[q] W[q]
  )");
  Allocation a = Allocation::AllSI(3);
  RobustnessResult result = CheckRobustness(txns, a);
  ASSERT_FALSE(result.robust);
  StatusOr<Schedule> schedule =
      BuildSplitSchedule(txns, a, *result.counterexample);
  ASSERT_TRUE(schedule.ok());
  // T3 is not part of the chain; its operations come last.
  const std::vector<OpRef>& order = schedule->order();
  EXPECT_EQ(order[order.size() - 1].txn, 2u);
  EXPECT_EQ(order[order.size() - 3].txn, 2u);
  EXPECT_TRUE(VerifyCounterexample(txns, a, *result.counterexample).ok());
}

TEST(SplitScheduleTest, ChainToString) {
  TransactionSet txns = Parse(kWriteSkew);
  Allocation a = Allocation::AllSI(2);
  CounterexampleChain chain = *CheckRobustness(txns, a).counterexample;
  std::string text = chain.ToString(txns);
  EXPECT_NE(text.find("split"), std::string::npos);
  EXPECT_NE(text.find("T1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Algorithm 2 and the {RC, SI} setting.
// ---------------------------------------------------------------------------

TEST(OptimalAllocationTest, WriteSkewNeedsDoubleSsi) {
  TransactionSet txns = Parse(kWriteSkew);
  OptimalAllocationResult result = ComputeOptimalAllocation(txns);
  EXPECT_EQ(result.allocation, Allocation::AllSSI(2));
  EXPECT_GT(result.robustness_checks, 0u);
}

TEST(OptimalAllocationTest, LostUpdateLandsAtSi) {
  TransactionSet txns = Parse(kLostUpdate);
  OptimalAllocationResult result = ComputeOptimalAllocation(txns);
  EXPECT_EQ(result.allocation, Allocation::AllSI(2));
}

TEST(OptimalAllocationTest, IndependentTransactionsLandAtRc) {
  TransactionSet txns = Parse(R"(
    T1: R[x] W[x]
    T2: R[y] W[y]
    T3: R[z]
  )");
  OptimalAllocationResult result = ComputeOptimalAllocation(txns);
  EXPECT_EQ(result.allocation, Allocation::AllRC(3));
}

TEST(OptimalAllocationTest, ResultIsRobustAndLoweringBreaksIt) {
  TransactionSet txns = Figure2Txns();
  OptimalAllocationResult result = ComputeOptimalAllocation(txns);
  EXPECT_TRUE(CheckRobustness(txns, result.allocation).robust);
  for (TxnId t = 0; t < txns.size(); ++t) {
    IsolationLevel current = result.allocation.level(t);
    for (IsolationLevel lower : kAllIsolationLevels) {
      if (!(lower < current)) continue;
      EXPECT_FALSE(
          CheckRobustness(txns, result.allocation.With(t, lower)).robust)
          << "T" << t + 1 << " lowered to " << IsolationLevelToString(lower);
    }
  }
}

TEST(RcSiAllocationTest, WriteSkewIsNotAllocatable) {
  TransactionSet txns = Parse(kWriteSkew);
  OptimalAllocationResult result = RcSiOptimum(txns);
  EXPECT_FALSE(result.feasible);
  EXPECT_EQ(result.allocation.size(), 0u);
  ASSERT_TRUE(result.counterexample.has_value());
  EXPECT_TRUE(VerifyCounterexample(txns, Allocation::AllSI(2),
                                   *result.counterexample)
                  .ok());
}

TEST(RcSiAllocationTest, LostUpdateAllocatesToSi) {
  TransactionSet txns = Parse(kLostUpdate);
  OptimalAllocationResult result = RcSiOptimum(txns);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(result.allocation, Allocation::AllSI(2));
}

TEST(RcSiAllocationTest, MixedRcSiOutcome) {
  TransactionSet txns = Parse(R"(
    T1: R[x] W[x]
    T2: R[x] W[x]
    T3: R[q]
  )");
  OptimalAllocationResult result = RcSiOptimum(txns);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(result.allocation.level(0), IsolationLevel::kSI);
  EXPECT_EQ(result.allocation.level(1), IsolationLevel::kSI);
  EXPECT_EQ(result.allocation.level(2), IsolationLevel::kRC);
  // The result never uses SSI.
  EXPECT_EQ(result.allocation.CountAt(IsolationLevel::kSSI), 0u);
}

TEST(RobustnessTest, Figure2AgainstBruteForceOracle) {
  // Direct semantic confirmation at full scale: all 69300 interleavings of
  // the Figure 2 workload, under A_SI (robust) and the mixed allocation
  // that the Figure 2 schedule itself witnesses as non-robust.
  TransactionSet txns = Figure2Txns();
  StatusOr<BruteForceResult> si =
      BruteForceRobustness(txns, Allocation::AllSI(4));
  ASSERT_TRUE(si.ok());
  EXPECT_TRUE(si->robust);
  EXPECT_EQ(si->interleavings_checked, 69300u);

  Allocation mixed({IsolationLevel::kSI, IsolationLevel::kSI,
                    IsolationLevel::kSI, IsolationLevel::kRC});
  StatusOr<BruteForceResult> rc_mixed = BruteForceRobustness(txns, mixed);
  ASSERT_TRUE(rc_mixed.ok());
  EXPECT_FALSE(rc_mixed->robust);
}

TEST(RobustnessTest, FindAllCounterexamplesEnumerates) {
  // SmallBank-style core: several independent trouble spots.
  TransactionSet txns = Parse(R"(
    T1: R[s] R[c] W[c]
    T2: R[s] W[s]
    T3: R[s] R[c]
    T4: R[q] W[p]
    T5: R[p] W[q]
  )");
  Allocation alloc = Allocation::AllSI(5);
  std::vector<CounterexampleChain> chains =
      FindAllCounterexamples(txns, alloc);
  ASSERT_GE(chains.size(), 2u);
  // Every enumerated chain verifies end-to-end.
  for (const CounterexampleChain& chain : chains) {
    Status verified = VerifyCounterexample(txns, alloc, chain);
    EXPECT_TRUE(verified.ok()) << verified;
  }
  // Both trouble spots appear: a chain splitting T1 and one splitting
  // T4 or T5.
  bool bank = false;
  bool skew = false;
  for (const CounterexampleChain& chain : chains) {
    if (chain.t1 == 0) bank = true;
    if (chain.t1 == 3 || chain.t1 == 4) skew = true;
  }
  EXPECT_TRUE(bank);
  EXPECT_TRUE(skew);
  // The limit is honored; robust workloads yield nothing.
  EXPECT_EQ(FindAllCounterexamples(txns, alloc, 1).size(), 1u);
  EXPECT_TRUE(
      FindAllCounterexamples(txns, Allocation::AllSSI(5)).empty());
}

TEST(RcSiAllocationTest, Proposition51RcRobustImpliesSiRobust) {
  // Any workload robust against A_RC is robust against A_SI.
  for (const char* text :
       {"T1: R[x]\nT2: W[x]", "T1: R[x] W[x]\nT2: R[y] W[y]",
        "T1: W[x] W[y]\nT2: W[y] W[x]"}) {
    TransactionSet txns = Parse(text);
    if (CheckRobustnessRC(txns).robust) {
      EXPECT_TRUE(CheckRobustnessSI(txns).robust) << text;
    }
  }
}

}  // namespace
}  // namespace mvrob
