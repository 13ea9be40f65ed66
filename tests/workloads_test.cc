#include <gtest/gtest.h>

#include "core/optimal_allocation.h"
#include "fixtures.h"
#include "oracle/reference_checker.h"
#include "txn/parser.h"
#include "workloads/auction.h"
#include "workloads/stats.h"
#include "workloads/smallbank.h"
#include "workloads/synthetic.h"
#include "workloads/tpcc.h"
#include "workloads/voter.h"

namespace mvrob {
namespace {

TEST(SyntheticTest, DeterministicForSeed) {
  SyntheticParams params;
  params.seed = 17;
  EXPECT_EQ(GenerateSynthetic(params).ToString(),
            GenerateSynthetic(params).ToString());
  SyntheticParams other = params;
  other.seed = 18;
  EXPECT_NE(GenerateSynthetic(params).ToString(),
            GenerateSynthetic(other).ToString());
}

TEST(SyntheticTest, RespectsParameters) {
  SyntheticParams params;
  params.num_txns = 7;
  params.num_objects = 5;
  params.min_ops = 2;
  params.max_ops = 4;
  params.seed = 3;
  TransactionSet txns = GenerateSynthetic(params);
  EXPECT_EQ(txns.size(), 7u);
  EXPECT_LE(txns.num_objects(), 5u);
  for (const Transaction& txn : txns.txns()) {
    EXPECT_GE(txn.num_ops(), 2);      // >= 1 rw op + commit.
    EXPECT_LE(txn.num_ops(), 4 + 1);  // <= max_ops + commit.
  }
  EXPECT_TRUE(txns.HasAtMostOneAccessPerObject());
}

TEST(SyntheticTest, GeneralRegimeAllowsRepeatedAccesses) {
  SyntheticParams params;
  params.at_most_one_access = false;
  params.num_txns = 10;
  params.num_objects = 2;
  params.min_ops = 4;
  params.max_ops = 6;
  params.seed = 5;
  TransactionSet txns = GenerateSynthetic(params);
  EXPECT_FALSE(txns.HasAtMostOneAccessPerObject());
}

TEST(SyntheticTest, HotspotConcentratesAccesses) {
  SyntheticParams params;
  params.num_txns = 30;
  params.num_objects = 20;
  params.min_ops = 3;
  params.max_ops = 3;
  params.hotspot_fraction = 1.0;
  params.num_hotspots = 1;
  params.at_most_one_access = false;
  params.seed = 9;
  TransactionSet txns = GenerateSynthetic(params);
  ObjectId hot = txns.FindObject("x0");
  for (const Transaction& txn : txns.txns()) {
    for (const Operation& op : txn.ops()) {
      if (!op.IsCommit()) {
        EXPECT_EQ(op.object, hot);
      }
    }
  }
}

TEST(WorkloadStatsTest, CountsMatchHandComputation) {
  StatusOr<TransactionSet> txns = ParseTransactionSet(R"(
    T1: R[x] W[y]
    T2: R[y] W[x]
    T3: R[x] R[y]
  )");
  ASSERT_TRUE(txns.ok());
  WorkloadStats stats = ComputeWorkloadStats(*txns);
  EXPECT_EQ(stats.num_txns, 3u);
  EXPECT_EQ(stats.num_objects, 2u);
  EXPECT_EQ(stats.reads, 4);
  EXPECT_EQ(stats.writes, 2);
  EXPECT_EQ(stats.read_only_txns, 1u);
  EXPECT_EQ(stats.conflicting_pairs, 3u);   // All pairs conflict.
  EXPECT_EQ(stats.vulnerable_pairs, 3u);    // All have rw and disjoint W.
  EXPECT_DOUBLE_EQ(stats.ConflictDensity(), 1.0);
  EXPECT_EQ(stats.hottest_object_touches, 3u);
  EXPECT_FALSE(stats.ToString().empty());
}

TEST(WorkloadStatsTest, WwPairsAreNotVulnerable) {
  StatusOr<TransactionSet> txns = ParseTransactionSet(R"(
    T1: R[h] W[h]
    T2: R[h] W[h]
  )");
  ASSERT_TRUE(txns.ok());
  WorkloadStats stats = ComputeWorkloadStats(*txns);
  EXPECT_EQ(stats.conflicting_pairs, 1u);
  EXPECT_EQ(stats.vulnerable_pairs, 0u);  // Shared write set disarms rw.
}

// ---------------------------------------------------------------------------
// TPC-C: the folklore results of the paper's introduction.
// ---------------------------------------------------------------------------

TEST(TpccTest, GeneratesFiveProgramsPerDistrictRound) {
  TpccParams params;
  Workload tpcc = MakeTpcc(params);
  EXPECT_EQ(tpcc.txns.size(),
            5u * params.warehouses * params.districts_per_warehouse *
                params.rounds);
  EXPECT_TRUE(tpcc.txns.HasAtMostOneAccessPerObject());
  EXPECT_NE(tpcc.txns.FindTransaction("NewOrder_0_0_r0"), kInvalidTxnId);
  EXPECT_NE(tpcc.txns.FindTransaction("StockLevel_0_1_r0"), kInvalidTxnId);
}

TEST(TpccTest, RobustAgainstSiButNotRc) {
  // The famous folklore result: TPC-C is robust against SI (so SSI's extra
  // monitoring buys nothing), but it is not robust against RC.
  Workload tpcc = MakeTpcc(TpccParams{});
  EXPECT_TRUE(CheckRobustnessSI(tpcc.txns).robust);
  EXPECT_FALSE(CheckRobustnessRC(tpcc.txns).robust);
}

TEST(TpccTest, OptimalAllocationIsAllSi) {
  // Every TPC-C program either read-modify-writes a contended column
  // (NewOrder, Payment, Delivery: the RC counterflow case applies) or reads
  // several objects written by different writers (OrderStatus, StockLevel),
  // so no transaction can be lowered to RC — and none needs SSI. The
  // optimal allocation is exactly A_SI.
  Workload tpcc = MakeTpcc(TpccParams{});
  OptimalAllocationResult result = ComputeOptimalAllocation(tpcc.txns);
  EXPECT_EQ(result.allocation, Allocation::AllSI(tpcc.txns.size()));
  EXPECT_TRUE(CheckRobustness(tpcc.txns, result.allocation).robust);
}

TEST(TpccTest, RcSiAllocatable) {
  Workload tpcc = MakeTpcc(TpccParams{});
  OptimalAllocationResult result = RcSiOptimum(tpcc.txns);
  EXPECT_TRUE(result.feasible);
}

TEST(TpccTest, LargerInstantiationStaysSiRobust) {
  TpccParams params;
  params.warehouses = 2;
  params.districts_per_warehouse = 2;
  params.rounds = 2;
  params.customers_per_district = 2;
  Workload tpcc = MakeTpcc(params);
  EXPECT_EQ(tpcc.txns.size(), 40u);
  EXPECT_TRUE(CheckRobustnessSI(tpcc.txns).robust);
  EXPECT_FALSE(CheckRobustnessRC(tpcc.txns).robust);
}

// ---------------------------------------------------------------------------
// SmallBank: the canonical SI-anomalous workload.
// ---------------------------------------------------------------------------

TEST(SmallBankTest, NotRobustAgainstSiNorRc) {
  Workload bank = MakeSmallBank(SmallBankParams{});
  EXPECT_FALSE(CheckRobustnessSI(bank.txns).robust);
  EXPECT_FALSE(CheckRobustnessRC(bank.txns).robust);
  EXPECT_TRUE(CheckRobustnessSSI(bank.txns).robust);
}

TEST(SmallBankTest, NotRcSiAllocatable) {
  Workload bank = MakeSmallBank(SmallBankParams{});
  OptimalAllocationResult result = RcSiOptimum(bank.txns);
  EXPECT_FALSE(result.feasible);
  ASSERT_TRUE(result.counterexample.has_value());
}

TEST(SmallBankTest, OptimalAllocationUsesSsi) {
  Workload bank = MakeSmallBank(SmallBankParams{});
  OptimalAllocationResult result = ComputeOptimalAllocation(bank.txns);
  EXPECT_GT(result.allocation.CountAt(IsolationLevel::kSSI), 0u);
  EXPECT_TRUE(CheckRobustness(bank.txns, result.allocation).robust);
}

// ---------------------------------------------------------------------------
// Auction: a workload whose optimum mixes all three levels.
// ---------------------------------------------------------------------------

TEST(VoterTest, CountersLandAtSiIncludingTheLeaderboard) {
  VoterParams params;
  params.contestants = 2;
  params.callers = 2;
  Workload voter = MakeVoter(params);
  EXPECT_EQ(voter.txns.size(), 5u);  // 4 votes + leaderboard.
  // Lost-update counters: not robust at RC, robust at SI.
  EXPECT_FALSE(CheckRobustnessRC(voter.txns).robust);
  EXPECT_TRUE(CheckRobustnessSI(voter.txns).robust);
  OptimalAllocationResult result = ComputeOptimalAllocation(voter.txns);
  EXPECT_EQ(result.allocation, Allocation::AllSI(voter.txns.size()));
  // The read-only leaderboard cannot drop to RC: an RC scan across
  // counters can observe a non-serializable mix of totals.
  TxnId board = voter.txns.FindTransaction("Leaderboard");
  ASSERT_NE(board, kInvalidTxnId);
  EXPECT_FALSE(
      CheckRobustness(voter.txns,
                      result.allocation.With(board, IsolationLevel::kRC))
          .robust);
}

TEST(VoterTest, SingleContestantLeaderboardDropsToRc) {
  // With one contestant the leaderboard reads a single object: RC is safe.
  VoterParams params;
  params.contestants = 1;
  params.callers = 2;
  Workload voter = MakeVoter(params);
  OptimalAllocationResult result = ComputeOptimalAllocation(voter.txns);
  TxnId board = voter.txns.FindTransaction("Leaderboard");
  ASSERT_NE(board, kInvalidTxnId);
  EXPECT_EQ(result.allocation.level(board), IsolationLevel::kRC);
}

TEST(AuctionTest, OptimalAllocationMixesAllThreeLevels) {
  Workload auction = MakeAuction(AuctionParams{});
  OptimalAllocationResult result = ComputeOptimalAllocation(auction.txns);
  EXPECT_GT(result.allocation.CountAt(IsolationLevel::kRC), 0u);
  EXPECT_GT(result.allocation.CountAt(IsolationLevel::kSI), 0u);
  EXPECT_GT(result.allocation.CountAt(IsolationLevel::kSSI), 0u);
  EXPECT_TRUE(CheckRobustness(auction.txns, result.allocation).robust);

  // The single-object reader runs at RC; the multi-object reader cannot
  // (an RC read spanning several writers can observe a non-serializable
  // mix of states).
  TxnId get_bid = auction.txns.FindTransaction("GetHighBid_0");
  ASSERT_NE(get_bid, kInvalidTxnId);
  EXPECT_EQ(result.allocation.level(get_bid), IsolationLevel::kRC);
  TxnId viewer = auction.txns.FindTransaction("ViewItem_0");
  ASSERT_NE(viewer, kInvalidTxnId);
  EXPECT_EQ(result.allocation.level(viewer), IsolationLevel::kSI);
}

TEST(AuctionTest, BidCloseSkewNeedsSsi) {
  AuctionParams params;
  params.bidders = 1;
  params.edits = 0;
  params.with_viewers = false;
  Workload auction = MakeAuction(params);
  // PlaceBid and CloseAuction alone form a write-skew pair.
  EXPECT_FALSE(CheckRobustnessSI(auction.txns).robust);
  OptimalAllocationResult result = ComputeOptimalAllocation(auction.txns);
  EXPECT_EQ(result.allocation.CountAt(IsolationLevel::kSSI), 2u);
}

}  // namespace
}  // namespace mvrob
