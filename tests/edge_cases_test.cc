// Corner-case coverage across modules: empty sets, commit-only and
// write-only transactions, degenerate graphs, driver limits, and empty
// engine runs.
#include <gtest/gtest.h>

#include "core/analyzer.h"
#include "core/optimal_allocation.h"
#include "core/robustness.h"
#include "iso/materialize.h"
#include "mvcc/driver.h"
#include "mvcc/trace.h"
#include "oracle/brute_force.h"
#include "oracle/mixed_iso_graph.h"
#include "oracle/reference_checker.h"
#include "oracle/statistics.h"
#include "schedule/serializability.h"
#include "txn/parser.h"
#include "workloads/synthetic.h"

namespace mvrob {
namespace {

TEST(EdgeCaseTest, EmptyTransactionSet) {
  TransactionSet txns;
  EXPECT_TRUE(txns.empty());
  EXPECT_EQ(txns.TotalOps(), 0);
  EXPECT_EQ(txns.MaxOpsPerTxn(), 0);
  EXPECT_TRUE(CheckRobustness(txns, Allocation(0, IsolationLevel::kRC))
                  .robust);
  EXPECT_EQ(ComputeOptimalAllocation(txns).allocation.size(), 0u);
  StatusOr<BruteForceResult> brute =
      BruteForceRobustness(txns, Allocation(0, IsolationLevel::kSI));
  ASSERT_TRUE(brute.ok());
  EXPECT_TRUE(brute->robust);
  EXPECT_EQ(brute->interleavings_checked, 1u);  // The empty interleaving.
}

TEST(EdgeCaseTest, CommitOnlyTransaction) {
  TransactionSet txns;
  ASSERT_TRUE(txns.AddTransaction("Empty", {}).ok());
  ASSERT_TRUE(
      txns.AddTransaction("Writer",
                          {Operation::Write(txns.InternObject("x"))})
          .ok());
  EXPECT_EQ(txns.txn(0).num_ops(), 1);
  EXPECT_TRUE(txns.txn(0).op(0).IsCommit());
  // first(T) is the commit itself.
  EXPECT_EQ(txns.txn(0).first_ref(), txns.txn(0).commit_ref());
  // Fully robust: a commit-only transaction conflicts with nothing.
  for (IsolationLevel l1 : kAllIsolationLevels) {
    for (IsolationLevel l2 : kAllIsolationLevels) {
      EXPECT_TRUE(CheckRobustness(txns, Allocation({l1, l2})).robust);
    }
  }
  // It also schedules fine.
  StatusOr<Schedule> serial = Schedule::SingleVersionSerial(&txns, {0, 1});
  ASSERT_TRUE(serial.ok());
  EXPECT_TRUE(IsConflictSerializable(*serial));
}

TEST(EdgeCaseTest, WriteOnlyTransactionsCannotBeSplit) {
  // Without reads there is no b1: any all-writer workload is robust
  // regardless of levels (blind writes order by commit time).
  StatusOr<TransactionSet> txns = ParseTransactionSet(R"(
    T1: W[x] W[y]
    T2: W[y] W[x]
    T3: W[x]
  )");
  ASSERT_TRUE(txns.ok());
  for (IsolationLevel level : kAllIsolationLevels) {
    EXPECT_TRUE(CheckRobustness(*txns, Allocation(3, level)).robust);
  }
  StatusOr<BruteForceResult> brute =
      BruteForceRobustness(*txns, Allocation::AllRC(3));
  ASSERT_TRUE(brute.ok());
  EXPECT_TRUE(brute->robust);
}

TEST(EdgeCaseTest, ReadOnlyWorkloadIsTriviallyRobust) {
  StatusOr<TransactionSet> txns = ParseTransactionSet(R"(
    T1: R[x] R[y]
    T2: R[y] R[x]
  )");
  ASSERT_TRUE(txns.ok());
  Allocation optimal = ComputeOptimalAllocation(*txns).allocation;
  EXPECT_EQ(optimal, Allocation::AllRC(2));
}

TEST(EdgeCaseTest, IdenticalTransactions) {
  StatusOr<TransactionSet> txns = ParseTransactionSet(R"(
    T1: R[x] W[x]
    T2: R[x] W[x]
    T3: R[x] W[x]
  )");
  ASSERT_TRUE(txns.ok());
  // Lost-update triple: SI everywhere, nothing lower, nothing higher.
  EXPECT_EQ(ComputeOptimalAllocation(*txns).allocation,
            Allocation::AllSI(3));
}

TEST(EdgeCaseTest, MixedIsoGraphEmptyWhenEverythingConflicts) {
  StatusOr<TransactionSet> txns = ParseTransactionSet(R"(
    T1: R[x]
    T2: W[x]
    T3: W[x]
  )");
  ASSERT_TRUE(txns.ok());
  MixedIsoGraph graph(*txns, 0, {});
  EXPECT_TRUE(graph.nodes().empty());
  EXPECT_FALSE(graph.Connected(1, 2));
  // Direct conflict still yields an (empty) inner chain.
  auto chain = graph.FindInnerChain(1, 2);
  ASSERT_TRUE(chain.has_value());
  EXPECT_TRUE(chain->empty());
}

TEST(EdgeCaseTest, AnalyzerHandlesDegenerateSets) {
  TransactionSet empty;
  RobustnessAnalyzer analyzer(empty);
  EXPECT_TRUE(analyzer.Check(Allocation(0, IsolationLevel::kSI)).robust);

  TransactionSet single;
  ASSERT_TRUE(
      single.AddTransaction("", {Operation::Read(single.InternObject("x"))})
          .ok());
  RobustnessAnalyzer one(single);
  EXPECT_TRUE(one.Check(Allocation::AllRC(1)).robust);
}

TEST(EdgeCaseTest, CountInterleavingsSaturates) {
  SyntheticParams params;
  params.num_txns = 30;
  params.min_ops = 6;
  params.max_ops = 6;
  TransactionSet txns = GenerateSynthetic(params);
  EXPECT_EQ(CountInterleavings(txns, 12345), 12345u);
  TransactionSet empty;
  EXPECT_EQ(CountInterleavings(empty, 100), 1u);
}

TEST(EdgeCaseTest, MaterializeEmptyOrder) {
  TransactionSet txns;
  StatusOr<Schedule> schedule =
      MaterializeSchedule(&txns, {}, Allocation(0, IsolationLevel::kRC));
  ASSERT_TRUE(schedule.ok());
  EXPECT_EQ(schedule->num_ops(), 0u);
  EXPECT_TRUE(IsConflictSerializable(*schedule));
}

TEST(EdgeCaseTest, DriverEmptyProgramsAndStepLimit) {
  TransactionSet empty;
  Engine engine(0);
  RandomRunOptions options;
  DriverReport report =
      RunRandom(engine, empty, Allocation(0, IsolationLevel::kRC), options);
  EXPECT_EQ(report.committed, 0u);

  // A livelock-ish configuration stopped by max_steps: two writers on one
  // object with zero retries and a tiny step budget.
  StatusOr<TransactionSet> txns = ParseTransactionSet(R"(
    T1: W[h] W[h2]
    T2: W[h2] W[h]
  )");
  ASSERT_TRUE(txns.ok());
  Engine engine2(txns->num_objects());
  RandomRunOptions tight;
  tight.max_steps = 3;
  DriverReport limited = RunRandom(engine2, *txns,
                                   Allocation::AllRC(2), tight);
  EXPECT_LE(limited.committed, 2u);  // Must terminate either way.
}

TEST(EdgeCaseTest, ExportWithNoCommittedSessions) {
  TransactionSet txns;
  ObjectId x = txns.InternObject("x");
  Engine engine(1);
  SessionId s = engine.Begin(IsolationLevel::kSI);
  ASSERT_EQ(engine.Write(s, x, 1).status, StepStatus::kOk);
  engine.Abort(s);
  StatusOr<ExportedRun> run = ExportCommittedRun(engine, txns);
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->txns.empty());
  StatusOr<Schedule> schedule = run->BuildSchedule();
  ASSERT_TRUE(schedule.ok());
  EXPECT_EQ(schedule->num_ops(), 0u);
}

TEST(EdgeCaseTest, ExportRejectsDoubleWrites) {
  // A session writing the same object twice has no faithful formal image.
  TransactionSet names;
  names.InternObject("x");
  Engine engine(1);
  SessionId s = engine.Begin(IsolationLevel::kRC);
  ASSERT_EQ(engine.Write(s, 0, 1).status, StepStatus::kOk);
  ASSERT_EQ(engine.Write(s, 0, 2).status, StepStatus::kOk);
  ASSERT_EQ(engine.Commit(s).status, StepStatus::kOk);
  StatusOr<ExportedRun> run = ExportCommittedRun(engine, names);
  EXPECT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
}

TEST(EdgeCaseTest, CensusOnEmptySet) {
  TransactionSet txns;
  StatusOr<ScheduleCensus> census =
      ComputeScheduleCensus(txns, Allocation(0, IsolationLevel::kSI));
  ASSERT_TRUE(census.ok());
  EXPECT_EQ(census->interleavings, 1u);
  EXPECT_EQ(census->allowed, 1u);
  EXPECT_EQ(census->anomalous, 0u);
}

TEST(EdgeCaseTest, ParseAllocationEmptySpecUsesFallback) {
  StatusOr<TransactionSet> txns = ParseTransactionSet("T1: R[x]");
  ASSERT_TRUE(txns.ok());
  StatusOr<Allocation> alloc =
      ParseAllocation(*txns, "", IsolationLevel::kSSI);
  ASSERT_TRUE(alloc.ok());
  EXPECT_EQ(alloc->level(0), IsolationLevel::kSSI);
}

TEST(EdgeCaseTest, ConcurrencyWithCommitOnlyTransactions) {
  // A commit-only transaction is "concurrent" with nothing in the formal
  // sense only if its single operation overlaps — check both layouts.
  TransactionSet txns;
  ASSERT_TRUE(txns.AddTransaction("A", {}).ok());
  ObjectId x = txns.InternObject("x");
  ASSERT_TRUE(txns.AddTransaction("B", {Operation::Read(x)}).ok());
  // Interleaved: C_A between B's read and commit.
  StatusOr<Schedule> s = Schedule::SingleVersion(
      &txns, {OpRef{1, 0}, OpRef{0, 0}, OpRef{1, 1}});
  ASSERT_TRUE(s.ok());
  EXPECT_TRUE(s->Concurrent(0, 1));
  // Serial: not concurrent.
  StatusOr<Schedule> serial = Schedule::SingleVersionSerial(&txns, {0, 1});
  ASSERT_TRUE(serial.ok());
  EXPECT_FALSE(serial->Concurrent(0, 1));
}

}  // namespace
}  // namespace mvrob
