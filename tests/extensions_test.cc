// Tests for the extension layer: anomaly classification, version-store
// vacuum, the YCSB workload, and the incremental allocator.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/incremental.h"
#include "core/optimal_allocation.h"
#include "iso/materialize.h"
#include "mvcc/engine.h"
#include "oracle/reference_checker.h"
#include "schedule/anomaly.h"
#include "txn/parser.h"
#include "workloads/ycsb.h"

namespace mvrob {
namespace {

TransactionSet Parse(const char* text) {
  StatusOr<TransactionSet> txns = ParseTransactionSet(text);
  EXPECT_TRUE(txns.ok()) << txns.status();
  return std::move(txns).value();
}

Schedule Materialize(const TransactionSet& txns, const char* order,
                     const Allocation& alloc) {
  StatusOr<std::vector<OpRef>> parsed = ParseScheduleOrder(txns, order);
  EXPECT_TRUE(parsed.ok()) << parsed.status();
  StatusOr<Schedule> schedule = MaterializeSchedule(&txns, *parsed, alloc);
  EXPECT_TRUE(schedule.ok()) << schedule.status();
  return std::move(schedule).value();
}

// ---------------------------------------------------------------------------
// Anomaly classification.
// ---------------------------------------------------------------------------

TEST(AnomalyTest, ClassifiesWriteSkew) {
  TransactionSet txns = Parse("T1: R[x] W[y]\nT2: R[y] W[x]");
  Schedule s = Materialize(txns, "R1[x] R2[y] W1[y] W2[x] C1 C2",
                           Allocation::AllSI(2));
  std::vector<AnomalyReport> anomalies = FindAnomalies(s);
  ASSERT_EQ(anomalies.size(), 1u);
  EXPECT_EQ(anomalies[0].kind, AnomalyKind::kWriteSkew);
  EXPECT_EQ(anomalies[0].cycle.size(), 2u);
  EXPECT_NE(anomalies[0].ToString(txns).find("write skew"),
            std::string::npos);
}

TEST(AnomalyTest, ClassifiesLostUpdate) {
  TransactionSet txns = Parse("T1: R[x] W[x]\nT2: R[x] W[x]");
  Schedule s = Materialize(txns, "R1[x] R2[x] W1[x] C1 W2[x] C2",
                           Allocation::AllRC(2));
  std::vector<AnomalyReport> anomalies = FindAnomalies(s);
  ASSERT_EQ(anomalies.size(), 1u);
  EXPECT_EQ(anomalies[0].kind, AnomalyKind::kLostUpdate);
}

TEST(AnomalyTest, ClassifiesReadSkew) {
  // T2 reads x before T1's update and y after it: one antidependency
  // T2 -> T1 plus a wr dependency T1 -> T2.
  TransactionSet txns = Parse("T1: W[x] W[y]\nT2: R[x] R[y]");
  Schedule s = Materialize(txns, "R2[x] W1[x] W1[y] C1 R2[y] C2",
                           Allocation::AllRC(2));
  std::vector<AnomalyReport> anomalies = FindAnomalies(s);
  ASSERT_EQ(anomalies.size(), 1u);
  EXPECT_EQ(anomalies[0].kind, AnomalyKind::kReadSkew);
}

TEST(AnomalyTest, SerializableScheduleHasNoAnomalies) {
  TransactionSet txns = Parse("T1: R[x] W[y]\nT2: R[y] W[x]");
  Schedule s = Materialize(txns, "R1[x] W1[y] C1 R2[y] W2[x] C2",
                           Allocation::AllSI(2));
  EXPECT_TRUE(FindAnomalies(s).empty());
}

TEST(AnomalyTest, MultipleComponentsReportSeparately) {
  // Two independent write-skew pairs: two SCCs, two reports.
  TransactionSet txns = Parse(R"(
    T1: R[x] W[y]
    T2: R[y] W[x]
    T3: R[a] W[b]
    T4: R[b] W[a]
  )");
  Schedule s = Materialize(
      txns, "R1[x] R2[y] W1[y] W2[x] C1 C2 R3[a] R4[b] W3[b] W4[a] C3 C4",
      Allocation::AllSI(4));
  std::vector<AnomalyReport> anomalies = FindAnomalies(s);
  ASSERT_EQ(anomalies.size(), 2u);
  EXPECT_EQ(anomalies[0].kind, AnomalyKind::kWriteSkew);
  EXPECT_EQ(anomalies[1].kind, AnomalyKind::kWriteSkew);
}

// ---------------------------------------------------------------------------
// Vacuum.
// ---------------------------------------------------------------------------

TEST(VacuumTest, StoreDropsOnlyUnreachableVersions) {
  VersionStore store(1);
  store.Install(0, StoredVersion{1, 0, 1});
  store.Install(0, StoredVersion{2, 1, 2});
  store.Install(0, StoredVersion{3, 2, 3});
  EXPECT_EQ(store.TotalVersions(), 4u);  // Initial + 3.
  // Horizon 2: the newest version <= 2 (ts 2) must survive.
  EXPECT_EQ(store.Vacuum(2), 2u);  // Initial and ts-1 dropped.
  EXPECT_EQ(store.TotalVersions(), 2u);
  EXPECT_EQ(store.SnapshotRead(0, 2).value, 2);
  EXPECT_EQ(store.SnapshotRead(0, 9).value, 3);
  // Idempotent.
  EXPECT_EQ(store.Vacuum(2), 0u);
}

TEST(VacuumTest, EngineHorizonRespectsActiveSnapshots) {
  Engine engine(1);
  // Three committed versions.
  for (int i = 0; i < 3; ++i) {
    SessionId w = engine.Begin(IsolationLevel::kRC);
    ASSERT_EQ(engine.Write(w, 0, i + 1).status, StepStatus::kOk);
    ASSERT_EQ(engine.Commit(w).status, StepStatus::kOk);
  }
  // An SI reader pinned at the current snapshot; then one more version.
  SessionId pinned = engine.Begin(IsolationLevel::kSI);
  (void)engine.Read(pinned, 0);
  SessionId w = engine.Begin(IsolationLevel::kRC);
  ASSERT_EQ(engine.Write(w, 0, 99).status, StepStatus::kOk);
  ASSERT_EQ(engine.Commit(w).status, StepStatus::kOk);

  size_t before = engine.store().TotalVersions();
  size_t dropped = engine.Vacuum();
  EXPECT_GT(dropped, 0u);
  EXPECT_EQ(engine.store().TotalVersions(), before - dropped);
  // The pinned snapshot still reads its version (value 3).
  EXPECT_EQ(engine.Read(pinned, 0).value, 3);
  ASSERT_EQ(engine.Commit(pinned).status, StepStatus::kOk);
  // With no active snapshots, everything but the newest goes.
  engine.Vacuum();
  EXPECT_EQ(engine.store().TotalVersions(), 1u);
  EXPECT_EQ(engine.store().Latest(0).value, 99);
}

// ---------------------------------------------------------------------------
// YCSB.
// ---------------------------------------------------------------------------

TEST(YcsbTest, MixesMatchParameters) {
  Workload read_only = MakeYcsb(YcsbParams::MixC());
  for (const Transaction& txn : read_only.txns.txns()) {
    EXPECT_TRUE(txn.write_set().empty()) << txn.name();
  }
  Workload update_heavy = MakeYcsb(YcsbParams::MixF());
  int updaters = 0;
  for (const Transaction& txn : update_heavy.txns.txns()) {
    if (!txn.write_set().empty()) {
      ++updaters;
      // Updaters read-modify-write: read set equals write set.
      EXPECT_EQ(txn.read_set(), txn.write_set());
    }
  }
  EXPECT_GT(updaters, update_heavy.txns.txns().size() / 2);
  EXPECT_TRUE(update_heavy.txns.HasAtMostOneAccessPerObject());
}

TEST(YcsbTest, ZipfSkewConcentratesOnLowKeys) {
  YcsbParams params;
  params.num_txns = 200;
  params.num_keys = 50;
  params.zipf_theta = 0.99;
  params.seed = 3;
  Workload skewed = MakeYcsb(params);
  ObjectId key0 = skewed.txns.FindObject("key0");
  ObjectId key49 = skewed.txns.FindObject("key49");
  int hot = 0;
  int cold = 0;
  for (const Transaction& txn : skewed.txns.txns()) {
    if (txn.Reads(key0)) ++hot;
    if (key49 != kInvalidObjectId && txn.Reads(key49)) ++cold;
  }
  EXPECT_GT(hot, cold * 3);
}

TEST(YcsbTest, ReadOnlyMixIsFullyRobust) {
  Workload read_only = MakeYcsb(YcsbParams::MixC());
  OptimalAllocationResult result =
      ComputeOptimalAllocation(read_only.txns);
  EXPECT_EQ(result.allocation,
            Allocation::AllRC(read_only.txns.size()));
}

TEST(YcsbTest, UpdateMixNeedsSiForUpdaters) {
  YcsbParams params = YcsbParams::MixA();
  params.seed = 1;
  Workload mix = MakeYcsb(params);
  OptimalAllocationResult result = ComputeOptimalAllocation(mix.txns);
  EXPECT_TRUE(CheckRobustness(mix.txns, result.allocation).robust);
  // RMW transactions form lost-update pairs on hot keys: some SI needed.
  EXPECT_GT(result.allocation.CountAt(IsolationLevel::kSI), 0u);
  EXPECT_EQ(result.allocation.CountAt(IsolationLevel::kSSI), 0u);
}

// ---------------------------------------------------------------------------
// Incremental allocator.
// ---------------------------------------------------------------------------

TEST(IncrementalTest, MatchesFromScratchAfterEveryAdd) {
  IncrementalAllocator incremental;
  ObjectId x = incremental.InternObject("x");
  ObjectId y = incremental.InternObject("y");
  ObjectId q = incremental.InternObject("q");

  std::vector<std::vector<Operation>> programs = {
      {Operation::Read(x), Operation::Write(y)},
      {Operation::Read(q)},
      {Operation::Read(y), Operation::Write(x)},
      {Operation::Read(x), Operation::Write(x)},
      {Operation::Read(y)},
  };
  for (const std::vector<Operation>& ops : programs) {
    ASSERT_TRUE(incremental.AddTransaction("", ops).ok());
    Allocation from_scratch =
        ComputeOptimalAllocation(incremental.txns()).allocation;
    EXPECT_EQ(incremental.allocation(), from_scratch)
        << incremental.txns().ToString();
  }
}

TEST(IncrementalTest, LevelsNeverDecreaseOnAdd) {
  IncrementalAllocator incremental;
  ObjectId x = incremental.InternObject("x");
  ObjectId y = incremental.InternObject("y");
  ASSERT_TRUE(
      incremental.AddTransaction("", {Operation::Read(x)}).ok());
  Allocation before = incremental.allocation();
  EXPECT_EQ(before.level(0), IsolationLevel::kRC);
  // Adding the write-skew partner raises T1.
  ASSERT_TRUE(incremental
                  .AddTransaction("", {Operation::Read(y),
                                       Operation::Write(x)})
                  .ok());
  ASSERT_TRUE(incremental
                  .AddTransaction("", {Operation::Read(x),
                                       Operation::Write(y)})
                  .ok());
  for (TxnId t = 0; t < before.size(); ++t) {
    EXPECT_TRUE(before.level(t) <= incremental.allocation().level(t));
  }
}

TEST(IncrementalTest, RemoveRecomputes) {
  IncrementalAllocator incremental;
  ObjectId x = incremental.InternObject("x");
  ObjectId y = incremental.InternObject("y");
  ASSERT_TRUE(incremental
                  .AddTransaction("A", {Operation::Read(x),
                                        Operation::Write(y)})
                  .ok());
  ASSERT_TRUE(incremental
                  .AddTransaction("B", {Operation::Read(y),
                                        Operation::Write(x)})
                  .ok());
  EXPECT_EQ(incremental.allocation().CountAt(IsolationLevel::kSSI), 2u);
  // Dropping one half of the skew pair relaxes the other to RC.
  ASSERT_TRUE(incremental.RemoveTransaction(0).ok());
  EXPECT_EQ(incremental.txns().size(), 1u);
  EXPECT_EQ(incremental.txns().txn(0).name(), "B");
  EXPECT_EQ(incremental.allocation().level(0), IsolationLevel::kRC);
  EXPECT_FALSE(incremental.RemoveTransaction(7).ok());
}

TEST(IncrementalTest, RandomSequencesMatchFromScratch) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(seed);
    IncrementalAllocator incremental;
    std::vector<ObjectId> objects;
    for (int o = 0; o < 4; ++o) {
      objects.push_back(incremental.InternObject("o" + std::to_string(o)));
    }
    for (int step = 0; step < 8; ++step) {
      std::vector<Operation> ops;
      int count = 1 + static_cast<int>(rng.Index(3));
      for (int k = 0; k < count; ++k) {
        ObjectId object = objects[rng.Index(objects.size())];
        ops.push_back(rng.Bernoulli(0.5) ? Operation::Write(object)
                                         : Operation::Read(object));
      }
      ASSERT_TRUE(incremental.AddTransaction("", std::move(ops)).ok());
      EXPECT_EQ(incremental.allocation(),
                ComputeOptimalAllocation(incremental.txns()).allocation)
          << incremental.txns().ToString();
    }
  }
}

}  // namespace
}  // namespace mvrob
