// The paper assumes at most one read and one write per object per
// transaction and states that all results carry over to the general
// setting. This file exercises the general regime deliberately:
// transactions with repeated reads, read-after-write and multiple writes,
// through the model, the checkers and the brute-force oracle.
#include <gtest/gtest.h>

#include "core/robustness.h"
#include "core/split_schedule.h"
#include "iso/allowed.h"
#include "iso/materialize.h"
#include "oracle/brute_force.h"
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

TEST(GeneralRegimeTest, RepeatedReadsSeeDifferentVersionsUnderRc) {
  // The textbook non-repeatable read: T1 reads x twice at RC with a commit
  // in between — the two reads observe different versions.
  TransactionSet txns = Parse(R"(
    T1: R[x] R[x]
    T2: W[x]
  )");
  StatusOr<Schedule> rc = MaterializeSchedule(
      &txns, *ParseScheduleOrder(txns, "R1[x] W2[x] C2 R1[x] C1"),
      Allocation::AllRC(2));
  ASSERT_TRUE(rc.ok());
  EXPECT_EQ(rc->VersionRead(OpRef{0, 0}), OpRef::Op0());
  EXPECT_EQ(rc->VersionRead(OpRef{0, 1}), (OpRef{1, 0}));
  EXPECT_TRUE(AllowedUnder(*rc, Allocation::AllRC(2)));
  // This very schedule is not serializable: T1 observes both before and
  // after T2 — and indeed the workload is not robust against A_RC.
  EXPECT_FALSE(IsConflictSerializable(*rc));
  EXPECT_FALSE(CheckRobustnessRC(txns).robust);

  // Under SI both reads anchor at first(T1): same version, serializable,
  // and the workload is robust against A_SI.
  StatusOr<Schedule> si = MaterializeSchedule(
      &txns, *ParseScheduleOrder(txns, "R1[x] W2[x] C2 R1[x] C1"),
      Allocation::AllSI(2));
  ASSERT_TRUE(si.ok());
  EXPECT_EQ(si->VersionRead(OpRef{0, 1}), OpRef::Op0());
  EXPECT_TRUE(IsConflictSerializable(*si));
  EXPECT_TRUE(CheckRobustnessSI(txns).robust);
}

TEST(GeneralRegimeTest, NonRepeatableReadMatchesBruteForce) {
  TransactionSet txns = Parse(R"(
    T1: R[x] R[x]
    T2: W[x]
  )");
  for (IsolationLevel level : kAllIsolationLevels) {
    Allocation alloc(2, level);
    StatusOr<BruteForceResult> brute = BruteForceRobustness(txns, alloc);
    ASSERT_TRUE(brute.ok());
    RobustnessResult algorithm = CheckRobustness(txns, alloc);
    EXPECT_EQ(algorithm.robust, brute->robust)
        << IsolationLevelToString(level);
    if (!algorithm.robust) {
      EXPECT_TRUE(
          VerifyCounterexample(txns, alloc, *algorithm.counterexample).ok());
    }
  }
}

TEST(GeneralRegimeTest, MultipleWritesInstallMultipleVersions) {
  // T1 writes x twice: both versions are installed (program order within
  // the transaction, commit order across transactions).
  TransactionSet txns = Parse(R"(
    T1: W[x] W[x]
    T2: R[x]
  )");
  StatusOr<Schedule> s = MaterializeSchedule(
      &txns, *ParseScheduleOrder(txns, "W1[x] W1[x] C1 R2[x] C2"),
      Allocation::AllSI(2));
  ASSERT_TRUE(s.ok());
  ObjectId x = txns.FindObject("x");
  ASSERT_EQ(s->VersionsOf(x).size(), 2u);
  EXPECT_TRUE(s->VersionBefore(OpRef{0, 0}, OpRef{0, 1}));
  // The reader observes the LAST write of T1 (the newest version).
  EXPECT_EQ(s->VersionRead(OpRef{1, 0}), (OpRef{0, 1}));
  EXPECT_TRUE(IsConflictSerializable(*s));
}

TEST(GeneralRegimeTest, ReadAfterOwnWriteObservesTheOwnWrite) {
  // Read-your-own-writes: a read preceded by an own write on the object
  // (a write-then-read program, or a promoted read) observes the
  // transaction's own buffered version at every isolation level — exactly
  // what the MVCC engine does. Observing anything else is disallowed.
  TransactionSet txns = Parse("T1: W[x] R[x]");
  std::vector<OpRef> order{{0, 0}, {0, 1}, {0, 2}};
  VersionFunction versions{{OpRef{0, 1}, OpRef{0, 0}}};
  VersionOrder version_order;
  version_order[txns.FindObject("x")] = {OpRef{0, 0}};
  StatusOr<Schedule> s =
      Schedule::Create(&txns, order, versions, version_order);
  ASSERT_TRUE(s.ok());
  for (IsolationLevel level : kAllIsolationLevels) {
    EXPECT_TRUE(AllowedUnder(*s, Allocation(1, level)));
  }
  // A read that ignores the own write and claims the initial version is
  // not a legal execution.
  VersionFunction stale{{OpRef{0, 1}, OpRef::Op0()}};
  StatusOr<Schedule> s_stale =
      Schedule::Create(&txns, order, stale, version_order);
  ASSERT_TRUE(s_stale.ok());
  for (IsolationLevel level : kAllIsolationLevels) {
    EXPECT_FALSE(AllowedUnder(*s_stale, Allocation(1, level)));
  }
  // Materialization maps the read to the own write as well.
  StatusOr<Schedule> materialized =
      MaterializeSchedule(&txns, order, Allocation::AllSI(1));
  ASSERT_TRUE(materialized.ok());
  EXPECT_EQ(materialized->VersionRead(OpRef{0, 1}), (OpRef{0, 0}));
  EXPECT_TRUE(AllowedUnder(*materialized, Allocation::AllSI(1)));
}

TEST(GeneralRegimeTest, RmwBatchAgainstOracle) {
  // A denser general-regime workload: repeated accesses everywhere.
  TransactionSet txns = Parse(R"(
    T1: R[x] W[x] R[x]
    T2: R[x] R[y] W[y] W[x]
  )");
  for (IsolationLevel l1 : kAllIsolationLevels) {
    for (IsolationLevel l2 : kAllIsolationLevels) {
      Allocation alloc({l1, l2});
      StatusOr<BruteForceResult> brute = BruteForceRobustness(txns, alloc);
      ASSERT_TRUE(brute.ok());
      EXPECT_EQ(CheckRobustness(txns, alloc).robust, brute->robust)
          << alloc.ToString(txns);
    }
  }
}

}  // namespace
}  // namespace mvrob
