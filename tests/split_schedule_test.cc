// Condition-by-condition validation of Definition 3.1: for hand-crafted
// chains, each structural condition is individually necessary — violating
// it either fails ValidateSplitChain or yields a schedule that is not a
// counterexample (not allowed, or serializable).
#include <gtest/gtest.h>

#include "common/string_util.h"
#include "core/robustness.h"
#include "core/split_schedule.h"
#include "core/witness.h"
#include "iso/allowed.h"
#include "schedule/serializability.h"
#include "txn/parser.h"

namespace mvrob {
namespace {

TransactionSet Parse(const char* text) {
  StatusOr<TransactionSet> txns = ParseTransactionSet(text);
  EXPECT_TRUE(txns.ok()) << txns.status();
  return std::move(txns).value();
}

// A canonical valid chain for the write-skew pair at A_SI:
// T1 split after R1[x]; T2 = Tm = T2.
CounterexampleChain WriteSkewChain() {
  CounterexampleChain chain;
  chain.t1 = 0;
  chain.t2 = 1;
  chain.tm = 1;
  chain.b1 = OpRef{0, 0};  // R1[x].
  chain.a1 = OpRef{0, 1};  // W1[y].
  chain.a2 = OpRef{1, 1};  // W2[x].
  chain.bm = OpRef{1, 0};  // R2[y].
  return chain;
}

TEST(SplitConditionTest, CanonicalChainValidatesAndWitnesses) {
  TransactionSet txns = Parse("T1: R[x] W[y]\nT2: R[y] W[x]");
  for (IsolationLevel level : {IsolationLevel::kRC, IsolationLevel::kSI}) {
    Allocation alloc(2, level);
    CounterexampleChain chain = WriteSkewChain();
    EXPECT_TRUE(ValidateSplitChain(txns, alloc, chain).ok());
    EXPECT_TRUE(VerifyCounterexample(txns, alloc, chain).ok());
  }
}

TEST(SplitConditionTest, Condition1_InnerMustNotConflictWithT1) {
  // T3 conflicts with T1 on q: using it as inner transaction is invalid.
  TransactionSet txns = Parse(R"(
    T1: R[x] W[y] R[q]
    T2: W[x] R[a]
    T3: W[a] W[q] R[y]
  )");
  // Chain T1 -> T2 -> T3 -> T1 with T3 as Tm is fine (Tm may conflict),
  // but T3 as *inner* between T2 and Tm is not.
  CounterexampleChain chain;
  chain.t1 = 0;
  chain.t2 = 1;
  chain.tm = 2;
  chain.b1 = OpRef{0, 0};          // R1[x] rw W2[x].
  chain.a1 = OpRef{0, 1};          // W1[y].
  chain.a2 = OpRef{1, 0};          // W2[x].
  chain.bm = OpRef{2, 2};          // R3[y] rw W1[y].
  chain.inner = {};                // T2 conflicts T3 directly on a: valid.
  Allocation alloc = Allocation::AllSI(3);
  EXPECT_TRUE(ValidateSplitChain(txns, alloc, chain).ok());

  // Now force T3 = inner by making a 4-transaction chain where the inner
  // conflicts with T1.
  TransactionSet bad = Parse(R"(
    T1: R[x] W[y] R[q]
    T2: W[x] R[a]
    T3: W[a] W[q] R[b]
    T4: W[b] R[y]
  )");
  CounterexampleChain with_inner;
  with_inner.t1 = 0;
  with_inner.t2 = 1;
  with_inner.tm = 3;
  with_inner.b1 = OpRef{0, 0};
  with_inner.a1 = OpRef{0, 1};
  with_inner.a2 = OpRef{1, 0};
  with_inner.bm = OpRef{3, 1};  // R4[y].
  with_inner.inner = {2};       // T3 conflicts T1 on q: must be rejected.
  Status status = ValidateSplitChain(bad, Allocation::AllSI(4), with_inner);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("inner"), std::string::npos);
}

TEST(SplitConditionTest, Condition2_PrefixWwConflictBreaksAllowedness) {
  // T1 writes z before the split read; T2 also writes z. The chain must be
  // rejected: in the split schedule T2's write to z would be a dirty
  // write (T1 holds z uncommitted across the middle).
  TransactionSet txns = Parse(R"(
    T1: W[z] R[x] W[y]
    T2: R[y] W[x] W[z]
  )");
  CounterexampleChain chain;
  chain.t1 = 0;
  chain.t2 = 1;
  chain.tm = 1;
  chain.b1 = OpRef{0, 1};  // R1[x], prefix = {W1[z], R1[x]}.
  chain.a1 = OpRef{0, 2};  // W1[y].
  chain.a2 = OpRef{1, 1};  // W2[x].
  chain.bm = OpRef{1, 0};  // R2[y].
  for (IsolationLevel level : {IsolationLevel::kRC, IsolationLevel::kSI}) {
    Status status = ValidateSplitChain(txns, Allocation(2, level), chain);
    EXPECT_FALSE(status.ok()) << IsolationLevelToString(level);
    // And indeed the materialized schedule is NOT allowed (dirty write).
    StatusOr<Schedule> schedule =
        BuildSplitSchedule(txns, Allocation(2, level), chain);
    ASSERT_TRUE(schedule.ok());
    EXPECT_FALSE(AllowedUnder(*schedule, Allocation(2, level)));
  }
}

TEST(SplitConditionTest, Condition3_PostfixWwMattersOnlyForSnapshotT1) {
  // T1's ww conflict with T2 sits in the postfix (W1[z] after the split).
  // Under SI/SSI the split schedule would make T1 exhibit a concurrent
  // write (forbidden); under RC it is legal and the chain is a genuine
  // counterexample.
  TransactionSet txns = Parse(R"(
    T1: R[x] W[y] W[z]
    T2: R[y] W[x] W[z]
  )");
  CounterexampleChain chain;
  chain.t1 = 0;
  chain.t2 = 1;
  chain.tm = 1;
  chain.b1 = OpRef{0, 0};
  chain.a1 = OpRef{0, 1};
  chain.a2 = OpRef{1, 1};
  chain.bm = OpRef{1, 0};
  EXPECT_TRUE(
      ValidateSplitChain(txns, Allocation::AllRC(2), chain).ok());
  EXPECT_TRUE(VerifyCounterexample(txns, Allocation::AllRC(2), chain).ok());
  for (IsolationLevel level : {IsolationLevel::kSI, IsolationLevel::kSSI}) {
    EXPECT_FALSE(ValidateSplitChain(txns, Allocation(2, level), chain).ok());
    StatusOr<Schedule> schedule =
        BuildSplitSchedule(txns, Allocation(2, level), chain);
    ASSERT_TRUE(schedule.ok());
    EXPECT_FALSE(AllowedUnder(*schedule, Allocation(2, level)));
  }
}

TEST(SplitConditionTest, Condition4_B1MustBeRwConflictingWithA2) {
  TransactionSet txns = Parse("T1: R[x] W[y]\nT2: R[y] W[x]");
  CounterexampleChain chain = WriteSkewChain();
  chain.b1 = OpRef{0, 1};  // W1[y] is not a read.
  Status status = ValidateSplitChain(txns, Allocation::AllSI(2), chain);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("rw-conflicting"), std::string::npos);
}

TEST(SplitConditionTest, Condition5_RcSplitCaseRequiresRcAndOrder) {
  // bm = W2[x] ww-conflicts a1 = W1[x]: not rw-conflicting, so only the RC
  // split case can justify it — and only when b1 precedes a1.
  TransactionSet txns = Parse(R"(
    T1: R[q] W[x]
    T2: W[q] W[x]
  )");
  CounterexampleChain chain;
  chain.t1 = 0;
  chain.t2 = 1;
  chain.tm = 1;
  chain.b1 = OpRef{0, 0};  // R1[q] rw W2[q].
  chain.a1 = OpRef{0, 1};  // W1[x].
  chain.a2 = OpRef{1, 0};  // W2[q].
  chain.bm = OpRef{1, 1};  // W2[x], ww-conflicting with a1.
  EXPECT_TRUE(ValidateSplitChain(txns, Allocation::AllRC(2), chain).ok());
  EXPECT_TRUE(VerifyCounterexample(txns, Allocation::AllRC(2), chain).ok());
  // Under SI the ww-case is unavailable (and the ww conflict also breaks
  // condition (3)): rejected.
  EXPECT_FALSE(ValidateSplitChain(txns, Allocation::AllSI(2), chain).ok());

  // Reversing T1's program order (write before read) kills the RC case.
  TransactionSet reversed = Parse(R"(
    T1: W[x] R[q]
    T2: W[q] W[x]
  )");
  CounterexampleChain late_read;
  late_read.t1 = 0;
  late_read.t2 = 1;
  late_read.tm = 1;
  late_read.b1 = OpRef{0, 1};  // R1[q] now AFTER W1[x].
  late_read.a1 = OpRef{0, 0};  // W1[x].
  late_read.a2 = OpRef{1, 0};
  late_read.bm = OpRef{1, 1};
  EXPECT_FALSE(
      ValidateSplitChain(reversed, Allocation::AllRC(2), late_read).ok());
}

TEST(SplitConditionTest, Condition6_TripleSsiIsSafe) {
  TransactionSet txns = Parse("T1: R[x] W[y]\nT2: R[y] W[x]");
  CounterexampleChain chain = WriteSkewChain();
  Status status = ValidateSplitChain(txns, Allocation::AllSSI(2), chain);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("cond. 6"), std::string::npos);
  // And indeed: the split schedule under A_SSI contains the dangerous
  // structure, so it is not allowed.
  StatusOr<Schedule> schedule =
      BuildSplitSchedule(txns, Allocation::AllSSI(2), chain);
  ASSERT_TRUE(schedule.ok());
  EXPECT_FALSE(AllowedUnder(*schedule, Allocation::AllSSI(2)));
}

TEST(SplitConditionTest, Condition7_WrConflictT1T2UnderDoubleSsi) {
  // T1 writes q which T2 reads: with T1, T2 both SSI (Tm = T3 at SI), the
  // wr conflict lets T2's snapshot read create a second antidependency
  // and close a dangerous structure among SSI transactions.
  TransactionSet txns = Parse(R"(
    T1: R[x] W[y] W[q]
    T2: W[x] R[q] R[b]
    T3: W[b] R[y]
  )");
  // T1 = T2 = SSI, Tm = T3 = SI: condition (6) passes, (7) must fire.
  Allocation alloc({IsolationLevel::kSSI, IsolationLevel::kSSI,
                    IsolationLevel::kSI});
  CounterexampleChain chain;
  chain.t1 = 0;
  chain.t2 = 1;
  chain.tm = 2;
  chain.b1 = OpRef{0, 0};  // R1[x] rw W2[x].
  chain.a1 = OpRef{0, 1};  // W1[y].
  chain.a2 = OpRef{1, 0};  // W2[x].
  chain.bm = OpRef{2, 1};  // R3[y] rw W1[y].
  Status status = ValidateSplitChain(txns, alloc, chain);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("cond. 7"), std::string::npos);
  // The materialized schedule is refused by the dangerous-structure check.
  StatusOr<Schedule> schedule = BuildSplitSchedule(txns, alloc, chain);
  ASSERT_TRUE(schedule.ok());
  EXPECT_FALSE(AllowedUnder(*schedule, alloc));
}

TEST(SplitConditionTest, Condition8_RwConflictT1TmUnderDoubleSsi) {
  // Mirrored: T1 reads z which Tm writes; T1 and Tm both SSI.
  TransactionSet txns = Parse(R"(
    T1: R[x] W[y] R[z]
    T2: W[x] W[a]
    T3: R[a] R[y] W[z]
  )");
  Allocation alloc({IsolationLevel::kSSI, IsolationLevel::kSI,
                    IsolationLevel::kSSI});
  CounterexampleChain chain;
  chain.t1 = 0;
  chain.t2 = 1;
  chain.tm = 2;
  chain.b1 = OpRef{0, 0};  // R1[x] rw W2[x].
  chain.a1 = OpRef{0, 1};  // W1[y].
  chain.a2 = OpRef{1, 0};  // W2[x].
  chain.bm = OpRef{2, 1};  // R3[y] rw W1[y].
  Status status = ValidateSplitChain(txns, alloc, chain);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("cond. 8"), std::string::npos);
  StatusOr<Schedule> schedule = BuildSplitSchedule(txns, alloc, chain);
  ASSERT_TRUE(schedule.ok());
  EXPECT_FALSE(AllowedUnder(*schedule, alloc));
}

TEST(SplitConditionTest, SplitOrderShape) {
  // The built order is prefix . T2 ... Tm . postfix . rest, with T1's
  // commit closing the chain portion.
  TransactionSet txns = Parse(R"(
    T1: R[x] W[y]
    T2: R[y] W[x]
    T3: R[unrelated]
  )");
  CounterexampleChain chain = WriteSkewChain();
  std::vector<OpRef> order = BuildSplitOrder(txns, chain);
  ASSERT_EQ(order.size(), static_cast<size_t>(txns.TotalOps()));
  EXPECT_EQ(order[0], (OpRef{0, 0}));            // prefix: R1[x].
  EXPECT_EQ(order[1].txn, 1u);                   // T2 begins.
  EXPECT_EQ(order[1 + 3], (OpRef{0, 1}));        // postfix: W1[y].
  EXPECT_EQ(order[1 + 4], (OpRef{0, 2}));        // C1.
  EXPECT_EQ(order[order.size() - 1].txn, 2u);    // T3 appended last.
}

// ValidateSplitChain and the witness report read the same conditions: for
// chains that break each of (1)-(8) in turn, validation fails on exactly
// the first condition the report marks as not holding, with that
// condition's detail and "(cond. N)" tag.
TEST(SplitConditionTest, ValidationFailsOnTheReportsFirstBrokenCondition) {
  struct Case {
    const char* txns;
    Allocation alloc;
    CounterexampleChain chain;
    size_t broken;  // The first condition that does not hold, 1-based.
  };
  auto chain_of = [](TxnId tm, OpRef b1, OpRef a1, OpRef a2, OpRef bm,
                     std::vector<TxnId> inner) {
    CounterexampleChain chain;
    chain.t1 = 0;
    chain.t2 = 1;
    chain.tm = tm;
    chain.b1 = b1;
    chain.a1 = a1;
    chain.a2 = a2;
    chain.bm = bm;
    chain.inner = std::move(inner);
    return chain;
  };
  CounterexampleChain skew = WriteSkewChain();
  CounterexampleChain b1_write = skew;
  b1_write.b1 = OpRef{0, 1};  // W1[y] is not a read.
  CounterexampleChain a1_unrelated = skew;
  a1_unrelated.a1 = OpRef{0, 0};  // R2[y] does not conflict with R1[x].
  const char* kSkew = "T1: R[x] W[y]\nT2: R[y] W[x]";
  const IsolationLevel rc = IsolationLevel::kRC;
  const IsolationLevel si = IsolationLevel::kSI;
  const IsolationLevel ssi = IsolationLevel::kSSI;
  const std::vector<Case> cases = {
      // (1) The inner T3 conflicts with T1 on q.
      {"T1: R[x] W[y] R[q]\nT2: W[x] R[a]\nT3: W[a] W[q] R[b]\n"
       "T4: W[b] R[y]",
       Allocation::AllSI(4),
       chain_of(3, {0, 0}, {0, 1}, {1, 0}, {3, 1}, {2}), 1},
      // (2) W1[z] in the prefix clashes with W2[z].
      {"T1: W[z] R[x] W[y]\nT2: R[y] W[x] W[z]", Allocation::AllRC(2),
       chain_of(1, {0, 1}, {0, 2}, {1, 1}, {1, 0}, {}), 2},
      // (3) W1[z] in the postfix clashes with W2[z], T1 at SI.
      {"T1: R[x] W[y] W[z]\nT2: R[y] W[x] W[z]", Allocation::AllSI(2),
       chain_of(1, {0, 0}, {0, 1}, {1, 1}, {1, 0}, {}), 3},
      {kSkew, Allocation::AllSI(2), b1_write, 4},
      {kSkew, Allocation::AllSI(2), a1_unrelated, 5},
      {kSkew, Allocation::AllSSI(2), skew, 6},
      // (7) T1 writes q, which T2 reads; T1 and T2 at SSI.
      {"T1: R[x] W[y] W[q]\nT2: W[x] R[q] R[b]\nT3: W[b] R[y]",
       Allocation({ssi, ssi, si}),
       chain_of(2, {0, 0}, {0, 1}, {1, 0}, {2, 1}, {}), 7},
      // (8) T3 writes z, which T1 reads; T1 and T3 at SSI.
      {"T1: R[x] W[y] R[z]\nT2: W[x] W[a]\nT3: R[a] R[y] W[z]",
       Allocation({ssi, rc, ssi}),
       chain_of(2, {0, 0}, {0, 1}, {1, 0}, {2, 1}, {}), 8},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.broken);
    TransactionSet txns = Parse(c.txns);
    StatusOr<WitnessReport> report = BuildWitnessReport(txns, c.alloc, c.chain);
    ASSERT_TRUE(report.ok()) << report.status();
    ASSERT_EQ(report->conditions.size(), 8u);
    size_t first = 0;
    while (first < 8 && report->conditions[first].holds) ++first;
    ASSERT_EQ(first + 1, c.broken);
    Status status = ValidateSplitChain(txns, c.alloc, c.chain);
    EXPECT_FALSE(status.ok());
    EXPECT_EQ(status.message(),
              StrCat(report->conditions[first].detail, " (cond. ", c.broken,
                     ")"));
    EXPECT_FALSE(report->verified);
  }
}

}  // namespace
}  // namespace mvrob
