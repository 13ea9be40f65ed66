// Witness provenance tests: structured reports (core/witness.h) on the
// paper's worked examples, plus golden files for the JSON/DOT renderings.
// Regenerate goldens with MVROB_UPDATE_GOLDEN=1 ./witness_test.
#include "core/witness.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "core/explain.h"
#include "core/optimal_allocation.h"
#include "core/robustness.h"
#include "fixtures.h"
#include "oracle/reference_checker.h"
#include "txn/parser.h"

namespace mvrob {
namespace {

constexpr const char* kWriteSkew = "T1: R[x] W[y]\nT2: R[y] W[x]";

TransactionSet WriteSkewTxns() {
  StatusOr<TransactionSet> txns = ParseTransactionSet(kWriteSkew);
  assert(txns.ok());
  return std::move(txns).value();
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
      << " — regenerate with MVROB_UPDATE_GOLDEN=1 ./witness_test";
  std::ostringstream expected;
  expected << file.rdbuf();
  EXPECT_EQ(expected.str(), actual)
      << "golden mismatch for " << name
      << " — regenerate with MVROB_UPDATE_GOLDEN=1 ./witness_test if the "
         "change is intended";
}

TEST(WitnessReportTest, WriteSkewUnderSiIsFullyJustified) {
  TransactionSet txns = WriteSkewTxns();
  Allocation alloc = Allocation::AllSI(txns.size());
  RobustnessResult result = CheckRobustness(txns, alloc);
  ASSERT_FALSE(result.robust);

  StatusOr<WitnessReport> report =
      BuildWitnessReport(txns, alloc, *result.counterexample);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // The chain validated end to end: Definition 3.1 plus the materialized
  // schedule independently checked allowed + non-serializable.
  EXPECT_TRUE(report->verified) << report->verify_error;
  EXPECT_TRUE(report->verify_error.empty());

  // Every edge carries a conflict type, a concrete operation pair, and the
  // Definition 3.1 condition it discharges.
  ASSERT_GE(report->edges.size(), 2u);
  for (const WitnessEdge& edge : report->edges) {
    EXPECT_TRUE(edge.conflict == "ww" || edge.conflict == "wr" ||
                edge.conflict == "rw")
        << edge.conflict;
    EXPECT_TRUE(edge.condition.starts_with("3.1")) << edge.condition;
    EXPECT_TRUE(txns.IsValidRef(edge.b));
    EXPECT_TRUE(txns.IsValidRef(edge.a));
    EXPECT_FALSE(edge.detail.empty());
  }
  // The first edge is (b1, a2) discharging condition (4), and the closing
  // edge discharges condition (5); for write skew both are rw.
  EXPECT_EQ(report->edges.front().condition, "3.1(4)");
  EXPECT_EQ(report->edges.front().conflict, "rw");
  EXPECT_TRUE(report->edges.back().condition.starts_with("3.1(5)"));

  // All eight conditions are reported and hold.
  ASSERT_EQ(report->conditions.size(), 8u);
  for (const WitnessCondition& condition : report->conditions) {
    EXPECT_TRUE(condition.holds) << condition.condition << ": "
                                 << condition.detail;
  }

  // The split order covers every operation of the chain transactions.
  EXPECT_GT(report->prefix_len, 0);
  EXPECT_GE(report->split_order.size(),
            static_cast<size_t>(txns.txn(0).num_ops() +
                                txns.txn(1).num_ops()));
}

TEST(WitnessReportTest, RobustAllocationHasNoWitness) {
  TransactionSet txns = WriteSkewTxns();
  Allocation alloc = Allocation::AllSSI(txns.size());
  RobustnessResult result = CheckRobustness(txns, alloc);
  ASSERT_TRUE(result.robust);
  std::string json = RobustnessWitnessJson(txns, alloc, result);
  EXPECT_NE(json.find("\"robust\":true"), std::string::npos);
  EXPECT_EQ(json.find("\"witness\""), std::string::npos);
}

TEST(WitnessReportTest, Figure2UnderRcProducesVerifiedWitness) {
  TransactionSet txns = Figure2Txns();
  Allocation alloc = Allocation::AllRC(txns.size());
  RobustnessResult result = CheckRobustness(txns, alloc);
  ASSERT_FALSE(result.robust);
  StatusOr<WitnessReport> report =
      BuildWitnessReport(txns, alloc, *result.counterexample);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->verified) << report->verify_error;
}

TEST(WitnessGoldenTest, WriteSkewSiJson) {
  TransactionSet txns = WriteSkewTxns();
  Allocation alloc = Allocation::AllSI(txns.size());
  RobustnessResult result = CheckRobustness(txns, alloc);
  CompareGolden("write_skew_si.witness.json",
                RobustnessWitnessJson(txns, alloc, result));
}

TEST(WitnessGoldenTest, WriteSkewSiDot) {
  TransactionSet txns = WriteSkewTxns();
  Allocation alloc = Allocation::AllSI(txns.size());
  RobustnessResult result = CheckRobustness(txns, alloc);
  CompareGolden("write_skew_si.witness.dot",
                RobustnessWitnessDot(txns, alloc, result));
}

TEST(WitnessGoldenTest, Figure2RcJson) {
  TransactionSet txns = Figure2Txns();
  Allocation alloc = Allocation::AllRC(txns.size());
  RobustnessResult result = CheckRobustness(txns, alloc);
  CompareGolden("figure2_rc.witness.json",
                RobustnessWitnessJson(txns, alloc, result));
}

TEST(WitnessGoldenTest, WriteSkewOptimalExplainJson) {
  TransactionSet txns = WriteSkewTxns();
  OptimalAllocationResult optimal = ComputeOptimalAllocation(txns, {});
  StatusOr<AllocationExplanation> explanation =
      ExplainAllocation(txns, optimal.allocation);
  ASSERT_TRUE(explanation.ok()) << explanation.status().ToString();
  CompareGolden("write_skew_optimal.explain.json",
                AllocationExplanationJson(txns, *explanation));
}

TEST(WitnessGoldenTest, WriteSkewOptimalExplainDot) {
  TransactionSet txns = WriteSkewTxns();
  OptimalAllocationResult optimal = ComputeOptimalAllocation(txns, {});
  StatusOr<AllocationExplanation> explanation =
      ExplainAllocation(txns, optimal.allocation);
  ASSERT_TRUE(explanation.ok()) << explanation.status().ToString();
  CompareGolden("write_skew_optimal.explain.dot",
                AllocationExplanationDot(txns, *explanation));
}

TEST(WitnessExplainTest, NonRobustAllocationStatusNamesTheChain) {
  TransactionSet txns = WriteSkewTxns();
  StatusOr<AllocationExplanation> explanation =
      ExplainAllocation(txns, Allocation::AllSI(txns.size()));
  ASSERT_FALSE(explanation.ok());
  // The status names the splitting transaction and embeds the chain
  // instead of the old opaque refusal.
  EXPECT_NE(explanation.status().message().find("T1"), std::string::npos)
      << explanation.status().ToString();
  EXPECT_NE(explanation.status().message().find("chain"), std::string::npos)
      << explanation.status().ToString();
}

}  // namespace
}  // namespace mvrob
