// Witness provenance tests: structured reports (core/witness.h) on the
// paper's worked examples, plus golden files for the JSON/DOT renderings.
// Regenerate goldens with MVROB_UPDATE_GOLDEN=1 ./witness_test.
#include "core/witness.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/string_util.h"
#include "core/analyzer.h"
#include "core/explain.h"
#include "core/optimal_allocation.h"
#include "core/robustness.h"
#include "core/split_schedule.h"
#include "fixtures.h"
#include "oracle/reference_checker.h"
#include "promote/promotion.h"
#include "txn/parser.h"
#include "workloads/registry.h"
#include "workloads/workload.h"

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

// Referee for Definition 3.1's callers: for every chain FindAll returns on
// three workloads, the chain, its promotion candidates, its witness-report
// edges and conditions, and ValidateSplitChain's verdict on the chain as found and
// with T1, T2 and Tm raised to SSI (which condition (6) refuses).
std::string ChainGoldenSection(const std::string& title,
                               const TransactionSet& txns,
                               const Allocation& alloc) {
  CounterexampleList found = RobustnessAnalyzer(txns).FindAll(alloc, 32);
  std::string out =
      StrCat("== ", title, " (", found.chains.size(), " chains)\n");
  for (size_t i = 0; i < found.chains.size(); ++i) {
    const CounterexampleChain& chain = found.chains[i];
    std::vector<std::string> candidates;
    for (OpRef ref : CandidatesFromChain(txns, chain)) {
      candidates.push_back(txns.FormatOp(ref));
    }
    out += StrCat("chain ", i, ": ", chain.ToString(txns), "\n");
    out += StrCat("  candidates: ", Join(candidates, ", "), "\n");
    StatusOr<WitnessReport> report = BuildWitnessReport(txns, alloc, chain);
    if (!report.ok()) {
      out += StrCat("  report error: ", report.status().ToString(), "\n");
    } else {
      for (const WitnessEdge& edge : report->edges) {
        out += StrCat("  edge ", txns.FormatOp(edge.b), "->",
                      txns.FormatOp(edge.a), " ", edge.conflict, " ",
                      edge.condition, ": ", edge.detail, "\n");
      }
      for (const WitnessCondition& condition : report->conditions) {
        out += StrCat("  ", condition.condition,
                      condition.holds ? " holds: " : " fails: ",
                      condition.detail, "\n");
      }
    }
    Allocation raised = alloc.With(chain.t1, IsolationLevel::kSSI)
                            .With(chain.t2, IsolationLevel::kSSI)
                            .With(chain.tm, IsolationLevel::kSSI);
    out += StrCat("  valid: ",
                  ValidateSplitChain(txns, alloc, chain).ok() ? "ok" : "not-ok",
                  "; raised to SSI: ",
                  ValidateSplitChain(txns, raised, chain).ok() ? "ok"
                                                               : "not-ok",
                  "\n");
  }
  return out;
}

TransactionSet NamedTxns(const std::string& spec) {
  StatusOr<Workload> workload = MakeNamedWorkload(spec);
  EXPECT_TRUE(workload.ok()) << workload.status();
  return std::move(workload->txns);
}

TEST(WitnessChainGoldenTest, ConditionsCandidatesAndVerdictsOfFoundChains) {
  TransactionSet smallbank = NamedTxns("smallbank:c=8");
  TransactionSet tpcc = NamedTxns("tpcc:w=1,d=2");
  TransactionSet figure2 = Figure2Txns();
  CompareGolden(
      "split_chains.txt",
      ChainGoldenSection("smallbank:c=8 A_SI", smallbank,
                         Allocation::AllSI(smallbank.size())) +
          ChainGoldenSection("tpcc:w=1,d=2 A_RC", tpcc,
                             Allocation::AllRC(tpcc.size())) +
          ChainGoldenSection("figure 2 A_RC", figure2,
                             Allocation::AllRC(figure2.size())));
}

}  // namespace
}  // namespace mvrob
