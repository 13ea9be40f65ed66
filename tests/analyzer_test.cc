// Differential test for RobustnessAnalyzer's tables. The analyzer builds
// its relations and pair indices from a per-object index and stores pair
// indices only for conflicting pairs; this test rebuilds every table
// test-locally the pairwise way (one Writes/Reads lookup per operation of
// every ordered pair) and compares:
//  - every row of the six bit matrices,
//  - every pair-index lookup of a conflicting pair,
//  - every RC candidate row the scan can ask for,
//  - Reachable against a BFS over the mixed-iso-graph for every triple
//    Algorithm 1 can ask about (t2 and tm in t1's conflict row), on sets
//    with at most 24 transactions,
// over the delta-check corpus, the paper examples, the named workloads and
// the template worlds, plus a pivot whose graph has more than 64
// components.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/string_util.h"
#include "core/analyzer.h"
#include "core/conflict.h"
#include "fixtures.h"
#include "templates/instantiate.h"
#include "templates/library.h"
#include "txn/parser.h"
#include "workloads/registry.h"

namespace mvrob {

// Read access to the analyzer's private tables.
class RobustnessAnalyzerPeer {
 public:
  explicit RobustnessAnalyzerPeer(const RobustnessAnalyzer& analyzer)
      : analyzer_(analyzer) {}

  const BitMatrix& conflict() const { return analyzer_.conflict_; }
  const BitMatrix& rw() const { return analyzer_.rw_; }
  const BitMatrix& rw_into() const { return analyzer_.rw_into_; }
  const BitMatrix& ww_never() const { return analyzer_.ww_never_; }
  const BitMatrix& rw_before_ww() const { return analyzer_.rw_before_ww_; }
  const BitMatrix& si_candidates() const {
    return analyzer_.si_candidates_;
  }
  int first_ww(TxnId i, TxnId j) const {
    return analyzer_.pair(i, j).first_ww;
  }
  int first_rw(TxnId i, TxnId j) const {
    return analyzer_.pair(i, j).first_rw;
  }
  int last_conflict(TxnId i, TxnId j) const {
    return analyzer_.pair(i, j).last_conflict;
  }
  ConstBitSpan RcCandidates(TxnId t1, int k) const {
    return analyzer_.RcCandidatesFor(t1, k);
  }
  bool Reachable(TxnId t1, TxnId t2, TxnId tm) const {
    return analyzer_.Reachable(t1, t2, tm);
  }
  uint32_t PivotWords(TxnId t1) const {
    return analyzer_.PivotFor(t1).words;
  }

 private:
  const RobustnessAnalyzer& analyzer_;
};

namespace {

constexpr int kNever = std::numeric_limits<int>::max();

// The tables as the pairwise build computed them: for every ordered pair,
// one scan over Ti's operations with set lookups into Tj.
struct PairwiseTables {
  size_t n = 0;
  BitMatrix conflict, rw, rw_into, ww_never, rw_before_ww, si_candidates;
  std::vector<int> first_ww, first_rw, last_conflict;  // i * n + j.

  explicit PairwiseTables(const TransactionSet& txns) : n(txns.size()) {
    for (BitMatrix* m : {&conflict, &rw, &rw_into, &ww_never, &rw_before_ww,
                         &si_candidates}) {
      *m = BitMatrix(n, n);
    }
    first_ww.assign(n * n, kNever);
    first_rw.assign(n * n, kNever);
    last_conflict.assign(n * n, -1);
    for (TxnId i = 0; i < n; ++i) {
      const Transaction& ti = txns.txn(i);
      for (TxnId j = 0; j < n; ++j) {
        if (i == j) continue;
        const Transaction& tj = txns.txn(j);
        int& ww = first_ww[i * n + j];
        int& rw_first = first_rw[i * n + j];
        int& last = last_conflict[i * n + j];
        for (int k = 0; k < ti.num_ops(); ++k) {
          const Operation& op = ti.op(k);
          if (op.IsCommit()) continue;
          const bool writes_j = tj.Writes(op.object);
          if (op.IsWrite()) {
            if (writes_j && ww == kNever) ww = k;
            if (writes_j || tj.Reads(op.object)) last = k;
          } else if (writes_j) {
            rw.Set(i, j);
            if (rw_first == kNever) rw_first = k;
            last = k;
          }
        }
        if (rw.Test(i, j) || ww != kNever || last >= 0) {
          conflict.Set(i, j);
          conflict.Set(j, i);
        }
      }
    }
    for (TxnId i = 0; i < n; ++i) {
      for (TxnId j = 0; j < n; ++j) {
        if (rw.Test(i, j)) rw_into.Set(j, i);
        const int ww = first_ww[i * n + j];
        if (ww == kNever) ww_never.Set(i, j);
        const int r = first_rw[i * n + j];
        if (r != kNever && r < ww) rw_before_ww.Set(i, j);
      }
    }
    for (TxnId i = 0; i < n; ++i) {
      for (TxnId j = 0; j < n; ++j) {
        if (ww_never.Test(i, j) && rw_into.Test(i, j)) {
          si_candidates.Set(i, j);
        }
      }
    }
  }

  int at(const std::vector<int>& table, TxnId i, TxnId j) const {
    return table[i * n + j];
  }
};

::testing::AssertionResult SameRows(const char* name, const BitMatrix& want,
                                    const BitMatrix& got) {
  if (want.rows() != got.rows() || want.cols() != got.cols()) {
    return ::testing::AssertionFailure() << name << ": shape differs";
  }
  for (size_t i = 0; i < want.rows(); ++i) {
    for (size_t w = 0; w < BitWords(want.cols()); ++w) {
      if (want.row(i).word(w) != got.row(i).word(w)) {
        return ::testing::AssertionFailure()
               << name << ": row " << i << " word " << w << " differs";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

// Whether tm is reachable from t2 in mixed-iso-graph(t1, T \ {t1, t2, tm})
// (Definition 3.1's inner chain), by a BFS on pairwise conflict tests.
bool ReachableByBfs(const TransactionSet& txns, TxnId t1, TxnId t2,
                    TxnId tm) {
  if (t2 == tm || TxnsConflict(txns, t2, tm)) return true;
  const size_t n = txns.size();
  std::vector<bool> node(n);
  for (TxnId x = 0; x < n; ++x) {
    node[x] = x != t1 && x != t2 && x != tm && !TxnsConflict(txns, t1, x);
  }
  std::vector<bool> seen(n, false);
  std::vector<TxnId> queue;
  for (TxnId x = 0; x < n; ++x) {
    if (node[x] && TxnsConflict(txns, t2, x)) {
      seen[x] = true;
      queue.push_back(x);
    }
  }
  for (size_t head = 0; head < queue.size(); ++head) {
    const TxnId x = queue[head];
    if (TxnsConflict(txns, x, tm)) return true;
    for (TxnId y = 0; y < n; ++y) {
      if (node[y] && !seen[y] && TxnsConflict(txns, x, y)) {
        seen[y] = true;
        queue.push_back(y);
      }
    }
  }
  return false;
}

uint64_t g_reachability_triples = 0;

void CompareTables(const TransactionSet& txns) {
  const PairwiseTables want(txns);
  const RobustnessAnalyzer analyzer(txns);
  const RobustnessAnalyzerPeer got(analyzer);
  ASSERT_TRUE(SameRows("conflict", want.conflict, got.conflict()));
  ASSERT_TRUE(SameRows("rw", want.rw, got.rw()));
  ASSERT_TRUE(SameRows("rw_into", want.rw_into, got.rw_into()));
  ASSERT_TRUE(SameRows("ww_never", want.ww_never, got.ww_never()));
  ASSERT_TRUE(
      SameRows("rw_before_ww", want.rw_before_ww, got.rw_before_ww()));
  ASSERT_TRUE(
      SameRows("si_candidates", want.si_candidates, got.si_candidates()));

  const size_t n = txns.size();
  for (TxnId i = 0; i < n; ++i) {
    std::vector<int> thresholds;
    for (TxnId j = 0; j < n; ++j) {
      if (!want.conflict.Test(i, j)) {
        // Only conflicting pairs have entries; the pairwise sentinels say
        // the same as "no entry".
        ASSERT_EQ(want.at(want.first_ww, i, j), kNever);
        ASSERT_EQ(want.at(want.first_rw, i, j), kNever);
        ASSERT_EQ(want.at(want.last_conflict, i, j), -1);
        continue;
      }
      SCOPED_TRACE(StrCat("pair (", i, ", ", j, ")"));
      ASSERT_EQ(got.first_ww(i, j), want.at(want.first_ww, i, j));
      ASSERT_EQ(got.first_rw(i, j), want.at(want.first_rw, i, j));
      ASSERT_EQ(got.last_conflict(i, j), want.at(want.last_conflict, i, j));
      if (want.rw.Test(i, j)) {
        thresholds.push_back(want.at(want.first_rw, i, j));
      }
    }
    // The RC candidate rows for every split threshold a T2 can set.
    for (int k : thresholds) {
      ConstBitSpan rc = got.RcCandidates(i, k);
      for (TxnId tm = 0; tm < n; ++tm) {
        const bool candidate = tm != i && want.at(want.first_ww, i, tm) > k &&
                               (want.rw_into.Test(i, tm) ||
                                want.at(want.last_conflict, i, tm) > k);
        ASSERT_EQ(rc.Test(tm), candidate)
            << "RC candidates of t1=" << i << " k=" << k << " at tm=" << tm;
      }
    }
  }

  if (n > 24) return;
  for (TxnId t1 = 0; t1 < n; ++t1) {
    for (TxnId t2 = 0; t2 < n; ++t2) {
      if (!want.conflict.Test(t1, t2)) continue;
      for (TxnId tm = 0; tm < n; ++tm) {
        if (!want.conflict.Test(t1, tm)) continue;
        ++g_reachability_triples;
        ASSERT_EQ(got.Reachable(t1, t2, tm), ReachableByBfs(txns, t1, t2, tm))
            << "triple (" << t1 << ", " << t2 << ", " << tm << ")";
      }
    }
  }
}

TEST(AnalyzerLayoutTest, DeltaCorpusMatchesPairwiseBuild) {
  for (uint64_t seed = 0; seed < 1050; ++seed) {
    SCOPED_TRACE(StrCat("seed ", seed));
    CompareTables(DeltaCorpusSet(seed));
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(g_reachability_triples, 0u);
}

TEST(AnalyzerLayoutTest, PaperExamplesAndWorkloadsMatchPairwiseBuild) {
  CompareTables(Figure2Txns());
  CompareTables(Example26Txns());
  CompareTables(Example52Txns());
  for (const char* spec :
       {"smallbank:c=4", "smallbank:c=16", "tpcc:w=1,d=2", "auction",
        "ycsb:a,n=24", "ycsb:a,n=200", "synthetic:n=16,o=6,w=50,h=40"}) {
    SCOPED_TRACE(spec);
    StatusOr<Workload> workload = MakeNamedWorkload(spec);
    ASSERT_TRUE(workload.ok()) << workload.status();
    CompareTables(workload->txns);
    if (HasFatalFailure()) return;
  }
}

TEST(AnalyzerLayoutTest, TemplateWorldsMatchPairwiseBuild) {
  const std::vector<std::pair<std::string, TemplateSet>> sets = {
      {"smallbank", SmallBankTemplates(2)},
      {"tpcc", TpccTemplates()},
      {"auction", AuctionTemplates()},
      {"tpcc_scan", TpccScanTemplates()},
      {"showcase", ConstraintShowcaseTemplates(true)},
      {"showcase_unconstrained", ConstraintShowcaseTemplates(false)},
  };
  for (const auto& [name, set] : sets) {
    SCOPED_TRACE(name);
    StatusOr<std::vector<WorldInstantiation>> worlds =
        InstantiateAllWorlds(set);
    ASSERT_TRUE(worlds.ok()) << worlds.status();
    for (const WorldInstantiation& world : *worlds) {
      CompareTables(world.instantiation.txns);
      if (HasFatalFailure()) return;
    }
  }
}

// Pivot T0's graph is 70 transactions N0..N69, each writing an object of
// its own, so each is a component. Only the components holding a
// transaction that conflicts with a member of T0's row (A, B, C, D) are
// labelled, in id order: D touches N0..N65 and A touches N66, so N66's bit
// lives in the second word of the pivot's mask rows. A and B reach each
// other only through N66. C touches only N2, whose bit is at the same
// position of the first word, so C reaches neither.
TEST(AnalyzerLayoutTest, PivotWithMoreThan64Components) {
  std::string text = "T0: W[x]\n";
  for (int i = 0; i < 70; ++i) {
    text += StrCat("N", i, ": W[p", i, "]", i == 66 ? " R[q]" : "", "\n");
  }
  text += "A: R[x] W[p66]\nB: R[x] W[q]\nC: R[x] W[p2]\nD: R[x]";
  for (int i = 0; i < 66; ++i) text += StrCat(" W[p", i, "]");
  text += "\n";
  StatusOr<TransactionSet> txns = ParseTransactionSet(text);
  ASSERT_TRUE(txns.ok()) << txns.status();
  const TxnId t0 = 0;
  const TxnId a = 71;
  const TxnId b = 72;
  const TxnId c = 73;
  ASSERT_EQ(txns->txn(a).name(), "A");
  ASSERT_EQ(txns->txn(c).name(), "C");

  const RobustnessAnalyzer analyzer(*txns);
  const RobustnessAnalyzerPeer peer(analyzer);
  EXPECT_TRUE(peer.Reachable(t0, a, b));
  EXPECT_TRUE(peer.Reachable(t0, b, a));
  EXPECT_FALSE(peer.Reachable(t0, a, c));
  EXPECT_FALSE(peer.Reachable(t0, c, b));
  EXPECT_EQ(peer.PivotWords(t0), 2u);
  for (TxnId x : {a, b, c}) {
    for (TxnId y : {a, b, c}) {
      EXPECT_EQ(peer.Reachable(t0, x, y), ReachableByBfs(*txns, t0, x, y))
          << x << " " << y;
    }
  }
}

// The analyzer.bytes gauges report bytes() after every scan, and the
// relations are the six n x n bit matrices.
TEST(AnalyzerLayoutTest, BytesGaugesReportTables) {
  StatusOr<Workload> workload = MakeNamedWorkload("smallbank:c=8");
  ASSERT_TRUE(workload.ok()) << workload.status();
  const TransactionSet& txns = workload->txns;
  MetricsRegistry registry;
  const RobustnessAnalyzer analyzer(txns, &registry);
  const RobustnessAnalyzer::Bytes built = analyzer.bytes();
  const size_t n = txns.size();
  EXPECT_EQ(built.relations, 6 * n * BitWords(n) * sizeof(uint64_t));
  EXPECT_EQ(built.pivot_caches, 0u);
  EXPECT_EQ(built.rc_caches, 0u);
  EXPECT_EQ(registry.gauge("analyzer.bytes").value(),
            static_cast<int64_t>(built.total()));

  analyzer.Check(Allocation::AllRC(n));
  const RobustnessAnalyzer::Bytes scanned = analyzer.bytes();
  EXPECT_GT(scanned.pivot_caches + scanned.rc_caches, 0u);
  EXPECT_EQ(registry.gauge("analyzer.bytes").value(),
            static_cast<int64_t>(scanned.total()));
  EXPECT_EQ(registry.gauge("analyzer.bytes{table=relations}").value(),
            static_cast<int64_t>(scanned.relations));
  EXPECT_EQ(registry.gauge("analyzer.bytes{table=pair_entries}").value(),
            static_cast<int64_t>(scanned.pair_entries));
  EXPECT_EQ(registry.gauge("analyzer.bytes{table=pivot_caches}").value(),
            static_cast<int64_t>(scanned.pivot_caches));
  EXPECT_EQ(registry.gauge("analyzer.bytes{table=rc_caches}").value(),
            static_cast<int64_t>(scanned.rc_caches));
}

}  // namespace
}  // namespace mvrob
