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
// components. AnalyzerReplaceTest holds an analyzer changed by random
// sequences of Replace, each after warm checks, to one built from scratch
// over the same set: tables, pair entries, RC rows, Reachable, the bytes
// of the caches kept, and the results of Check, CheckDelta and FindAll.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "core/analyzer.h"
#include "core/conflict.h"
#include "core/optimal_allocation.h"
#include "fixtures.h"
#include "templates/instantiate.h"
#include "templates/library.h"
#include "txn/parser.h"
#include "workloads/registry.h"
#include "workloads/synthetic.h"

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
  // Heap words the pivot and RC caches hold now, counted from the caches.
  uint64_t PivotCacheBytes() const {
    uint64_t bytes = 0;
    for (const auto& cache : analyzer_.pivot_cache_) {
      bytes += cache.masks.size() * sizeof(uint64_t);
    }
    return bytes;
  }
  uint64_t RcCacheBytes() const {
    uint64_t bytes = 0;
    for (const auto& slots : analyzer_.rc_cache_) {
      for (const auto& [k, mask] : slots) {
        bytes += mask.num_words() * sizeof(uint64_t);
      }
    }
    return bytes;
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

// ---------------------------------------------------------------------------
// Replace against a fresh build.
// ---------------------------------------------------------------------------

::testing::AssertionResult SameChain(const CounterexampleChain& want,
                                     const CounterexampleChain& got) {
  if (want.t1 == got.t1 && want.t2 == got.t2 && want.tm == got.tm &&
      want.b1 == got.b1 && want.a1 == got.a1 && want.a2 == got.a2 &&
      want.bm == got.bm && want.inner == got.inner) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "chain (" << want.t1 << ", " << want.t2 << ", " << want.tm
         << ") differs from (" << got.t1 << ", " << got.t2 << ", " << got.tm
         << ")";
}

void ExpectSameResult(const RobustnessResult& want,
                      const RobustnessResult& got) {
  ASSERT_EQ(want.robust, got.robust);
  ASSERT_EQ(want.cancelled, got.cancelled);
  ASSERT_EQ(want.triples_examined, got.triples_examined);
  ASSERT_EQ(want.counterexample.has_value(), got.counterexample.has_value());
  if (want.counterexample.has_value()) {
    ASSERT_TRUE(SameChain(*want.counterexample, *got.counterexample));
  }
}

void ExpectSameList(const CounterexampleList& want,
                    const CounterexampleList& got) {
  ASSERT_EQ(want.cancelled, got.cancelled);
  ASSERT_EQ(want.chains.size(), got.chains.size());
  for (size_t i = 0; i < want.chains.size(); ++i) {
    ASSERT_TRUE(SameChain(want.chains[i], got.chains[i])) << "witness " << i;
  }
}

Allocation RandomAllocation(size_t n, Rng& rng) {
  Allocation alloc = Allocation::AllRC(n);
  for (TxnId t = 0; t < n; ++t) {
    alloc.set_level(t, static_cast<IsolationLevel>(rng.Index(3)));
  }
  return alloc;
}

// Fills the caches the way the allocators do: a full check and Algorithm 2.
void Warm(const RobustnessAnalyzer& analyzer, Rng& rng) {
  analyzer.Check(RandomAllocation(analyzer.txns().size(), rng));
  ComputeOptimalAllocation(analyzer);
}

// `replaced` answers exactly like an analyzer built from scratch over the
// same (changed) set.
void CompareWithFreshBuild(const RobustnessAnalyzer& replaced, Rng& rng) {
  const TransactionSet& txns = replaced.txns();
  const size_t n = txns.size();
  const RobustnessAnalyzer fresh(txns);
  const RobustnessAnalyzerPeer want(fresh);
  const RobustnessAnalyzerPeer got(replaced);
  ASSERT_TRUE(SameRows("conflict", want.conflict(), got.conflict()));
  ASSERT_TRUE(SameRows("rw", want.rw(), got.rw()));
  ASSERT_TRUE(SameRows("rw_into", want.rw_into(), got.rw_into()));
  ASSERT_TRUE(SameRows("ww_never", want.ww_never(), got.ww_never()));
  ASSERT_TRUE(
      SameRows("rw_before_ww", want.rw_before_ww(), got.rw_before_ww()));
  ASSERT_TRUE(
      SameRows("si_candidates", want.si_candidates(), got.si_candidates()));
  for (TxnId t1 = 0; t1 < n; ++t1) {
    std::vector<TxnId> row;
    want.conflict().row(t1).ForEachSetBit(
        [&](size_t j) { row.push_back(static_cast<TxnId>(j)); });
    for (TxnId j : row) {
      SCOPED_TRACE(StrCat("pair (", t1, ", ", j, ")"));
      ASSERT_EQ(got.first_ww(t1, j), want.first_ww(t1, j));
      ASSERT_EQ(got.first_rw(t1, j), want.first_rw(t1, j));
      ASSERT_EQ(got.last_conflict(t1, j), want.last_conflict(t1, j));
      if (want.rw().Test(t1, j)) {
        const int k = want.first_rw(t1, j);
        const ConstBitSpan a = want.RcCandidates(t1, k);
        const ConstBitSpan b = got.RcCandidates(t1, k);
        for (size_t w = 0; w < a.num_words(); ++w) {
          ASSERT_EQ(a.word(w), b.word(w)) << "RC row of t1=" << t1
                                          << " k=" << k << " word " << w;
        }
      }
    }
    for (TxnId t2 : row) {
      for (TxnId tm : row) {
        ASSERT_EQ(got.Reachable(t1, t2, tm), want.Reachable(t1, t2, tm))
            << "triple (" << t1 << ", " << t2 << ", " << tm << ")";
      }
    }
  }

  // The results of every entry point, on allocations above and at the
  // optimum.
  for (const Allocation& alloc :
       {RandomAllocation(n, rng), Allocation::AllRC(n), Allocation::AllSI(n)}) {
    ExpectSameResult(fresh.Check(alloc), replaced.Check(alloc));
    ExpectSameList(fresh.FindAll(alloc, 6), replaced.FindAll(alloc, 6));
  }
  const Allocation optimum = ComputeOptimalAllocation(fresh).allocation;
  ASSERT_EQ(ComputeOptimalAllocation(replaced).allocation, optimum);
  DeltaBase want_base(optimum);
  DeltaBase got_base(optimum);
  for (int probe = 0; probe < 4; ++probe) {
    std::vector<LevelChange> changes;
    for (int c = 0; c < 1 + probe / 2; ++c) {
      const auto t = static_cast<TxnId>(rng.Index(n));
      if (std::any_of(changes.begin(), changes.end(),
                      [&](const LevelChange& x) { return x.txn == t; })) {
        continue;
      }
      changes.push_back(
          LevelChange{t, static_cast<IsolationLevel>(rng.Index(3))});
    }
    ExpectSameResult(fresh.CheckDelta(want_base, changes),
                     replaced.CheckDelta(got_base, changes));
    ExpectSameList(fresh.FindAll(want_base, changes, 6),
                   replaced.FindAll(got_base, changes, 6));
  }

  // The tables match, and the caches' bytes are what the caches hold.
  const RobustnessAnalyzer::Bytes a = fresh.bytes();
  const RobustnessAnalyzer::Bytes b = replaced.bytes();
  EXPECT_EQ(a.relations, b.relations);
  EXPECT_EQ(a.pair_rank, b.pair_rank);
  EXPECT_EQ(a.pair_entries, b.pair_entries);
  EXPECT_EQ(a.object_index, b.object_index);
  EXPECT_EQ(b.pivot_caches, got.PivotCacheBytes());
  EXPECT_EQ(b.rc_caches, got.RcCacheBytes());
}

// New operations for transaction t: its own in another order (kind 0:
// same accesses, so its conflict row stays), a promotion-style write
// inserted before one of its reads (kind 1), or random operations that
// may touch an object no transaction had accessed.
std::vector<Operation> NextOps(TransactionSet& txns, TxnId t, int kind,
                               Rng& rng) {
  const std::vector<Operation>& current = txns.txn(t).ops();
  std::vector<Operation> ops(current.begin(), current.end() - 1);
  switch (kind) {
    case 0:
      for (size_t i = ops.size(); i > 1; --i) {
        std::swap(ops[i - 1], ops[rng.Index(i)]);
      }
      return ops;
    case 1:
      for (size_t i = 0; i < ops.size(); ++i) {
        if (ops[i].IsRead() && !txns.txn(t).Writes(ops[i].object)) {
          ops.insert(ops.begin() + static_cast<std::ptrdiff_t>(i),
                     Operation::Write(ops[i].object));
          return ops;
        }
      }
      [[fallthrough]];
    default: {
      ops.clear();
      const size_t count = 1 + rng.Index(5);
      const size_t objects = txns.num_objects();
      for (size_t i = 0; i < count; ++i) {
        ObjectId o = static_cast<ObjectId>(rng.Index(objects));
        if (rng.Index(12) == 0) {
          o = txns.InternObject(StrCat("fresh", objects));
        }
        ops.push_back(rng.Bernoulli(0.45) ? Operation::Write(o)
                                          : Operation::Read(o));
      }
      return ops;
    }
  }
}

TEST(AnalyzerReplaceTest, RandomReplacementsMatchFreshBuild) {
  uint64_t rows_kept = 0;
  uint64_t rows_changed = 0;
  uint64_t multi_word = 0;
  for (uint64_t seed = 0; seed < 24; ++seed) {
    SCOPED_TRACE(StrCat("seed ", seed));
    SyntheticParams params;
    params.num_txns = 8 + static_cast<int>(seed * 37 % 123);
    params.num_objects = std::max(4, params.num_txns / 2);
    params.min_ops = 1;
    params.max_ops = 5;
    params.write_fraction = 0.4;
    params.hotspot_fraction = 0.3;
    params.num_hotspots = 3;
    params.at_most_one_access = seed % 2 == 0;
    params.seed = seed * 7919 + 11;
    TransactionSet txns = GenerateSynthetic(params);
    RobustnessAnalyzer analyzer(txns);
    if (txns.size() > 64) ++multi_word;
    Rng rng(seed);
    TxnId last_t = 0;
    std::vector<Operation> last_ops;  // last_t's operations before its step.
    for (int step = 0; step < 8; ++step) {
      SCOPED_TRACE(StrCat("step ", step));
      Warm(analyzer, rng);
      // Kind 2 undoes the step before, as the promotion search puts a
      // scored candidate back: a promotion undone removes a write.
      const int kind = step % 4;
      const TxnId t = kind == 2 ? last_t
                                : static_cast<TxnId>(rng.Index(txns.size()));
      std::vector<Operation> ops =
          kind == 2 ? last_ops : NextOps(txns, t, kind, rng);
      const std::vector<Operation>& current = txns.txn(t).ops();
      last_t = t;
      last_ops.assign(current.begin(), current.end() - 1);
      const RobustnessAnalyzerPeer peer(analyzer);
      DenseBitset before(txns.size());
      before.CopyFrom(peer.conflict().row(t));
      ASSERT_TRUE(analyzer.Replace(t, ops).ok());
      ASSERT_EQ(txns.txn(t).num_ops(), static_cast<int>(ops.size()) + 1);
      bool kept = true;
      for (size_t w = 0; w < before.num_words(); ++w) {
        kept &= before.span().word(w) == peer.conflict().row(t).word(w);
      }
      ++(kept ? rows_kept : rows_changed);
      CompareWithFreshBuild(analyzer, rng);
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_GT(rows_kept, 0u);
  EXPECT_GT(rows_changed, 0u);
  EXPECT_GT(multi_word, 0u);
}

TEST(AnalyzerReplaceTest, RejectsConstSetsAndInvalidOperations) {
  TransactionSet txns = Figure2Txns();
  const TransactionSet& fixed = txns;
  RobustnessAnalyzer read_only(fixed);
  EXPECT_EQ(read_only.Replace(0, {Operation::Read(0)}).code(),
            StatusCode::kFailedPrecondition);

  RobustnessAnalyzer analyzer(txns);
  const std::string listing = txns.ToString();
  EXPECT_FALSE(analyzer.Replace(0, {Operation::Commit()}).ok());
  EXPECT_FALSE(analyzer.Replace(static_cast<TxnId>(txns.size()),
                                {Operation::Read(0)})
                   .ok());
  EXPECT_EQ(txns.ToString(), listing);
  Rng rng(1);
  CompareWithFreshBuild(analyzer, rng);
}

}  // namespace
}  // namespace mvrob
