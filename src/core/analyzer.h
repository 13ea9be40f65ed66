#ifndef MVROB_CORE_ANALYZER_H_
#define MVROB_CORE_ANALYZER_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/bitset.h"
#include "common/status.h"
#include "core/conflict.h"
#include "core/robustness.h"
#include "txn/transaction_set.h"

namespace mvrob {

/// The witnesses one enumeration found, in ascending (t1, t2, tm) order.
struct CounterexampleList {
  std::vector<CounterexampleChain> chains;
  /// True when CheckOptions::cancel was raised before the scan completed.
  /// A cancelled list carries no verdict: `chains` is empty, which must
  /// not be read as "robust".
  bool cancelled = false;
};

/// One transaction's level in a delta candidate: the candidate is the
/// base with each listed transaction at its listed level.
struct LevelChange {
  TxnId txn = kInvalidTxnId;
  IsolationLevel level = IsolationLevel::kRC;
};

/// A robust allocation prepared once, in O(n), for any number of delta
/// probes (RobustnessAnalyzer::CheckDelta and the delta FindAll): its
/// levels and its SSI mask. A probe names only the changed transactions;
/// it applies them to the base in place and restores the base before it
/// returns, so its set-up costs O(changes + words) instead of the O(n) of
/// diffing two allocations, rebuilding the SSI mask and copying the
/// candidate. One DeltaBase therefore serves one probe at a time.
class DeltaBase {
 public:
  explicit DeltaBase(Allocation base);

  const Allocation& allocation() const { return alloc_; }

 private:
  friend class RobustnessAnalyzer;

  Allocation alloc_;
  DenseBitset ssi_;  // Transactions at SSI in alloc_.
};

/// Bitset-kernel implementation of Algorithm 1.
///
/// CheckRobustness (the reference implementation) re-derives conflict
/// information and rebuilds the mixed-iso-graph inside the triple loop;
/// this class precomputes, once per transaction set,
///  - pairwise conflict and rw matrices as dense bit rows,
///  - per-pair indices (first write of Ti ww-conflicting with Tj, first
///    read of Ti on an object Tj writes, last operation of Ti conflicting
///    with Tj), which turn the per-triple operation search into O(1)
///    lookups,
///  - derived candidate rows (ww_never, rw_before_ww, si_candidates =
///    ww_never & rw_into), so the inner Tm loop of Algorithm 1 collapses
///    into a word-wise AND of candidate masks followed by a set-bit walk
///    over the few survivors, and
///  - per-pivot connected components of the mixed-iso-graph, which turn
///    reachability into a word-wise component-bitmask intersection. They
///    are allocation-independent and built lazily, the first time a scan
///    asks about pivot T1, and only around T1's conflict row: Algorithm 1
///    asks only whether two members of that row reach each other, so only
///    the components holding a transaction that conflicts with a row
///    member are labelled (BFS from those transactions alone), and each
///    member's mask comes from the component's neighbourhood intersected
///    with the row, one word pass per visited transaction.
///
/// Memory layout. Everything is built from one flat per-object index of
/// reader and writer operations (CSR, indexed by ObjectId), so the build
/// only visits pairs that share an object, and only conflicting pairs
/// store anything beyond bits:
///  - six n x n BitMatrix relations (conflict, rw, rw_into, ww_never,
///    rw_before_ww, si_candidates);
///  - the pair indices as one entry per conflicting ordered pair, row by
///    row; pair (i, j) sits at its row's start plus j's rank in conflict
///    row i, found from a per-word prefix popcount table in O(1);
///  - per pivot T1, one flat word matrix: for every member of T1's
///    conflict row (the only transactions Algorithm 1 asks about), the
///    labelled components holding a transaction it conflicts with, in
///    ceil(components / 64) words, so Reachable is a word AND;
///  - per RC pivot, one Tm candidate row per distinct split threshold.
/// bytes() reports each table; the analyzer.bytes gauges export it.
///
/// Witness recovery stays on the same bit rows: the inner chain is a BFS
/// over conflict_ rows restricted to T \ {T1, T2, Tm} minus T1's conflict
/// row, visiting nodes in the reference checker's order (sources
/// ascending, FIFO, neighbours ascending, first discoverer as parent), so
/// the chain is identical without building adjacency lists or components.
///
/// Delta entry points. Algorithm 2 and its variants decide candidates that
/// differ from a robust allocation in a few transactions. A triple's
/// verdict depends only on the levels of T1, T2 and Tm, so every witness
/// against such a candidate contains a changed transaction. CheckDelta
/// and the delta FindAll take the robust base prepared once (DeltaBase)
/// and the changed (transaction, level) pairs, and scan only those
/// triples: rows whose T1 changed in full, and, at a changed T2 or Tm
/// only, the rows of SSI transactions conflicting with one that left SSI.
/// No other row can hold a new witness: T2's and Tm's levels matter only
/// through the SSI conditions (6)-(8), which need an SSI T1 and only
/// exclude triples. The one-thread loop walks just those rows, and an
/// unchanged one reads only the row words that hold a changed transaction
/// when it tests Tm outside a changed T2 (CheckFocusRow), instead of
/// building whole mask rows per T2.
/// They run through the same row scan as Check (cancel, watchdog,
/// heartbeats, the lowest-witness reduction) and return exactly Check's
/// (or FindAll's) result on the candidate.
///
/// FindAll enumerates every witness instead of stopping at the first, in
/// both forms (full, and delta against a robust base). It runs the same
/// row scan: witness recovery appends to a collector and continues until
/// the limit. The chains, order included, equal the reference enumeration
/// (oracle/counterexamples.h) at every limit and thread count. This is the
/// inner loop of the promotion frontier and of `report`'s trouble spots.
///
/// The payoff is twofold: a single decision drops from the reference
/// checker's per-triple operation loops to a handful of word operations
/// per (T1, T2) pair, and Algorithm 2 (2·|T| robustness checks over the
/// *same* set) reuses every cache and checks only what each candidate
/// changed. Results — verdict, lowest counterexample chain, and the
/// audited triples_examined — are bit-identical to CheckRobustness
/// (property-tested).
///
/// Replace. A caller whose workload changes in one transaction (the
/// promotion search scores each candidate this way) swaps that
/// transaction's operations in place instead of building a new analyzer:
/// Replace updates the transaction set and, from the retained per-object
/// index, the transaction's row and column of the six relations and the
/// pair entries it is part of. The lazy caches follow one rule:
///  - the pivot caches read only conflict_, so they all stay when the
///    transaction's conflict row is unchanged, and are all dropped
///    otherwise (then the row starts, rank prefixes and pair entries are
///    rebuilt too, since the pair layout follows conflict_);
///  - an RC candidate row of t1 reads the pair entries and rw_into_ bits of
///    t1's conflict row, so those of the transaction and of every member
///    of its old or new conflict row are dropped.
/// The result is the analyzer a fresh build over the changed set gives:
/// the same tables and the same answers, with bytes() counting only the
/// caches kept.
///
/// Thread safety: Check(alloc, options) with options.num_threads != 1
/// partitions the t1 rows over a thread pool; the lazy per-t1 caches are
/// only ever touched by the thread owning that row, so concurrent rows
/// are race-free. Distinct Check calls must not run concurrently on the
/// same analyzer from user threads, and Replace must not run concurrently
/// with any other call on it.
class RobustnessAnalyzer {
 public:
  /// `metrics` (nullable) records the build-phase timers and the
  /// analyzer.bytes gauges and, as a default sink, Check-time counters;
  /// per-call CheckOptions::metrics takes precedence for the latter.
  /// Collection never changes results.
  explicit RobustnessAnalyzer(const TransactionSet& txns,
                              MetricsRegistry* metrics = nullptr);
  /// The same over a set that Replace may change.
  explicit RobustnessAnalyzer(TransactionSet& txns,
                              MetricsRegistry* metrics = nullptr);

  /// Replaces transaction t's operations with `rw_ops` (commit appended)
  /// in the set and in every table, as described above; validated as in
  /// TransactionSet::ReplaceTransaction. Fails with FailedPrecondition on
  /// an analyzer built over a const set; on failure nothing changes.
  Status Replace(TxnId t, std::vector<Operation> rw_ops);

  /// Algorithm 1 for one allocation; equivalent to CheckRobustness.
  RobustnessResult Check(const Allocation& alloc) const;

  /// Same, with options.num_threads-way parallelism over the t1 outer
  /// loop. Deterministic: the lowest (t1, t2, tm) witness wins regardless
  /// of thread count, and triples_examined follows the audited contract
  /// of RobustnessResult.
  RobustnessResult Check(const Allocation& alloc,
                         const CheckOptions& options) const;

  /// Algorithm 1 for the candidate `base` with `changes` applied (distinct
  /// transactions), given that `base` (same size) is robust. Only triples
  /// with a member whose level changes are scanned; the result (verdict,
  /// counterexample, triples_examined, cancelled) equals
  /// Check(candidate, options), and `base` is restored before it returns.
  /// Metrics count it in analyzer.checks and analyzer.delta_checks, with
  /// the triples it covers in analyzer.delta_triples_examined (not in the
  /// audited analyzer.triples_examined, which counts full checks only).
  RobustnessResult CheckDelta(DeltaBase& base,
                              std::span<const LevelChange> changes,
                              const CheckOptions& options = {}) const;

  /// Every witness of Algorithm 1 against `alloc`, up to `limit`, in
  /// ascending (t1, t2, tm) order: the chains the reference enumeration
  /// (oracle/counterexamples.h) returns, at any options.num_threads. With
  /// limit > 0 and no cancel, empty iff robust. Metrics count it in
  /// analyzer.enumerations and analyzer.witnesses_enumerated (not in
  /// analyzer.checks).
  CounterexampleList FindAll(const Allocation& alloc, size_t limit,
                             const CheckOptions& options = {}) const;

  /// Same for the candidate `base` with `changes` applied, given that
  /// `base` is robust: every witness against the candidate then contains a
  /// changed transaction, so only those triples are scanned, as in
  /// CheckDelta. The result equals FindAll(candidate, limit, options).
  CounterexampleList FindAll(DeltaBase& base,
                             std::span<const LevelChange> changes,
                             size_t limit,
                             const CheckOptions& options = {}) const;

  const TransactionSet& txns() const { return txns_; }

  /// Heap bytes held by each of the analyzer's tables. The pivot and RC
  /// caches fill lazily, so they grow with the checks run so far.
  struct Bytes {
    uint64_t relations = 0;     // The six n x n bit matrices.
    uint64_t pair_rank = 0;     // Row starts and per-word rank prefixes.
    uint64_t pair_entries = 0;  // One PairIndex per conflicting pair.
    uint64_t object_index = 0;  // The per-object accesses Replace reads.
    uint64_t pivot_caches = 0;  // Component masks of the built pivots.
    uint64_t rc_caches = 0;     // Tm candidate rows of RC pivots.
    uint64_t total() const {
      return relations + pair_rank + pair_entries + object_index +
             pivot_caches + rc_caches;
    }
  };
  Bytes bytes() const;

 private:
  friend class RobustnessAnalyzerPeer;  // Differential tests.

  static constexpr int kNever = std::numeric_limits<int>::max();

  // Operation indices of a conflicting pair (Ti, Tj), kNever / -1 when
  // there is no such operation.
  struct PairIndex {
    int first_ww = kNever;     // First write of Ti on an object Tj writes.
    int first_rw = kNever;     // First read of Ti on an object Tj writes.
    int last_conflict = -1;    // Last operation of Ti conflicting with Tj.
  };

  // One transaction's accesses to one object: the first and last
  // program-order index of its reads and of its writes (-1: none).
  struct Access {
    TxnId txn = kInvalidTxnId;
    int first_read = -1;
    int last_read = -1;
    int first_write = -1;
    int last_write = -1;

    bool reads() const { return first_read >= 0; }
    bool writes() const { return first_write >= 0; }
    // Folds operation k into the first/last indices.
    void Record(const Operation& op, int k);
  };

  // Every object's accessors in ascending transaction order, in one flat
  // CSR array indexed by ObjectId: object o's accesses are
  // accesses[offsets[o], offsets[o + 1]).
  struct ObjectIndex {
    std::vector<uint32_t> offsets;
    std::vector<Access> accesses;

    explicit ObjectIndex(const TransactionSet& txns);

    size_t num_objects() const { return offsets.size() - 1; }
    Access* begin(size_t o) { return accesses.data() + offsets[o]; }
    Access* end(size_t o) { return accesses.data() + offsets[o + 1]; }
    // Transaction t's access to object o, which must exist.
    Access& at(size_t o, TxnId t);
  };

  // The pair rules, one statement each, shared by the build and Replace.
  // Relation bits of `writer`'s access and another transaction's access
  // `other` to the same object.
  void MarkConflict(const Access& writer, const Access& other);
  // Folds the accesses of Ti (`a`) and Tj (`b`) to one object, one of
  // which writes it, into pair (Ti, Tj)'s entry.
  static void AccumulatePair(const Access& a, const Access& b,
                             PairIndex& entry);
  // Row starts and rank prefixes from conflict_, then every pair entry.
  void BuildRanks();
  void FillPairs();
  // rw_before_ww_ and si_candidates_ row i from its pair entries and bits.
  void DeriveRow(TxnId i);
  // Calls fn(mine, other) for every access `other` of another transaction
  // to an object that t accesses (`mine`), one of the two writing it.
  template <typename Fn>
  void ForEachConflictingAccess(TxnId t, Fn&& fn);
  void DropRcCache(TxnId t1);

  // Conflicts between a pivot's component structure and the members of
  // its conflict row.
  struct PivotCache {
    // The labelled components of the pivot graph: those holding a
    // transaction that conflicts with a member of conflict_ row t1.
    // Word-major: word w of the member of rank r in the row is
    // masks[w * members + r], and its bit c is set iff component 64w + c
    // holds a transaction conflicting with that member. reachable(t2, tm)
    // through the graph iff the masks of t2 and tm intersect. Word-major
    // lets labelling append a word per 64 components without knowing the
    // count in advance.
    uint32_t members = 0;
    uint32_t words = 0;  // Zero until the cache is built.
    std::vector<uint64_t> masks;
  };

  const PivotCache& PivotFor(TxnId t1) const;
  /// Whether tm is reachable from t2 in the mixed-iso-graph of pivot t1;
  /// t2 and tm must both conflict with t1 (every T2 and Tm candidate of
  /// Algorithm 1 does).
  bool Reachable(TxnId t1, TxnId t2, TxnId tm) const;

  /// The rank of j among the set bits of conflict_ row i; j must be set.
  size_t RankInRow(TxnId i, TxnId j) const;
  const PairIndex& pair(TxnId i, TxnId j) const {
    return pairs_[row_start_[i] + RankInRow(i, j)];
  }
  PairIndex& pair(TxnId i, TxnId j) {
    return pairs_[row_start_[i] + RankInRow(i, j)];
  }
  void RecordBytes(MetricsRegistry* metrics) const;

  /// Tm candidates for an RC-allocated t1 and split threshold k (= the
  /// pair's first_rw index): first_ww_idx[t1][tm] > k and condition (5)
  /// holds (rw into t1, or a conflicting op of T1 after k). Allocation-
  /// independent given (t1, k), so cached across Algorithm 2's checks.
  ConstBitSpan RcCandidatesFor(TxnId t1, int k) const;

  // A delta scan's focus.
  struct Focus {
    // The transactions whose level changes.
    DenseBitset changed;
    // The indices of changed's non-zero words, ascending.
    std::vector<uint32_t> words;
    // The rows that can hold a witness the robust base does not have.
    DenseBitset rows;
    // The candidate's SSI transactions: the prepared base's, with the
    // changes applied.
    ConstBitSpan ssi;
  };

  // What every row of one Check / CheckDelta / FindAll call shares.
  struct RowScan {
    const Allocation& alloc;
    ConstBitSpan ssi_mask;
    // Null scans every triple; otherwise only focus->rows are scanned,
    // those with t1 changed in full and the others only at a changed t2
    // or tm.
    const Focus* focus;
    // Lowest t1 whose row alone fills the limit (parallel scans only), or
    // null.
    const std::atomic<uint32_t>* best;
    const std::atomic<bool>* cancel;
    MetricsRegistry* metrics;  // Witness-recovery timer; may be null.
    // The collector: witnesses are appended here until it holds `limit`.
    std::vector<CounterexampleChain>* found;
    size_t limit;
  };

  /// The row loops shared by Check, CheckDelta and FindAll (focus as in
  /// RowScan): up to `limit` witnesses in ascending (t1, t2, tm) order.
  /// `enumerate` only selects which metrics the call is counted in.
  CounterexampleList Scan(const Allocation& alloc, const Focus* focus,
                          size_t limit, bool enumerate,
                          const CheckOptions& options) const;

  /// Scan on `base` with `changes` applied and focused on them; restores
  /// `base` before it returns.
  CounterexampleList ScanDelta(DeltaBase& base,
                               std::span<const LevelChange> changes,
                               size_t limit, bool enumerate,
                               const CheckOptions& options) const;

  /// Scans one t1 row, appending its witness chains in ascending (t2, tm)
  /// order to scan.found until that holds scan.limit chains. When
  /// scan.best is non-null the scan abandons early once a lower t1 row is
  /// known to fill the limit; when scan.cancel is non-null and raised, the
  /// scan abandons at the next t2 boundary (Scan maps this to a cancelled
  /// result). When `words_scanned` is non-null, the number of 64-bit words
  /// touched by the row's word-wise mask operations is accumulated into
  /// it.
  void CheckRow(const RowScan& scan, TxnId t1, uint64_t* words_scanned) const;

  /// CheckRow for a delta row whose t1 is outside the focus: every triple
  /// it must test has its t2 or tm in the focus, so a pair whose t2 is
  /// outside it reads only focus.words of the Tm candidates, one word at a
  /// time, instead of building whole mask rows per t2. Same witnesses, in
  /// the same order, as CheckRow.
  void CheckFocusRow(const RowScan& scan, TxnId t1,
                     uint64_t* words_scanned) const;

  /// CheckFocusRow's witness recovery: recovers the witness (t1, t2, tm),
  /// whose tm is reachable from t2 in pivot t1's graph, and appends it to
  /// scan.found; true once that holds scan.limit chains.
  bool RecordWitness(const RowScan& scan, TxnId t1, TxnId t2,
                     TxnId tm) const;

  /// The inner chain of Definition 3.1 for a reachable triple: the path
  /// the reference checker's mixed-iso-graph(t1, T \ {t1, t2, tm}) search
  /// returns, found by a BFS over conflict_ rows.
  std::optional<std::vector<TxnId>> InnerChain(TxnId t1, TxnId t2,
                                               TxnId tm) const;

  const TransactionSet& txns_;
  // txns_ when the analyzer was built over a mutable set (Replace), else
  // null.
  TransactionSet* mutable_txns_ = nullptr;
  // Default observability sink for Check (overridden per call by
  // CheckOptions::metrics); also receives the build-phase timers.
  MetricsRegistry* metrics_ = nullptr;
  // The tables are built from it, and Replace updates them from it.
  ObjectIndex index_;
  // conflict_ row i: transactions with an operation conflicting with Ti
  // (symmetric, diagonal clear).
  BitMatrix conflict_;
  // rw_ row i: {j : Ti reads an object Tj writes}.
  BitMatrix rw_;
  // rw_into_ row i: {j : Tj reads an object Ti writes} (transpose of rw_).
  BitMatrix rw_into_;
  // ww_never_ row i: {j : no write of Ti touches Tj's write set}.
  BitMatrix ww_never_;
  // rw_before_ww_ row i: {j : first_rw_idx[i][j] < first_ww_idx[i][j]},
  // with first_rw present. The T2-side pair condition for RC-allocated Ti.
  BitMatrix rw_before_ww_;
  // si_candidates_ row i = ww_never_ & rw_into_: the allocation-independent
  // Tm candidates when Ti is allocated SI/SSI.
  BitMatrix si_candidates_;
  // Pair indices of the conflicting pairs: row i's entries are
  // pairs_[row_start_[i], row_start_[i + 1]), in ascending j order.
  // rank_[i * words + w] counts the set bits of conflict_ row i before
  // word w.
  std::vector<size_t> row_start_;
  std::vector<uint32_t> rank_;
  std::vector<PairIndex> pairs_;

  // Lazy per-t1 caches. Slot t1 is only touched by the (single) thread
  // scanning row t1, and pool joins order successive Check calls.
  mutable std::vector<PivotCache> pivot_cache_;
  mutable std::vector<std::vector<std::pair<int, DenseBitset>>> rc_cache_;
  // Bytes the lazy caches hold, for bytes(); rows of concurrent scans add
  // to them.
  mutable std::atomic<uint64_t> pivot_bytes_{0};
  mutable std::atomic<uint64_t> rc_bytes_{0};
};

}  // namespace mvrob

#endif  // MVROB_CORE_ANALYZER_H_
