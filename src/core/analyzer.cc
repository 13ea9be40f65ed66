#include "core/analyzer.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <iterator>
#include <limits>
#include <memory>
#include <span>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/watchdog.h"
#include "txn/conflict.h"

namespace mvrob {

void RobustnessAnalyzer::Access::Record(const Operation& op, int k) {
  int& first = op.IsRead() ? first_read : first_write;
  if (first < 0) first = k;
  (op.IsRead() ? last_read : last_write) = k;
}

RobustnessAnalyzer::ObjectIndex::ObjectIndex(const TransactionSet& txns) {
  size_t objects = 0;
  for (TxnId t = 0; t < txns.size(); ++t) {
    for (const Operation& op : txns.txn(t).ops()) {
      if (!op.IsCommit()) objects = std::max<size_t>(objects, op.object + 1);
    }
  }
  // Count, then place: `seen[o]` marks the transaction whose access to o
  // was last counted (placed), `slot[o]` where it was placed.
  std::vector<TxnId> seen(objects, kInvalidTxnId);
  offsets.assign(objects + 1, 0);
  for (TxnId t = 0; t < txns.size(); ++t) {
    for (const Operation& op : txns.txn(t).ops()) {
      if (op.IsCommit() || seen[op.object] == t) continue;
      seen[op.object] = t;
      ++offsets[op.object + 1];
    }
  }
  for (size_t o = 0; o < objects; ++o) offsets[o + 1] += offsets[o];
  accesses.resize(offsets[objects]);
  std::vector<uint32_t> slot(offsets.begin(), offsets.end() - 1);
  std::fill(seen.begin(), seen.end(), kInvalidTxnId);
  for (TxnId t = 0; t < txns.size(); ++t) {
    const Transaction& txn = txns.txn(t);
    for (int k = 0; k < txn.num_ops(); ++k) {
      const Operation& op = txn.op(k);
      if (op.IsCommit()) continue;
      if (seen[op.object] != t) {
        seen[op.object] = t;
        accesses[slot[op.object]++].txn = t;
      }
      accesses[slot[op.object] - 1].Record(op, k);
    }
  }
}

RobustnessAnalyzer::Access& RobustnessAnalyzer::ObjectIndex::at(size_t o,
                                                               TxnId t) {
  Access* found = std::lower_bound(
      begin(o), end(o), t,
      [](const Access& access, TxnId txn) { return access.txn < txn; });
  assert(found != end(o) && found->txn == t);
  return *found;
}

namespace {

uint64_t MatrixBytes(const BitMatrix& matrix) {
  return matrix.rows() * BitWords(matrix.cols()) * sizeof(uint64_t);
}

// The objects `txn` reads or writes, ascending.
std::vector<ObjectId> AccessedObjects(const Transaction& txn) {
  std::vector<ObjectId> objects;
  std::set_union(txn.read_set().begin(), txn.read_set().end(),
                 txn.write_set().begin(), txn.write_set().end(),
                 std::back_inserter(objects));
  return objects;
}

}  // namespace

void RobustnessAnalyzer::MarkConflict(const Access& writer,
                                      const Access& other) {
  conflict_.Set(writer.txn, other.txn);
  conflict_.Set(other.txn, writer.txn);
  if (other.writes()) ww_never_.Reset(writer.txn, other.txn);
  if (other.reads()) {
    rw_.Set(other.txn, writer.txn);
    rw_into_.Set(writer.txn, other.txn);
  }
}

void RobustnessAnalyzer::AccumulatePair(const Access& a, const Access& b,
                                        PairIndex& entry) {
  if (a.writes()) {
    if (b.writes()) entry.first_ww = std::min(entry.first_ww, a.first_write);
    entry.last_conflict = std::max(entry.last_conflict, a.last_write);
  }
  if (a.reads() && b.writes()) {
    entry.first_rw = std::min(entry.first_rw, a.first_read);
    entry.last_conflict = std::max(entry.last_conflict, a.last_read);
  }
}

void RobustnessAnalyzer::BuildRanks() {
  const size_t n = txns_.size();
  const size_t words = BitWords(n);
  row_start_.assign(n + 1, 0);
  rank_.resize(n * words);
  for (TxnId i = 0; i < n; ++i) {
    ConstBitSpan row = conflict_.row(i);
    uint32_t rank = 0;
    for (size_t w = 0; w < words; ++w) {
      rank_[i * words + w] = rank;
      rank += static_cast<uint32_t>(std::popcount(row.word(w)));
    }
    row_start_[i + 1] = row_start_[i] + rank;
  }
}

void RobustnessAnalyzer::FillPairs() {
  pairs_.assign(row_start_[txns_.size()], PairIndex{});
  for (size_t o = 0; o < index_.num_objects(); ++o) {
    for (const Access* a = index_.begin(o); a != index_.end(o); ++a) {
      for (const Access* b = index_.begin(o); b != index_.end(o); ++b) {
        if (b == a || !(a->writes() || b->writes())) continue;
        AccumulatePair(*a, *b, pair(a->txn, b->txn));
      }
    }
  }
}

void RobustnessAnalyzer::DeriveRow(TxnId i) {
  const PairIndex* entry = pairs_.data() + row_start_[i];
  BitSpan before = rw_before_ww_.row(i);
  before.ResetAll();
  conflict_.row(i).ForEachSetBit([&](size_t j) {
    if (entry->first_rw < entry->first_ww) before.Set(j);
    ++entry;
  });
  BitSpan si = si_candidates_.row(i);
  si.CopyFrom(ww_never_.row(i));
  si.AndWith(rw_into_.row(i));
}

RobustnessAnalyzer::RobustnessAnalyzer(TransactionSet& txns,
                                       MetricsRegistry* metrics)
    : RobustnessAnalyzer(static_cast<const TransactionSet&>(txns), metrics) {
  mutable_txns_ = &txns;
}

RobustnessAnalyzer::RobustnessAnalyzer(const TransactionSet& txns,
                                       MetricsRegistry* metrics)
    : txns_(txns), metrics_(metrics), index_(txns) {
  const size_t n = txns.size();
  conflict_ = BitMatrix(n, n);
  rw_ = BitMatrix(n, n);
  rw_into_ = BitMatrix(n, n);
  ww_never_ = BitMatrix(n, n);
  rw_before_ww_ = BitMatrix(n, n);
  si_candidates_ = BitMatrix(n, n);
  pivot_cache_.resize(n);
  rc_cache_.resize(n);

  // Only pairs sharing an object, with at least one of them writing it,
  // conflict; the object index visits exactly those.
  {
    PhaseTimer matrix_timer(metrics_, "analyzer.build_conflict_matrix");
    for (TxnId i = 0; i < n; ++i) ww_never_.row(i).SetAll();
    for (size_t o = 0; o < index_.num_objects(); ++o) {
      for (const Access* a = index_.begin(o); a != index_.end(o); ++a) {
        if (!a->writes()) continue;
        for (const Access* b = index_.begin(o); b != index_.end(o); ++b) {
          if (b != a) MarkConflict(*a, *b);
        }
      }
    }
    BuildRanks();
  }
  PhaseTimer masks_timer(metrics_, "analyzer.build_candidate_masks");
  FillPairs();
  for (TxnId i = 0; i < n; ++i) DeriveRow(i);
  RecordBytes(metrics_);
}

template <typename Fn>
void RobustnessAnalyzer::ForEachConflictingAccess(TxnId t, Fn&& fn) {
  for (ObjectId o : AccessedObjects(txns_.txn(t))) {
    const Access& mine = index_.at(o, t);
    for (const Access* other = index_.begin(o); other != index_.end(o);
         ++other) {
      if (other->txn != t && (mine.writes() || other->writes())) {
        fn(mine, *other);
      }
    }
  }
}

void RobustnessAnalyzer::DropRcCache(TxnId t1) {
  for (const auto& [k, mask] : rc_cache_[t1]) {
    rc_bytes_.fetch_sub(mask.num_words() * sizeof(uint64_t),
                        std::memory_order_relaxed);
  }
  rc_cache_[t1].clear();
}

Status RobustnessAnalyzer::Replace(TxnId t, std::vector<Operation> rw_ops) {
  if (mutable_txns_ == nullptr) {
    return Status::FailedPrecondition(
        "Replace needs an analyzer built over a mutable transaction set");
  }
  const std::vector<ObjectId> old_objects =
      t < txns_.size() ? AccessedObjects(txns_.txn(t))
                       : std::vector<ObjectId>{};
  Status replaced = mutable_txns_->ReplaceTransaction(t, std::move(rw_ops));
  if (!replaced.ok()) return replaced;
  const Transaction& txn = txns_.txn(t);

  // The index: t's accesses in place when it touches the same objects,
  // otherwise a fresh one.
  if (AccessedObjects(txn) == old_objects) {
    for (ObjectId o : old_objects) index_.at(o, t) = Access{t};
    for (int k = 0; k + 1 < txn.num_ops(); ++k) {
      index_.at(txn.op(k).object, t).Record(txn.op(k), k);
    }
  } else {
    index_ = ObjectIndex(txns_);
  }

  // t's row and column of the relations, from the defaults of a
  // transaction that conflicts with nothing. `partners` ends up holding
  // t's old and new conflict rows.
  DenseBitset partners(txns_.size());
  partners.CopyFrom(conflict_.row(t));
  partners.ForEachSetBit([&](size_t b) {
    conflict_.Reset(b, t);
    rw_.Reset(b, t);
    rw_into_.Reset(b, t);
    ww_never_.Set(b, t);
  });
  conflict_.row(t).ResetAll();
  rw_.row(t).ResetAll();
  rw_into_.row(t).ResetAll();
  ww_never_.row(t).SetAll();
  ForEachConflictingAccess(t, [&](const Access& mine, const Access& other) {
    if (mine.writes()) MarkConflict(mine, other);
    if (other.writes()) MarkConflict(other, mine);
  });

  // The pair entries: a new layout when t's conflict row changed, else
  // t's entries in place.
  const ConstBitSpan row = conflict_.row(t);
  bool row_changed = false;
  for (size_t w = 0; w < partners.num_words(); ++w) {
    row_changed |= partners.span().word(w) != row.word(w);
  }
  if (row_changed) {
    BuildRanks();
    FillPairs();
    for (PivotCache& cache : pivot_cache_) cache = PivotCache{};
    pivot_bytes_.store(0, std::memory_order_relaxed);
  } else {
    row.ForEachSetBit([&](size_t b) {
      pair(t, static_cast<TxnId>(b)) = PairIndex{};
      pair(static_cast<TxnId>(b), t) = PairIndex{};
    });
    ForEachConflictingAccess(t, [&](const Access& mine, const Access& other) {
      AccumulatePair(mine, other, pair(t, other.txn));
      AccumulatePair(other, mine, pair(other.txn, t));
    });
  }

  // The derived relations: row t whole, column t in every partner; and
  // the RC caches that read them.
  partners.OrWith(row);
  DeriveRow(t);
  DropRcCache(t);
  partners.ForEachSetBit([&](size_t b) {
    const auto partner = static_cast<TxnId>(b);
    const PairIndex* entry =
        conflict_.Test(partner, t) ? &pair(partner, t) : nullptr;
    rw_before_ww_.Assign(
        partner, t, entry != nullptr && entry->first_rw < entry->first_ww);
    si_candidates_.Assign(
        partner, t, ww_never_.Test(partner, t) && rw_into_.Test(partner, t));
    DropRcCache(partner);
  });
  RecordBytes(metrics_);
  return Status::Ok();
}

size_t RobustnessAnalyzer::RankInRow(TxnId i, TxnId j) const {
  assert(conflict_.Test(i, j));
  const size_t w = j / kBitsPerWord;
  const uint64_t below =
      conflict_.row(i).word(w) & ((uint64_t{1} << (j % kBitsPerWord)) - 1);
  return rank_[i * BitWords(txns_.size()) + w] +
         static_cast<size_t>(std::popcount(below));
}

RobustnessAnalyzer::Bytes RobustnessAnalyzer::bytes() const {
  Bytes bytes;
  for (const BitMatrix* matrix : {&conflict_, &rw_, &rw_into_, &ww_never_,
                                  &rw_before_ww_, &si_candidates_}) {
    bytes.relations += MatrixBytes(*matrix);
  }
  bytes.pair_rank = row_start_.size() * sizeof(size_t) +
                    rank_.size() * sizeof(uint32_t);
  bytes.pair_entries = pairs_.size() * sizeof(PairIndex);
  bytes.object_index = index_.offsets.size() * sizeof(uint32_t) +
                       index_.accesses.size() * sizeof(Access);
  bytes.pivot_caches = pivot_bytes_.load(std::memory_order_relaxed);
  bytes.rc_caches = rc_bytes_.load(std::memory_order_relaxed);
  return bytes;
}

void RobustnessAnalyzer::RecordBytes(MetricsRegistry* metrics) const {
  if (metrics == nullptr) return;
  const Bytes b = bytes();
  auto set = [&](std::string_view name, uint64_t value) {
    metrics->gauge(name).Set(static_cast<int64_t>(value));
  };
  set("analyzer.bytes", b.total());
  set("analyzer.bytes{table=relations}", b.relations);
  set("analyzer.bytes{table=pair_rank}", b.pair_rank);
  set("analyzer.bytes{table=pair_entries}", b.pair_entries);
  set("analyzer.bytes{table=object_index}", b.object_index);
  set("analyzer.bytes{table=pivot_caches}", b.pivot_caches);
  set("analyzer.bytes{table=rc_caches}", b.rc_caches);
}

namespace {

// PivotFor's scratch, one set per thread and reused across pivots.
struct PivotScratch {
  DenseBitset pending;
  DenseBitset unvisited;
  DenseBitset neighbourhood;
  std::vector<TxnId> queue;

  void Fit(size_t n) {
    if (pending.size() == n) return;
    for (DenseBitset* row : {&pending, &unvisited, &neighbourhood}) {
      row->Resize(n);
    }
  }
};

}  // namespace

const RobustnessAnalyzer::PivotCache& RobustnessAnalyzer::PivotFor(
    TxnId t1) const {
  PivotCache& cache = pivot_cache_[t1];
  if (cache.words != 0) return cache;

  const size_t n = txns_.size();
  const size_t words = BitWords(n);
  thread_local PivotScratch scratch;
  scratch.Fit(n);
  const ConstBitSpan row = conflict_.row(t1);
  // Nodes of the pivot graph: transactions not conflicting with t1
  // (conflict_ is symmetric, so this is the complement of N[t1]).
  DenseBitset& unvisited = scratch.unvisited;
  unvisited.SetAll();
  unvisited.AndNotWith(row);
  unvisited.Reset(t1);
  // Pending: the nodes conflicting with a row member. Only their
  // components can connect two members, so BFS starts from them alone.
  DenseBitset& pending = scratch.pending;
  pending.ResetAll();
  row.ForEachSetBit([&](size_t x) { pending.OrWith(conflict_.row(x)); });
  pending.AndWith(unvisited);

  cache.members = static_cast<uint32_t>(row.Count());
  cache.masks.clear();
  DenseBitset& neighbourhood = scratch.neighbourhood;
  std::vector<TxnId>& queue = scratch.queue;
  uint64_t* unvisited_words = unvisited.span().data();
  uint64_t* neighbourhood_words = neighbourhood.span().data();
  uint32_t components = 0;
  for (size_t start = pending.FindFirst(); start < n;
       start = pending.FindNext(start + 1)) {
    if (!unvisited.Test(start)) continue;  // Labelled with an earlier one.
    queue.assign(1, static_cast<TxnId>(start));
    unvisited.Reset(start);
    neighbourhood.ResetAll();
    for (size_t head = 0; head < queue.size(); ++head) {
      // One word pass: take the unvisited neighbours, and add the row to
      // the component's neighbourhood.
      const uint64_t* adjacent = conflict_.row(queue[head]).data();
      for (size_t w = 0; w < words; ++w) {
        uint64_t fresh = adjacent[w] & unvisited_words[w];
        unvisited_words[w] &= ~fresh;
        neighbourhood_words[w] |= adjacent[w];
        for (; fresh != 0; fresh &= fresh - 1) {
          queue.push_back(static_cast<TxnId>(
              w * kBitsPerWord + static_cast<size_t>(std::countr_zero(fresh))));
        }
      }
    }
    // The members this component touches: its neighbourhood within the
    // row (never empty, since `start` conflicts with a member).
    const size_t word = components / kBitsPerWord;
    if (components % kBitsPerWord == 0) {
      cache.masks.resize((word + 1) * cache.members, 0);
    }
    // Members are ranked in row order, so one walk over each touched word
    // of the row, counting, finds every hit's mask.
    const uint64_t bit = uint64_t{1} << (components % kBitsPerWord);
    uint64_t* masks = cache.masks.data() + word * cache.members;
    for (size_t w = 0; w < words; ++w) {
      const uint64_t hit = neighbourhood_words[w] & row.word(w);
      if (hit == 0) continue;
      size_t rank = rank_[t1 * words + w];
      for (uint64_t member = row.word(w); member != 0;
           member &= member - 1, ++rank) {
        if (hit & member & -member) masks[rank] |= bit;
      }
    }
    ++components;
  }
  if (cache.masks.empty()) cache.masks.assign(cache.members, 0);
  cache.words =
      static_cast<uint32_t>(std::max<size_t>(1, BitWords(components)));
  pivot_bytes_.fetch_add(cache.masks.size() * sizeof(uint64_t),
                         std::memory_order_relaxed);
  return cache;
}

bool RobustnessAnalyzer::Reachable(TxnId t1, TxnId t2, TxnId tm) const {
  if (t2 == tm || conflict_.Test(t2, tm)) return true;
  const PivotCache& cache = PivotFor(t1);
  const uint64_t* a = cache.masks.data() + RankInRow(t1, t2);
  const uint64_t* b = cache.masks.data() + RankInRow(t1, tm);
  for (size_t w = 0; w < cache.words; ++w) {
    if (a[w * cache.members] & b[w * cache.members]) return true;
  }
  return false;
}

ConstBitSpan RobustnessAnalyzer::RcCandidatesFor(TxnId t1, int k) const {
  std::vector<std::pair<int, DenseBitset>>& slots = rc_cache_[t1];
  for (const std::pair<int, DenseBitset>& entry : slots) {
    if (entry.first == k) return entry.second.span();
  }
  // A candidate conflicts with t1: otherwise it has no operation after k
  // conflicting with T1 and is not rw-read by it.
  DenseBitset mask(txns_.size());
  const PairIndex* entry = pairs_.data() + row_start_[t1];
  conflict_.row(t1).ForEachSetBit([&](size_t tm) {
    if (entry->first_ww > k &&
        (rw_into_.Test(t1, tm) || entry->last_conflict > k)) {
      mask.Set(tm);
    }
    ++entry;
  });
  rc_bytes_.fetch_add(mask.num_words() * sizeof(uint64_t),
                      std::memory_order_relaxed);
  slots.emplace_back(k, std::move(mask));
  return slots.back().second.span();
}

std::optional<std::vector<TxnId>> RobustnessAnalyzer::InnerChain(
    TxnId t1, TxnId t2, TxnId tm) const {
  if (t2 == tm || conflict_.Test(t2, tm)) return std::vector<TxnId>{};
  const size_t n = txns_.size();
  // Unvisited nodes of mixed-iso-graph(t1, T \ {t1, t2, tm}).
  DenseBitset unvisited(n);
  unvisited.SetAll();
  unvisited.AndNotWith(conflict_.row(t1));
  unvisited.Reset(t1);
  unvisited.Reset(t2);
  unvisited.Reset(tm);
  // The BFS queue doubles as the parent forest: each entry names the queue
  // index of its discoverer (kSource for the nodes conflicting with t2).
  constexpr size_t kSource = std::numeric_limits<size_t>::max();
  struct Visit {
    TxnId node;
    size_t parent;
  };
  std::vector<Visit> queue;
  DenseBitset fresh(n);
  auto discover = [&](ConstBitSpan row, size_t parent) {
    fresh.CopyFrom(row);
    fresh.AndWith(unvisited);
    unvisited.AndNotWith(fresh);
    fresh.ForEachSetBit([&](size_t x) {
      queue.push_back(Visit{static_cast<TxnId>(x), parent});
    });
  };
  discover(conflict_.row(t2), kSource);
  for (size_t head = 0; head < queue.size(); ++head) {
    if (conflict_.Test(queue[head].node, tm)) {
      std::vector<TxnId> chain;
      for (size_t at = head; at != kSource; at = queue[at].parent) {
        chain.push_back(queue[at].node);
      }
      std::reverse(chain.begin(), chain.end());
      return chain;
    }
    discover(conflict_.row(queue[head].node), head);
  }
  return std::nullopt;
}

namespace {

// CheckRow's scratch rows, one set per thread and reused across rows;
// every use overwrites a row before reading it.
struct RowScratch {
  DenseBitset pair_mask;
  DenseBitset ssi_rw_in;
  DenseBitset ssi_rw_out;
  DenseBitset tm_mask;

  void Fit(size_t n) {
    if (pair_mask.size() == n) return;
    for (DenseBitset* row : {&pair_mask, &ssi_rw_in, &ssi_rw_out, &tm_mask}) {
      row->Resize(n);
    }
  }
};

}  // namespace

void RobustnessAnalyzer::CheckRow(const RowScan& scan, TxnId t1,
                                  uint64_t* words_scanned) const {
  const size_t n = txns_.size();
  const uint64_t words_per_row = (n + 63) / 64;
  uint64_t mask_ops = 0;  // Word-wise row operations; flushed on return.
  auto flush = [&] {
    if (words_scanned != nullptr) *words_scanned += mask_ops * words_per_row;
  };
  const Allocation& alloc = scan.alloc;
  ConstBitSpan ssi_mask = scan.ssi_mask;
  bool t1_rc = alloc.level(t1) == IsolationLevel::kRC;
  bool s1 = ssi_mask.Test(t1);
  thread_local RowScratch scratch;
  scratch.Fit(n);
  DenseBitset& pair_mask = scratch.pair_mask;
  DenseBitset& ssi_rw_out = scratch.ssi_rw_out;
  DenseBitset& tm_mask = scratch.tm_mask;

  // T2 candidates: b1 exists (rw row), the T2-side ww constraint of
  // Definition 3.1 (2)/(3), and — under double SSI — condition (7).
  pair_mask.CopyFrom(rw_.row(t1));
  pair_mask.AndWith(t1_rc ? rw_before_ww_.row(t1) : ww_never_.row(t1));
  mask_ops += 2;
  if (s1) {
    // Condition (8)'s exclusion: SSI Tm read by T1.
    DenseBitset& ssi_rw_in = scratch.ssi_rw_in;
    ssi_rw_in.CopyFrom(ssi_mask);
    ssi_rw_in.AndWith(rw_into_.row(t1));
    pair_mask.AndNotWith(ssi_rw_in);
    ssi_rw_out.CopyFrom(ssi_mask);
    ssi_rw_out.AndWith(rw_.row(t1));
    mask_ops += 5;
  }
  for (size_t t2 = pair_mask.FindFirst(); t2 < n;
       t2 = pair_mask.FindNext(t2 + 1)) {
    if (scan.best != nullptr &&
        t1 >= scan.best->load(std::memory_order_relaxed)) {
      flush();
      return;  // A lower row already fills the limit.
    }
    if (scan.cancel != nullptr &&
        scan.cancel->load(std::memory_order_relaxed)) {
      flush();
      return;  // Caller marks the result cancelled.
    }
    // Tm candidates for this pair: allocation-independent base (ww
    // constraint towards Tm + condition (5)) minus the SSI exclusions
    // (6) and (8).
    if (t1_rc) {
      tm_mask.CopyFrom(RcCandidatesFor(t1, pair(t1, t2).first_rw));
    } else {
      tm_mask.CopyFrom(si_candidates_.row(t1));
    }
    ++mask_ops;
    if (s1) {
      tm_mask.AndNotWith(ssi_rw_out);
      ++mask_ops;
      if (ssi_mask.Test(t2)) {
        tm_mask.AndNotWith(ssi_mask);
        ++mask_ops;
      }
    }
    for (size_t tm = tm_mask.FindFirst(); tm < n;
         tm = tm_mask.FindNext(tm + 1)) {
      if (!Reachable(t1, static_cast<TxnId>(t2), static_cast<TxnId>(tm))) {
        continue;
      }
      // Witness recovery: the reference operation search, then the inner
      // chain over the bit rows.
      PhaseTimer recovery(scan.metrics, "analyzer.witness_recovery");
      CounterexampleChain chain;
      bool found = internal::FindChainOperations(
          txns_, alloc, t1, static_cast<TxnId>(t2), static_cast<TxnId>(tm),
          &chain);
      if (!found) continue;  // Defensive; the indices guarantee success.
      std::optional<std::vector<TxnId>> inner =
          InnerChain(t1, static_cast<TxnId>(t2), static_cast<TxnId>(tm));
      if (!inner.has_value()) continue;
      chain.inner = std::move(inner).value();
      scan.found->push_back(std::move(chain));
      if (scan.found->size() >= scan.limit) {
        flush();
        return;
      }
    }
  }
  flush();
}

bool RobustnessAnalyzer::RecordWitness(const RowScan& scan, TxnId t1,
                                       TxnId t2, TxnId tm) const {
  // CheckRow's witness recovery: the reference operation search, then the
  // inner chain over the bit rows.
  PhaseTimer recovery(scan.metrics, "analyzer.witness_recovery");
  CounterexampleChain chain;
  // Defensive; the indices guarantee success.
  if (!internal::FindChainOperations(txns_, scan.alloc, t1, t2, tm, &chain)) {
    return false;
  }
  std::optional<std::vector<TxnId>> inner = InnerChain(t1, t2, tm);
  if (!inner.has_value()) return false;
  chain.inner = std::move(inner).value();
  scan.found->push_back(std::move(chain));
  return scan.found->size() >= scan.limit;
}

void RobustnessAnalyzer::CheckFocusRow(const RowScan& scan, TxnId t1,
                                       uint64_t* words_scanned) const {
  const size_t words = BitWords(txns_.size());
  const Focus& focus = *scan.focus;
  const ConstBitSpan changed = focus.changed.span();
  uint64_t touched = 0;  // Words read by the row's passes.
  const ConstBitSpan ssi = scan.ssi_mask;
  // Only SSI rows lie outside the changed ones (ScanDelta), so the T2
  // side is ww_never_ and the Tm candidates are si_candidates_ minus the
  // SSI exclusions.
  assert(ssi.Test(t1));
  const ConstBitSpan rw = rw_.row(t1);
  const ConstBitSpan rw_into = rw_into_.row(t1);
  const ConstBitSpan ww_never = ww_never_.row(t1);
  const ConstBitSpan tm_base = si_candidates_.row(t1);
  // CheckRow's conditions, one word at a time. The T2 candidates: b1
  // exists, the T2-side ww constraint, and not (8)'s SSI T2 that T1's
  // writes reach.
  auto t2_word = [&](size_t w) {
    return rw.word(w) & ww_never.word(w) & ~(ssi.word(w) & rw_into.word(w));
  };
  // The Tm candidates of (t1, t2): minus (8)'s SSI Tm that T1 reads and
  // (6)'s SSI Tm after an SSI T2.
  auto tm_word = [&](size_t w, bool t2_ssi) {
    return tm_base.word(w) &
           ~(ssi.word(w) & (t2_ssi ? ~uint64_t{0} : rw.word(w)));
  };
  auto stopped = [&] {
    return (scan.best != nullptr &&
            t1 >= scan.best->load(std::memory_order_relaxed)) ||
           (scan.cancel != nullptr &&
            scan.cancel->load(std::memory_order_relaxed));
  };
  // Tests the Tm in `bits` of word w in ascending order; true once the
  // limit is reached.
  auto test_tms = [&](size_t t2, size_t w, uint64_t bits) {
    for (; bits != 0; bits &= bits - 1) {
      const auto tm = static_cast<TxnId>(
          w * kBitsPerWord + static_cast<size_t>(std::countr_zero(bits)));
      if (Reachable(t1, static_cast<TxnId>(t2), tm) &&
          RecordWitness(scan, t1, static_cast<TxnId>(t2), tm)) {
        return true;
      }
    }
    return false;
  };
  // A pair with t2 in the focus tests every Tm candidate, any other pair
  // only those in the focus.
  auto test_pair = [&](size_t t2) {
    const bool t2_ssi = ssi.Test(t2);
    if (changed.Test(t2)) {
      touched += words;
      for (size_t w = 0; w < words; ++w) {
        if (test_tms(t2, w, tm_word(w, t2_ssi))) return true;
      }
      return false;
    }
    touched += focus.words.size();
    for (const uint32_t w : focus.words) {
      if (test_tms(t2, w, tm_word(w, t2_ssi) & changed.word(w))) return true;
    }
    return false;
  };
  // Tests the T2 candidates in `bits` of word w in ascending order; false
  // once the row is done.
  auto test_t2s = [&](size_t w, uint64_t bits) {
    for (; bits != 0; bits &= bits - 1) {
      const size_t t2 =
          w * kBitsPerWord + static_cast<size_t>(std::countr_zero(bits));
      if (stopped() || test_pair(t2)) return false;
    }
    return true;
  };

  // When no focus member is a Tm candidate, only pairs with t2 in the
  // focus remain.
  touched += focus.words.size();
  if (std::none_of(focus.words.begin(), focus.words.end(), [&](uint32_t w) {
        return (tm_base.word(w) & changed.word(w)) != 0;
      })) {
    for (const uint32_t w : focus.words) {
      if (!test_t2s(w, t2_word(w) & changed.word(w))) break;
    }
  } else {
    touched += words;
    for (size_t w = 0; w < words; ++w) {
      if (!test_t2s(w, t2_word(w))) break;
    }
  }
  if (words_scanned != nullptr) *words_scanned += touched;
}

namespace {

// Transactions at SSI in `alloc`.
DenseBitset SsiMask(const Allocation& alloc) {
  DenseBitset mask(alloc.size());
  for (TxnId t = 0; t < alloc.size(); ++t) {
    if (alloc.level(t) == IsolationLevel::kSSI) mask.Set(t);
  }
  return mask;
}

// Check's verdict from a limit-1 scan.
RobustnessResult FirstWitness(CounterexampleList found, size_t n) {
  RobustnessResult result;
  if (found.cancelled) {
    result.cancelled = true;
  } else if (!found.chains.empty()) {
    CounterexampleChain& chain = found.chains.front();
    result.robust = false;
    result.triples_examined =
        internal::TriplesUpToWitness(n, chain.t1, chain.t2, chain.tm);
    result.counterexample = std::move(chain);
  } else {
    result.triples_examined = internal::TriplesWhenRobust(n);
  }
  return result;
}

}  // namespace

RobustnessResult RobustnessAnalyzer::Check(const Allocation& alloc) const {
  return Check(alloc, CheckOptions{});
}

RobustnessResult RobustnessAnalyzer::Check(const Allocation& alloc,
                                           const CheckOptions& options) const {
  return FirstWitness(Scan(alloc, nullptr, 1, false, options), txns_.size());
}

RobustnessResult RobustnessAnalyzer::CheckDelta(
    DeltaBase& base, std::span<const LevelChange> changes,
    const CheckOptions& options) const {
  return FirstWitness(ScanDelta(base, changes, 1, false, options),
                      txns_.size());
}

CounterexampleList RobustnessAnalyzer::FindAll(
    const Allocation& alloc, size_t limit, const CheckOptions& options) const {
  return Scan(alloc, nullptr, limit, true, options);
}

CounterexampleList RobustnessAnalyzer::FindAll(
    DeltaBase& base, std::span<const LevelChange> changes, size_t limit,
    const CheckOptions& options) const {
  return ScanDelta(base, changes, limit, true, options);
}

DeltaBase::DeltaBase(Allocation base)
    : alloc_(std::move(base)), ssi_(SsiMask(alloc_)) {}

CounterexampleList RobustnessAnalyzer::ScanDelta(
    DeltaBase& base, std::span<const LevelChange> changes, size_t limit,
    bool enumerate, const CheckOptions& options) const {
  assert(base.alloc_.size() == txns_.size());
  // The focus is every transaction whose level changes; the levels it
  // replaces are restored, in reverse, once the scan is done.
  const size_t n = txns_.size();
  Focus focus{DenseBitset(n), {}, DenseBitset(n), base.ssi_.span()};
  std::vector<TxnId> left_ssi;
  std::vector<IsolationLevel> replaced;
  replaced.reserve(changes.size());
  auto assign = [&](TxnId t, IsolationLevel level) {
    base.alloc_.set_level(t, level);
    base.ssi_.Assign(t, level == IsolationLevel::kSSI);
  };
  for (const LevelChange& change : changes) {
    replaced.push_back(base.alloc_.level(change.txn));
    if (change.level == replaced.back()) continue;
    if (replaced.back() == IsolationLevel::kSSI) left_ssi.push_back(change.txn);
    focus.changed.Set(change.txn);
    assign(change.txn, change.level);
  }
  // The rows that can hold a new witness. A triple's verdict reads T1's
  // level, and T2's and Tm's only through the SSI conditions (6)-(8),
  // which need an SSI T1 and only ever exclude triples. So a row whose t1
  // keeps its level holds a new witness only if t1 is at SSI and its t2
  // or tm left SSI; both lie in t1's conflict row.
  focus.rows = focus.changed;
  uint64_t* rows = focus.rows.span().data();
  const ConstBitSpan ssi = base.ssi_.span();
  for (TxnId t : left_ssi) {
    const ConstBitSpan conflicts = conflict_.row(t);
    for (size_t w = 0; w < focus.rows.num_words(); ++w) {
      rows[w] |= conflicts.word(w) & ssi.word(w);
    }
  }
  for (size_t w = 0; w < focus.changed.num_words(); ++w) {
    if (focus.changed.span().word(w) != 0) {
      focus.words.push_back(static_cast<uint32_t>(w));
    }
  }
  CounterexampleList found =
      Scan(base.alloc_, &focus, limit, enumerate, options);
  for (size_t i = changes.size(); i-- > 0;) {
    assign(changes[i].txn, replaced[i]);
  }
  return found;
}

namespace {

// The triples of the canonical scan order (RobustnessResult::
// triples_examined) with a member in `focus`, up to and including the
// witness, or all of them when there is none: what a delta check covers.
uint64_t FocusTriples(const DenseBitset& focus,
                      const CounterexampleChain* witness) {
  const size_t n = focus.size();
  const uint64_t m = n - 1;
  const uint64_t c = focus.Count();
  // A row whose t1 is outside the focus misses the (m - c)^2 triples with
  // neither t2 nor tm in it.
  auto row = [&](TxnId t1) {
    return focus.Test(t1) ? m * m : m * m - (m - c) * (m - c);
  };
  const TxnId rows = witness != nullptr ? witness->t1 : n;
  uint64_t count = 0;
  for (TxnId t1 = 0; t1 < rows; ++t1) count += row(t1);
  if (witness == nullptr) return count;
  const TxnId t1 = witness->t1;
  const bool row_in = focus.Test(t1);
  for (TxnId t2 = 0; t2 < witness->t2; ++t2) {
    if (t2 == t1) continue;
    count += row_in || focus.Test(t2) ? m : c;
  }
  const bool pair_in = row_in || focus.Test(witness->t2);
  for (TxnId tm = 0; tm <= witness->tm; ++tm) {
    if (tm != t1 && (pair_in || focus.Test(tm))) ++count;
  }
  return count;
}

// Checks count in analyzer.checks (full ones with their audited triples,
// delta ones with the triples they cover); enumerations count apart, with
// the witnesses they returned.
void RecordScanMetrics(MetricsRegistry* metrics,
                       const CounterexampleList& found,
                       const DenseBitset* focus, bool enumerate, size_t n,
                       uint64_t words_scanned, uint64_t rows_scanned) {
  const CounterexampleChain* witness =
      found.chains.empty() ? nullptr : &found.chains.front();
  if (enumerate) {
    metrics->counter("analyzer.enumerations").Increment();
    metrics->counter("analyzer.witnesses_enumerated").Add(found.chains.size());
  } else {
    metrics->counter("analyzer.checks").Increment();
    if (focus != nullptr) metrics->counter("analyzer.delta_checks").Increment();
    if (focus == nullptr) {
      uint64_t triples = 0;  // A cancelled check has no verdict.
      if (!found.cancelled) {
        triples = witness == nullptr
                      ? internal::TriplesWhenRobust(n)
                      : internal::TriplesUpToWitness(n, witness->t1,
                                                     witness->t2, witness->tm);
      }
      metrics->counter("analyzer.triples_examined").Add(triples);
    } else if (!found.cancelled) {
      metrics->counter("analyzer.delta_triples_examined")
          .Add(FocusTriples(*focus, witness));
    }
    if (!found.cancelled && witness != nullptr) {
      metrics->counter("analyzer.counterexamples_found").Increment();
    }
  }
  metrics->counter("analyzer.bitset_words_scanned").Add(words_scanned);
  metrics->counter("analyzer.rows_scanned").Add(rows_scanned);
  if (found.cancelled) {
    metrics->counter("analyzer.checks_cancelled").Increment();
  }
}

}  // namespace

CounterexampleList RobustnessAnalyzer::Scan(const Allocation& alloc,
                                            const Focus* focus, size_t limit,
                                            bool enumerate,
                                            const CheckOptions& options) const {
  MetricsRegistry* metrics =
      options.metrics != nullptr ? options.metrics : metrics_;
  CounterexampleList found;
  const size_t n = txns_.size();
  if (n < 2 || limit == 0) {
    if (metrics != nullptr) {
      metrics->counter(enumerate ? "analyzer.enumerations" : "analyzer.checks")
          .Increment();
      if (!enumerate && focus != nullptr) {
        metrics->counter("analyzer.delta_checks").Increment();
      }
    }
    return found;
  }
  PhaseTimer scan_timer(metrics, "analyzer.triple_scan");
  // One heartbeat per completed row (from whichever thread finished it):
  // rows complete many times a second on any healthy check, so a silent
  // wedge inside the scan trips the deadline.
  WatchdogScope watch(options.watchdog, "analyzer.triple_scan",
                      std::chrono::seconds(30));

  // A delta scan reads the prepared base's SSI mask.
  const DenseBitset ssi_mask =
      focus == nullptr ? SsiMask(alloc) : DenseBitset();
  const ConstBitSpan ssi = focus != nullptr ? focus->ssi : ssi_mask.span();
  const RowScan scan{alloc,   ssi,           focus, nullptr, options.cancel,
                     metrics, &found.chains, limit};
  // A delta scan visits focus->rows alone.
  const DenseBitset* changed = focus != nullptr ? &focus->changed : nullptr;
  uint64_t words_scanned =
      focus != nullptr ? (changed->Count() + 1) * changed->num_words() : 0;
  auto skip = [&](size_t t1) {
    return focus != nullptr && !focus->rows.Test(t1);
  };
  // A delta row whose t1 keeps its level tests only the focus.
  auto check_row = [&](const RowScan& row_scan, size_t t1, uint64_t* words) {
    if (focus != nullptr && !focus->changed.Test(t1)) {
      CheckFocusRow(row_scan, static_cast<TxnId>(t1), words);
    } else {
      CheckRow(row_scan, static_cast<TxnId>(t1), words);
    }
  };
  uint64_t rows_scanned = 0;
  const std::atomic<bool>* cancel = options.cancel;
  auto cancelled = [cancel] {
    return cancel != nullptr && cancel->load(std::memory_order_relaxed);
  };
  auto finish = [&](uint64_t words) {
    if (cancelled()) {
      // Partial scan: strip every witness so nothing downstream trusts it.
      found.chains.clear();
      found.cancelled = true;
    }
    if (metrics != nullptr) {
      RecordScanMetrics(metrics, found, changed, enumerate, n, words,
                        rows_scanned);
      RecordBytes(metrics);
    }
    return std::move(found);
  };
  const int threads = ThreadPool::ResolveThreads(options.num_threads);
  if (threads <= 1) {
    auto next = [&](size_t t1) {
      return focus == nullptr ? t1 : focus->rows.FindNext(t1);
    };
    for (size_t t1 = next(0);
         t1 < n && !cancelled() && found.chains.size() < limit;
         t1 = next(t1 + 1)) {
      check_row(scan, t1, metrics != nullptr ? &words_scanned : nullptr);
      ++rows_scanned;
      watch.Heartbeat();
    }
    if (metrics != nullptr) {
      metrics->histogram("analyzer.rows_per_thread").Observe(rows_scanned);
    }
    return finish(words_scanned);
  }

  // Parallel rows with deterministic reduction: each row collects up to
  // `limit` witnesses of its own, and `best` tracks the lowest t1 whose
  // row alone fills the limit (CAS-min). A row only abandons when a
  // strictly lower row fills the limit, so every row below the final
  // `best` completed a full scan — concatenating the rows in t1 order and
  // truncating at `limit` is exactly the sequential answer.
  //
  // Metrics accounting keeps off the shared cache lines the scan itself
  // uses: words scanned accumulate per row into one atomic, and per-thread
  // row counts go into 64 cache-line-padded slots keyed by the dense
  // thread id (observed as the rows_per_thread work-balance histogram).
  struct alignas(64) RowSlot {
    std::atomic<uint64_t> rows{0};
  };
  static_assert(sizeof(RowSlot) == 64);
  std::unique_ptr<std::array<RowSlot, 64>> slots;
  std::atomic<uint64_t> words_total{words_scanned};
  const bool instrumented = metrics != nullptr;
  if (instrumented) slots = std::make_unique<std::array<RowSlot, 64>>();

  std::atomic<uint32_t> best{static_cast<uint32_t>(n)};
  std::vector<std::vector<CounterexampleChain>> rows(n);
  ThreadPool::Shared().ParallelFor(
      n, threads,
      [&](size_t i) {
        if (i >= best.load(std::memory_order_acquire)) return;
        if (skip(i) || cancelled()) return;
        RowScan row_scan = scan;
        row_scan.best = &best;
        row_scan.found = &rows[i];
        uint64_t row_words = 0;
        check_row(row_scan, i, instrumented ? &row_words : nullptr);
        watch.Heartbeat();
        if (instrumented) {
          words_total.fetch_add(row_words, std::memory_order_relaxed);
          (*slots)[MetricsRegistry::CurrentThreadId() % slots->size()]
              .rows.fetch_add(1, std::memory_order_relaxed);
        }
        if (rows[i].size() < limit) return;
        uint32_t current = best.load(std::memory_order_acquire);
        while (i < current &&
               !best.compare_exchange_weak(current, static_cast<uint32_t>(i),
                                           std::memory_order_acq_rel)) {
        }
      },
      metrics);
  for (uint32_t t1 = 0; t1 < n && found.chains.size() < limit; ++t1) {
    for (CounterexampleChain& chain : rows[t1]) {
      if (found.chains.size() >= limit) break;
      found.chains.push_back(std::move(chain));
    }
  }
  if (instrumented) {
    Histogram& balance = metrics->histogram("analyzer.rows_per_thread");
    for (const RowSlot& slot : *slots) {
      uint64_t per_thread = slot.rows.load(std::memory_order_relaxed);
      if (per_thread == 0) continue;
      balance.Observe(per_thread);
      rows_scanned += per_thread;
    }
  }
  return finish(words_total.load(std::memory_order_relaxed));
}

}  // namespace mvrob
