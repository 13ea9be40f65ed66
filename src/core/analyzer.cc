#include "core/analyzer.h"

#include <algorithm>
#include <array>
#include <limits>
#include <memory>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/watchdog.h"
#include "txn/conflict.h"

namespace mvrob {

RobustnessAnalyzer::RobustnessAnalyzer(const TransactionSet& txns,
                                       MetricsRegistry* metrics)
    : RobustnessAnalyzer(txns, ConflictPruner{}, metrics) {}

RobustnessAnalyzer::RobustnessAnalyzer(const TransactionSet& txns,
                                       const ConflictPruner& pruner,
                                       MetricsRegistry* metrics)
    : txns_(txns), metrics_(metrics) {
  const size_t n = txns.size();
  conflict_ = BitMatrix(n, n);
  rw_ = BitMatrix(n, n);
  rw_into_ = BitMatrix(n, n);
  ww_never_ = BitMatrix(n, n);
  rw_before_ww_ = BitMatrix(n, n);
  si_candidates_ = BitMatrix(n, n);
  first_ww_idx_.assign(n * n, kNever);
  first_rw_idx_.assign(n * n, kNever);
  last_conflict_idx_.assign(n * n, -1);
  pivot_cache_.resize(n);
  rc_cache_.resize(n);

  {
    PhaseTimer matrix_timer(metrics_, "analyzer.build_conflict_matrix");
    for (TxnId i = 0; i < n; ++i) {
      const Transaction& ti = txns.txn(i);
      for (TxnId j = 0; j < n; ++j) {
        if (i == j) continue;
        // A sound pruner clearing the pair means no operation-level
        // conflict exists; the sentinel defaults already encode that.
        if (!pruner.MayConflict(i, j)) continue;
        const Transaction& tj = txns.txn(j);
        int& first_ww = first_ww_idx_[i * n + j];
        int& first_rw = first_rw_idx_[i * n + j];
        int& last_conflict = last_conflict_idx_[i * n + j];
        for (int k = 0; k < ti.num_ops(); ++k) {
          const Operation& op = ti.op(k);
          if (op.IsCommit()) continue;
          bool writes_j = tj.Writes(op.object);
          if (op.IsWrite()) {
            if (writes_j && first_ww == kNever) first_ww = k;
            if (writes_j || tj.Reads(op.object)) last_conflict = k;
          } else if (writes_j) {
            rw_.Set(i, j);
            if (first_rw == kNever) first_rw = k;
            last_conflict = k;
          }
        }
        if (rw_.Test(i, j) || first_ww != kNever || last_conflict >= 0) {
          conflict_.Set(i, j);
        }
      }
    }
  }
  // Close conflict_ under symmetry (the scan sees rw via Ti's reads only)
  // and derive the candidate rows.
  PhaseTimer masks_timer(metrics_, "analyzer.build_candidate_masks");
  for (TxnId i = 0; i < n; ++i) {
    for (TxnId j = i + 1; j < n; ++j) {
      if (conflict_.Test(i, j) || conflict_.Test(j, i)) {
        conflict_.Set(i, j);
        conflict_.Set(j, i);
      }
      if (rw_.Test(i, j)) rw_into_.Set(j, i);
      if (rw_.Test(j, i)) rw_into_.Set(i, j);
    }
  }
  for (TxnId i = 0; i < n; ++i) {
    for (TxnId j = 0; j < n; ++j) {
      int first_ww = first_ww_idx_[i * n + j];
      if (first_ww == kNever) ww_never_.Set(i, j);
      int first_rw = first_rw_idx_[i * n + j];
      if (first_rw != kNever && first_rw < first_ww) rw_before_ww_.Set(i, j);
    }
    BitSpan si = si_candidates_.row(i);
    si.CopyFrom(ww_never_.row(i));
    si.AndWith(rw_into_.row(i));
  }
}

const RobustnessAnalyzer::PivotCache& RobustnessAnalyzer::PivotFor(
    TxnId t1) const {
  std::optional<PivotCache>& slot = pivot_cache_[t1];
  if (slot.has_value()) return *slot;

  const size_t n = txns_.size();
  // Nodes: transactions not conflicting with t1 (conflict_ is symmetric,
  // so this is the complement of t1's row). Components via union-find,
  // edges walked word-wise over the conflict rows restricted to the node
  // set.
  DenseBitset node_mask(n);
  node_mask.SetAll();
  node_mask.AndNotWith(conflict_.row(t1));
  node_mask.Reset(t1);

  std::vector<int> comp_of(n, -1);
  std::vector<TxnId> nodes;
  node_mask.ForEachSetBit(
      [&](size_t x) { nodes.push_back(static_cast<TxnId>(x)); });
  std::vector<int> node_index(n, -1);
  for (size_t i = 0; i < nodes.size(); ++i) {
    node_index[nodes[i]] = static_cast<int>(i);
  }
  // Simple DSU.
  std::vector<size_t> parent(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) parent[i] = i;
  auto find = [&](size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  DenseBitset row_nodes(n);
  for (size_t i = 0; i < nodes.size(); ++i) {
    row_nodes.CopyFrom(conflict_.row(nodes[i]));
    row_nodes.AndWith(node_mask);
    row_nodes.ForEachSetBit([&](size_t y) {
      size_t j = static_cast<size_t>(node_index[y]);
      if (j > i) parent[find(i)] = find(j);
    });
  }
  // Dense component ids.
  std::vector<int> dense(nodes.size(), -1);
  int num_components = 0;
  for (size_t i = 0; i < nodes.size(); ++i) {
    size_t root = find(i);
    if (dense[root] < 0) dense[root] = num_components++;
    comp_of[nodes[i]] = dense[root];
  }

  PivotCache cache;
  cache.comp_conf.assign(n, DenseBitset(static_cast<size_t>(num_components)));
  for (size_t i = 0; i < nodes.size(); ++i) {
    int c = comp_of[nodes[i]];
    // conflict_'s diagonal is clear, so x != nodes[i] throughout.
    conflict_.row(nodes[i]).ForEachSetBit(
        [&](size_t x) { cache.comp_conf[x].Set(static_cast<size_t>(c)); });
  }
  slot = std::move(cache);
  return *slot;
}

bool RobustnessAnalyzer::Reachable(TxnId t1, TxnId t2, TxnId tm) const {
  if (t2 == tm || conflict_.Test(t2, tm)) return true;
  const PivotCache& cache = PivotFor(t1);
  return cache.comp_conf[t2].Intersects(cache.comp_conf[tm]);
}

ConstBitSpan RobustnessAnalyzer::RcCandidatesFor(TxnId t1, int k) const {
  std::vector<std::pair<int, DenseBitset>>& slots = rc_cache_[t1];
  for (const std::pair<int, DenseBitset>& entry : slots) {
    if (entry.first == k) return entry.second.span();
  }
  const size_t n = txns_.size();
  DenseBitset mask(n);
  for (TxnId tm = 0; tm < n; ++tm) {
    if (tm == t1) continue;
    if (first_ww_idx(t1, tm) > k &&
        (rw_into_.Test(t1, tm) || last_conflict_idx(t1, tm) > k)) {
      mask.Set(tm);
    }
  }
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
  // Under a delta focus that misses t1, a triple can only be new when t2
  // or tm is in the focus. Every Tm candidate of the row lies in t1's
  // conflict row (si_candidates_ for SI/SSI t1), so when that meets no
  // focus member only the pairs with t2 in the focus remain.
  const DenseBitset* narrow =
      scan.focus != nullptr && !scan.focus->Test(t1) ? scan.focus : nullptr;
  if (narrow != nullptr &&
      !narrow->Intersects(t1_rc ? conflict_.row(t1)
                                : si_candidates_.row(t1))) {
    pair_mask.AndWith(*narrow);
    mask_ops += 2;
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
      tm_mask.CopyFrom(RcCandidatesFor(t1, first_rw_idx(t1, t2)));
    } else {
      tm_mask.CopyFrom(si_candidates_.row(t1));
    }
    ++mask_ops;
    if (narrow != nullptr && !narrow->Test(t2)) {
      tm_mask.AndWith(*narrow);
      ++mask_ops;
    }
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

namespace {

DenseBitset ChangedLevels(const Allocation& base, const Allocation& candidate) {
  DenseBitset changed(candidate.size());
  for (TxnId t = 0; t < candidate.size(); ++t) {
    if (base.level(t) != candidate.level(t)) changed.Set(t);
  }
  return changed;
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
    const Allocation& base, const Allocation& candidate,
    const CheckOptions& options) const {
  const DenseBitset changed = ChangedLevels(base, candidate);
  return FirstWitness(Scan(candidate, &changed, 1, false, options),
                      txns_.size());
}

CounterexampleList RobustnessAnalyzer::FindAll(
    const Allocation& alloc, size_t limit, const CheckOptions& options) const {
  return Scan(alloc, nullptr, limit, true, options);
}

CounterexampleList RobustnessAnalyzer::FindAll(
    const Allocation& base, const Allocation& candidate, size_t limit,
    const CheckOptions& options) const {
  const DenseBitset changed = ChangedLevels(base, candidate);
  return Scan(candidate, &changed, limit, true, options);
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
                                            const DenseBitset* focus,
                                            size_t limit, bool enumerate,
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

  DenseBitset ssi_mask(n);
  for (TxnId t = 0; t < n; ++t) {
    if (alloc.level(t) == IsolationLevel::kSSI) ssi_mask.Set(t);
  }
  const RowScan scan{alloc,   ssi_mask,      focus, nullptr, options.cancel,
                     metrics, &found.chains, limit};
  // A triple through a focus member t has t1 = t or t1 conflicting with t
  // (its t2 and tm candidates lie in t1's conflict row), so a delta scan
  // skips every other row.
  uint64_t words_scanned = 0;
  DenseBitset reach;
  if (focus != nullptr) {
    reach = *focus;
    focus->ForEachSetBit([&](size_t t) { reach.OrWith(conflict_.row(t)); });
    words_scanned = (focus->Count() + 1) * reach.num_words();
  }
  auto skip = [&](size_t t1) { return focus != nullptr && !reach.Test(t1); };
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
      RecordScanMetrics(metrics, found, focus, enumerate, n, words,
                        rows_scanned);
    }
    return std::move(found);
  };
  const int threads = ThreadPool::ResolveThreads(options.num_threads);
  if (threads <= 1) {
    for (TxnId t1 = 0; t1 < n && !cancelled() && found.chains.size() < limit;
         ++t1) {
      if (skip(t1)) continue;
      CheckRow(scan, t1, metrics != nullptr ? &words_scanned : nullptr);
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
        CheckRow(row_scan, static_cast<TxnId>(i),
                 instrumented ? &row_words : nullptr);
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
