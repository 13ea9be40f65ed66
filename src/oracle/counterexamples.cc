#include "oracle/counterexamples.h"

#include <optional>
#include <utility>

#include "common/thread_pool.h"
#include "core/conflict.h"
#include "core/mixed_iso_graph.h"

namespace mvrob {

namespace {

// The per-t1-row body shared by the sequential and parallel enumerators:
// collects up to `limit` chains of the row in ascending (t2, tm) order.
// All per-triple conditions are row-local, so rows can run on any thread
// with identical output.
void CollectRowCounterexamples(const TransactionSet& txns,
                               const Allocation& alloc,
                               const BitMatrix& conflict, TxnId t1,
                               size_t limit,
                               std::vector<CounterexampleChain>* chains) {
  const size_t n = txns.size();
  auto is_ssi = [&](TxnId t) {
    return alloc.level(t) == IsolationLevel::kSSI;
  };
  for (TxnId t2 = 0; t2 < n && chains->size() < limit; ++t2) {
    if (t2 == t1) continue;
    for (TxnId tm = 0; tm < n && chains->size() < limit; ++tm) {
      if (tm == t1) continue;
      if (is_ssi(t1) && is_ssi(t2) && is_ssi(tm)) continue;
      if (is_ssi(t1) && is_ssi(t2) && !WrConflictFreeTxns(txns, t1, t2)) {
        continue;
      }
      if (is_ssi(t1) && is_ssi(tm) && !WrConflictFreeTxns(txns, tm, t1)) {
        continue;
      }
      CounterexampleChain chain;
      if (!internal::FindChainOperations(txns, alloc, t1, t2, tm, &chain)) {
        continue;
      }
      MixedIsoGraph graph(txns, t1, {t2, tm}, &conflict);
      std::optional<std::vector<TxnId>> inner = graph.FindInnerChain(t2, tm);
      if (!inner.has_value()) continue;
      chain.inner = std::move(inner).value();
      chains->push_back(std::move(chain));
    }
  }
}

}  // namespace

std::vector<CounterexampleChain> FindAllCounterexamples(
    const TransactionSet& txns, const Allocation& alloc, size_t limit,
    const CheckOptions& options) {
  std::vector<CounterexampleChain> chains;
  if (limit == 0) return chains;
  const size_t n = txns.size();
  // One conflict matrix shared across every candidate triple's
  // mixed-iso-graph, instead of O(n^2) TxnsConflict recomputation each.
  const BitMatrix conflict = BuildConflictMatrix(txns);

  const int threads = ThreadPool::ResolveThreads(options.num_threads);
  if (threads <= 1 || n < 2) {
    for (TxnId t1 = 0; t1 < n && chains.size() < limit; ++t1) {
      std::vector<CounterexampleChain> row;
      CollectRowCounterexamples(txns, alloc, conflict, t1,
                                limit - chains.size(), &row);
      for (CounterexampleChain& chain : row) {
        chains.push_back(std::move(chain));
      }
    }
    return chains;
  }

  // Rows are independent; collect up to `limit` per row, then concatenate
  // in t1 order and truncate — byte-identical to the sequential scan.
  std::vector<std::vector<CounterexampleChain>> rows(n);
  ThreadPool::Shared().ParallelFor(n, threads, [&](size_t t1) {
    CollectRowCounterexamples(txns, alloc, conflict,
                              static_cast<TxnId>(t1), limit, &rows[t1]);
  });
  for (std::vector<CounterexampleChain>& row : rows) {
    for (CounterexampleChain& chain : row) {
      if (chains.size() >= limit) return chains;
      chains.push_back(std::move(chain));
    }
  }
  return chains;
}

}  // namespace mvrob
