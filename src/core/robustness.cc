#include "core/robustness.h"

#include "common/string_util.h"
#include "core/analyzer.h"

namespace mvrob {

std::vector<TxnId> CounterexampleChain::ChainTxns() const {
  std::vector<TxnId> chain{t1, t2};
  chain.insert(chain.end(), inner.begin(), inner.end());
  if (tm != t2) chain.push_back(tm);
  return chain;
}

std::string CounterexampleChain::ToString(const TransactionSet& txns) const {
  std::vector<std::string> names;
  for (TxnId t : ChainTxns()) names.push_back(txns.txn(t).name());
  return StrCat("split ", txns.txn(t1).name(), " after ", txns.FormatOp(b1),
                "; chain ", Join(names, " -> "), "; edges ",
                txns.FormatOp(b1), "->", txns.FormatOp(a2), " and ",
                txns.FormatOp(bm), "->", txns.FormatOp(a1));
}

namespace {

// Algorithm 1's ww-conflict-free(b1, T1, T2, Tm): no write of T1 that lies
// in prefix_{b1}(T1) — or anywhere in T1 when A(T1) is SI or SSI — is
// ww-conflicting with a write of T2 or Tm (Definition 3.1 (2) and (3)).
bool WwConflictFree(const TransactionSet& txns, const Allocation& alloc,
                    OpRef b1, TxnId t2, TxnId tm) {
  const Transaction& txn1 = txns.txn(b1.txn);
  bool whole_txn = alloc.level(b1.txn) != IsolationLevel::kRC;
  for (int i = 0; i < txn1.num_ops(); ++i) {
    const Operation& c1 = txn1.op(i);
    if (!c1.IsWrite()) continue;
    if (!whole_txn && i > b1.index) continue;
    if (txns.txn(t2).Writes(c1.object) || txns.txn(tm).Writes(c1.object)) {
      return false;
    }
  }
  return true;
}

}  // namespace

namespace internal {

bool FindChainOperations(const TransactionSet& txns, const Allocation& alloc,
                         TxnId t1, TxnId t2, TxnId tm,
                         CounterexampleChain* chain) {
  const Transaction& txn1 = txns.txn(t1);
  const Transaction& txn2 = txns.txn(t2);
  const Transaction& txnm = txns.txn(tm);
  bool t1_is_rc = alloc.level(t1) == IsolationLevel::kRC;

  for (int i1 = 0; i1 < txn1.num_ops(); ++i1) {
    const Operation& op_b1 = txn1.op(i1);
    // Definition 3.1 (4): b1 must be rw-conflicting with a write a2 of T2.
    if (!op_b1.IsRead() || !txn2.Writes(op_b1.object)) continue;
    OpRef b1{t1, i1};
    if (!WwConflictFree(txns, alloc, b1, t2, tm)) continue;
    OpRef a2{t2, *txn2.FirstWriteIndex(op_b1.object)};

    // Definition 3.1 (5): bm conflicts with a1, and either rw-conflicting
    // or (A(T1) = RC and b1 <_T1 a1).
    for (int j1 = 0; j1 < txn1.num_ops(); ++j1) {
      const Operation& op_a1 = txn1.op(j1);
      if (op_a1.IsCommit()) continue;
      for (int jm = 0; jm < txnm.num_ops(); ++jm) {
        const Operation& op_bm = txnm.op(jm);
        if (!Conflicting(op_bm, op_a1)) continue;
        bool rw = RwConflicting(op_bm, op_a1);
        bool rc_case = t1_is_rc && i1 < j1;
        if (!rw && !rc_case) continue;
        chain->t1 = t1;
        chain->t2 = t2;
        chain->tm = tm;
        chain->b1 = b1;
        chain->a1 = OpRef{t1, j1};
        chain->a2 = a2;
        chain->bm = OpRef{tm, jm};
        return true;
      }
    }
  }
  return false;
}

uint64_t TriplesWhenRobust(size_t n) {
  if (n < 2) return 0;
  const uint64_t m = static_cast<uint64_t>(n - 1);
  return static_cast<uint64_t>(n) * m * m;
}

uint64_t TriplesUpToWitness(size_t n, TxnId t1, TxnId t2, TxnId tm) {
  const uint64_t m = static_cast<uint64_t>(n - 1);
  // Fully scanned t1 rows before the witness row.
  uint64_t count = static_cast<uint64_t>(t1) * m * m;
  // Fully scanned (t1, t2') pairs with t2' < t2, t2' != t1.
  count += (static_cast<uint64_t>(t2) - (t1 < t2 ? 1 : 0)) * m;
  // Partial inner scan: tm' <= tm, tm' != t1.
  count += static_cast<uint64_t>(tm) + 1 - (t1 < tm ? 1 : 0);
  return count;
}

}  // namespace internal

RobustnessResult CheckRobustness(const TransactionSet& txns,
                                 const Allocation& alloc) {
  RobustnessResult result;
  const size_t n = txns.size();
  auto is_ssi = [&](TxnId t) {
    return alloc.level(t) == IsolationLevel::kSSI;
  };
  const BitMatrix conflict = BuildConflictMatrix(txns);

  for (TxnId t1 = 0; t1 < n; ++t1) {
    for (TxnId t2 = 0; t2 < n; ++t2) {
      if (t2 == t1) continue;
      for (TxnId tm = 0; tm < n; ++tm) {
        if (tm == t1) continue;
        // Definition 3.1 (6)-(8): the SSI side conditions.
        if (is_ssi(t1) && is_ssi(t2) && is_ssi(tm)) continue;
        if (is_ssi(t1) && is_ssi(t2) && !WrConflictFreeTxns(txns, t1, t2)) {
          continue;
        }
        if (is_ssi(t1) && is_ssi(tm) && !WrConflictFreeTxns(txns, tm, t1)) {
          continue;
        }
        CounterexampleChain chain;
        if (!internal::FindChainOperations(txns, alloc, t1, t2, tm,
                                           &chain)) {
          continue;
        }
        // reachable(T2, Tm, T1): T2 = Tm, a direct conflict, or a path
        // through mixed-iso-graph(T1, T \ {T1, T2, Tm}).
        MixedIsoGraph graph(txns, t1, {t2, tm}, &conflict);
        std::optional<std::vector<TxnId>> inner_chain =
            graph.FindInnerChain(t2, tm);
        if (!inner_chain.has_value()) continue;
        chain.inner = std::move(inner_chain).value();
        result.robust = false;
        result.counterexample = std::move(chain);
        result.triples_examined =
            internal::TriplesUpToWitness(n, t1, t2, tm);
        return result;
      }
    }
  }
  result.triples_examined = internal::TriplesWhenRobust(n);
  return result;
}

RobustnessResult CheckRobustness(const TransactionSet& txns,
                                 const Allocation& alloc,
                                 const CheckOptions& options) {
  // Pass the sink to the constructor too, so the one-shot entry point also
  // times the matrix-build phases.
  return RobustnessAnalyzer(txns, options.metrics).Check(alloc, options);
}

}  // namespace mvrob
