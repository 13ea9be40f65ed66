#include "core/robustness.h"

#include "common/string_util.h"
#include "core/analyzer.h"
#include "core/split_schedule.h"

namespace mvrob {

std::vector<TxnId> CounterexampleChain::ChainTxns() const {
  std::vector<TxnId> chain = MiddleTxns();
  chain.insert(chain.begin(), t1);
  return chain;
}

std::vector<TxnId> CounterexampleChain::MiddleTxns() const {
  std::vector<TxnId> middle{t2};
  middle.insert(middle.end(), inner.begin(), inner.end());
  if (tm != t2) middle.push_back(tm);
  return middle;
}

std::string CounterexampleChain::ToString(const TransactionSet& txns) const {
  std::vector<std::string> names;
  for (TxnId t : ChainTxns()) names.push_back(txns.txn(t).name());
  return StrCat("split ", txns.txn(t1).name(), " after ", txns.FormatOp(b1),
                "; chain ", Join(names, " -> "), "; edges ",
                txns.FormatOp(b1), "->", txns.FormatOp(a2), " and ",
                txns.FormatOp(bm), "->", txns.FormatOp(a1));
}

namespace internal {

bool FindChainOperations(const TransactionSet& txns, const Allocation& alloc,
                         TxnId t1, TxnId t2, TxnId tm,
                         CounterexampleChain* chain) {
  const Transaction& txn1 = txns.txn(t1);
  const Transaction& txn2 = txns.txn(t2);
  const Transaction& txnm = txns.txn(tm);
  const IsolationLevel t1_level = alloc.level(t1);

  for (int i1 = 0; i1 < txn1.num_ops(); ++i1) {
    const Operation& op_b1 = txn1.op(i1);
    // Definition 3.1 (4): b1 must be rw-conflicting with a write a2 of T2.
    if (!op_b1.IsRead() || !txn2.Writes(op_b1.object)) continue;
    OpRef b1{t1, i1};
    // (2)/(3): T1's writes stay clear of those of T2 and Tm.
    if (!SplitWwConflictFree(txns, t1_level, b1, t2, tm)) continue;
    OpRef a2{t2, *txn2.FirstWriteIndex(op_b1.object)};

    // (5): bm conflicts with a1, rw-conflicting or the RC split case.
    for (int j1 = 0; j1 < txn1.num_ops(); ++j1) {
      const Operation& op_a1 = txn1.op(j1);
      if (op_a1.IsCommit()) continue;
      for (int jm = 0; jm < txnm.num_ops(); ++jm) {
        if (!ClosesSplit(txnm.op(jm), op_a1, t1_level, i1, j1)) continue;
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
                                 const Allocation& alloc,
                                 const CheckOptions& options) {
  // Pass the sink to the constructor too, so the one-shot entry point also
  // times the matrix-build phases.
  return RobustnessAnalyzer(txns, options.metrics).Check(alloc, options);
}

}  // namespace mvrob
