#include "core/conflict.h"

#include <algorithm>

namespace mvrob {
namespace {

// True if two ascending ObjectId vectors intersect.
bool Intersects(const std::vector<ObjectId>& x,
                const std::vector<ObjectId>& y) {
  auto xi = x.begin();
  auto yi = y.begin();
  while (xi != x.end() && yi != y.end()) {
    if (*xi == *yi) return true;
    if (*xi < *yi) {
      ++xi;
    } else {
      ++yi;
    }
  }
  return false;
}

}  // namespace

bool TxnsConflict(const TransactionSet& txns, TxnId a, TxnId b) {
  if (a == b) return false;
  const Transaction& ta = txns.txn(a);
  const Transaction& tb = txns.txn(b);
  return Intersects(ta.write_set(), tb.write_set()) ||
         Intersects(ta.write_set(), tb.read_set()) ||
         Intersects(ta.read_set(), tb.write_set());
}

bool WwConflictFreeTxns(const TransactionSet& txns, TxnId a, TxnId b) {
  if (a == b) return true;
  return !Intersects(txns.txn(a).write_set(), txns.txn(b).write_set());
}

bool WrConflictFreeTxns(const TransactionSet& txns, TxnId i, TxnId j) {
  if (i == j) return true;
  return !Intersects(txns.txn(i).write_set(), txns.txn(j).read_set());
}

std::optional<std::pair<OpRef, OpRef>> FindConflictingPair(
    const TransactionSet& txns, TxnId from, TxnId to) {
  if (from == to) return std::nullopt;
  const Transaction& tf = txns.txn(from);
  const Transaction& tt = txns.txn(to);
  for (int i = 0; i < tf.num_ops(); ++i) {
    const Operation& op = tf.op(i);
    if (op.IsCommit()) continue;
    // The earliest operation of `to` conflicting with op: a write always
    // conflicts with reads and writes on the object, a read only with
    // writes — resolved via the per-object first-index lookups instead of
    // a scan over `to`'s operations.
    std::optional<int> j = tt.FirstWriteIndex(op.object);
    if (op.IsWrite()) {
      std::optional<int> r = tt.FirstReadIndex(op.object);
      if (r.has_value() && (!j.has_value() || *r < *j)) j = r;
    }
    if (j.has_value()) {
      return std::make_pair(OpRef{from, i}, OpRef{to, *j});
    }
  }
  return std::nullopt;
}

BitMatrix BuildConflictMatrix(const TransactionSet& txns) {
  const size_t n = txns.size();
  BitMatrix conflict(n, n);
  for (TxnId i = 0; i < n; ++i) {
    for (TxnId j = i + 1; j < n; ++j) {
      if (TxnsConflict(txns, i, j)) {
        conflict.Set(i, j);
        conflict.Set(j, i);
      }
    }
  }
  return conflict;
}

}  // namespace mvrob
