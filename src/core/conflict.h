#ifndef MVROB_CORE_CONFLICT_H_
#define MVROB_CORE_CONFLICT_H_

#include <optional>
#include <utility>

#include "common/bitset.h"
#include "txn/conflict.h"
#include "txn/transaction_set.h"

namespace mvrob {

/// Transaction-level (static) conflict tests used throughout Section 3.
/// Unlike dependencies, these are properties of the transaction *programs*,
/// independent of any schedule.

/// True if some operation of `a` conflicts with some operation of `b`.
/// Symmetric. False when a == b (conflicts are across transactions).
bool TxnsConflict(const TransactionSet& txns, TxnId a, TxnId b);

/// True if no write of `a` ww-conflicts with a write of `b` (i.e. disjoint
/// write sets). Symmetric.
bool WwConflictFreeTxns(const TransactionSet& txns, TxnId a, TxnId b);

/// Algorithm 1's wr-conflict-free(T_i, T_j): no operation of `i` is
/// wr-conflicting with an operation of `j`, i.e. `i` writes nothing that
/// `j` reads. NOT symmetric.
bool WrConflictFreeTxns(const TransactionSet& txns, TxnId i, TxnId j);

/// A conflicting pair (b in `from`, a in `to`) with b conflicting with a,
/// if one exists. Deterministic: smallest program-order indices win (the
/// earliest conflicting operation of `from`, paired with the earliest
/// operation of `to` it conflicts with).
std::optional<std::pair<OpRef, OpRef>> FindConflictingPair(
    const TransactionSet& txns, TxnId from, TxnId to);

/// The full pairwise conflict relation as a symmetric bit matrix:
/// bit (i, j) set iff TxnsConflict(txns, i, j). Built once in O(|T|^2)
/// read/write-set intersections and shared across the O(|T|^3) triple
/// space (the reference checker's mixed-iso-graph accepts it to avoid
/// recomputing TxnsConflict per candidate counterexample).
BitMatrix BuildConflictMatrix(const TransactionSet& txns);

}  // namespace mvrob

#endif  // MVROB_CORE_CONFLICT_H_
