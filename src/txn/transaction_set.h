#ifndef MVROB_TXN_TRANSACTION_SET_H_
#define MVROB_TXN_TRANSACTION_SET_H_

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "txn/transaction.h"

namespace mvrob {

/// A finite set of transactions T over a shared object universe — the input
/// to every robustness and allocation question in the paper.
///
/// Objects are interned: workloads refer to objects by name ("t", "stock_5")
/// and receive dense ObjectIds. Transaction ids are dense 0..size()-1 in
/// insertion order.
class TransactionSet {
 public:
  TransactionSet() = default;

  /// Interns `name`, returning the existing id if already present.
  ObjectId InternObject(std::string_view name);
  /// Id of `name`, or kInvalidObjectId if it was never interned.
  ObjectId FindObject(std::string_view name) const;
  const std::string& ObjectName(ObjectId object) const;
  size_t num_objects() const { return object_names_.size(); }

  /// Appends a transaction built from `rw_ops` (commit appended
  /// automatically; see Transaction::Create). If `name` is empty, a default
  /// name "T<id+1>" is used, matching the paper's 1-based convention.
  StatusOr<TxnId> AddTransaction(std::string name,
                                 std::vector<Operation> rw_ops);

  /// Replaces transaction `id`'s operations with `rw_ops`, keeping its id
  /// and name; validated (and the commit appended) as in AddTransaction.
  /// On failure the set is unchanged.
  Status ReplaceTransaction(TxnId id, std::vector<Operation> rw_ops);

  size_t size() const { return txns_.size(); }
  bool empty() const { return txns_.empty(); }
  const Transaction& txn(TxnId id) const { return txns_[id]; }
  const std::vector<Transaction>& txns() const { return txns_; }

  /// Id of the transaction with the given name, or kInvalidTxnId.
  TxnId FindTransaction(std::string_view name) const;

  /// Resolves an OpRef (must not be op_0) to its operation.
  const Operation& op(OpRef ref) const { return txns_[ref.txn].op(ref.index); }

  /// True if `ref` denotes an existing operation of this set (op_0 counts).
  bool IsValidRef(OpRef ref) const;

  /// Total number of operations k over all transactions (commits included),
  /// as used in the complexity bound of Theorem 3.3.
  int TotalOps() const;
  /// Maximum number of operations in a single transaction (the paper's l).
  int MaxOpsPerTxn() const;

  /// True if every transaction satisfies the paper's at-most-one-read/write
  /// per object assumption.
  bool HasAtMostOneAccessPerObject() const;

  /// "R1[t]", "W2[x]", "C3" for operations of this set; "op0" for op_0.
  /// Transactions named "T<k>" render with the bare subscript k (paper
  /// style); other names render as "R[t]@name".
  std::string FormatOp(OpRef ref) const;

  /// Multi-line listing, one transaction per line: "T1: R[t] W[x] C".
  std::string ToString() const;

 private:
  std::vector<Transaction> txns_;
  std::vector<std::string> object_names_;
  std::unordered_map<std::string, ObjectId> object_ids_;
  std::unordered_map<std::string, TxnId> txn_ids_;
};

}  // namespace mvrob

#endif  // MVROB_TXN_TRANSACTION_SET_H_
