#include "txn/transaction_set.h"

#include <algorithm>
#include <cctype>

#include "common/string_util.h"

namespace mvrob {

ObjectId TransactionSet::InternObject(std::string_view name) {
  auto it = object_ids_.find(std::string(name));
  if (it != object_ids_.end()) return it->second;
  ObjectId id = static_cast<ObjectId>(object_names_.size());
  object_names_.emplace_back(name);
  object_ids_.emplace(std::string(name), id);
  return id;
}

ObjectId TransactionSet::FindObject(std::string_view name) const {
  auto it = object_ids_.find(std::string(name));
  return it == object_ids_.end() ? kInvalidObjectId : it->second;
}

const std::string& TransactionSet::ObjectName(ObjectId object) const {
  return object_names_[object];
}

StatusOr<TxnId> TransactionSet::AddTransaction(std::string name,
                                               std::vector<Operation> rw_ops) {
  TxnId id = static_cast<TxnId>(txns_.size());
  if (name.empty()) name = StrCat("T", id + 1);
  if (txn_ids_.contains(name)) {
    return Status::InvalidArgument(StrCat("duplicate transaction name ", name));
  }
  StatusOr<Transaction> txn = Transaction::Create(id, name, std::move(rw_ops));
  if (!txn.ok()) return txn.status();
  txn_ids_.emplace(txn->name(), id);
  txns_.push_back(std::move(txn).value());
  return id;
}

Status TransactionSet::ReplaceTransaction(TxnId id,
                                          std::vector<Operation> rw_ops) {
  if (id >= txns_.size()) {
    return Status::InvalidArgument(StrCat("no transaction with id ", id));
  }
  StatusOr<Transaction> txn =
      Transaction::Create(id, txns_[id].name(), std::move(rw_ops));
  if (!txn.ok()) return txn.status();
  txns_[id] = std::move(txn).value();
  return Status::Ok();
}

TxnId TransactionSet::FindTransaction(std::string_view name) const {
  auto it = txn_ids_.find(std::string(name));
  return it == txn_ids_.end() ? kInvalidTxnId : it->second;
}

bool TransactionSet::IsValidRef(OpRef ref) const {
  if (ref.IsOp0()) return true;
  return ref.txn < txns_.size() && ref.index >= 0 &&
         ref.index < txns_[ref.txn].num_ops();
}

int TransactionSet::TotalOps() const {
  int total = 0;
  for (const Transaction& txn : txns_) total += txn.num_ops();
  return total;
}

int TransactionSet::MaxOpsPerTxn() const {
  int max_ops = 0;
  for (const Transaction& txn : txns_) {
    max_ops = std::max(max_ops, txn.num_ops());
  }
  return max_ops;
}

bool TransactionSet::HasAtMostOneAccessPerObject() const {
  return std::all_of(txns_.begin(), txns_.end(), [](const Transaction& txn) {
    return txn.HasAtMostOneAccessPerObject();
  });
}

namespace {

// Transactions named "T<digits>" print with the paper's subscript style
// (R1[t]); anything else prints as R[t]@name.
bool IsPaperStyleName(const std::string& name) {
  if (name.size() < 2 || name[0] != 'T') return false;
  return std::all_of(name.begin() + 1, name.end(), [](unsigned char c) {
    return std::isdigit(c) != 0;
  });
}

}  // namespace

std::string TransactionSet::FormatOp(OpRef ref) const {
  if (ref.IsOp0()) return "op0";
  const Transaction& txn = txns_[ref.txn];
  const Operation& op = txn.op(ref.index);
  std::string subscript;
  std::string suffix;
  if (IsPaperStyleName(txn.name())) {
    subscript = txn.name().substr(1);
  } else {
    suffix = StrCat("@", txn.name());
  }
  if (op.IsCommit()) return StrCat("C", subscript, suffix);
  return StrCat(OpTypeToString(op.type), subscript, "[",
                ObjectName(op.object), "]", suffix);
}

std::string TransactionSet::ToString() const {
  std::string out;
  for (const Transaction& txn : txns_) {
    out += txn.name();
    out += ":";
    for (int i = 0; i < txn.num_ops(); ++i) {
      const Operation& op = txn.op(i);
      out += " ";
      out += OpTypeToString(op.type);
      if (!op.IsCommit()) {
        out += "[";
        out += ObjectName(op.object);
        out += "]";
      }
    }
    out += "\n";
  }
  return out;
}

}  // namespace mvrob
