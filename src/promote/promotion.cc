#include "promote/promotion.h"

#include <algorithm>

#include "common/string_util.h"
#include "core/split_schedule.h"

namespace mvrob {

bool PromotionSet::Add(OpRef read) {
  auto it = std::lower_bound(reads_.begin(), reads_.end(), read);
  if (it != reads_.end() && *it == read) return false;
  reads_.insert(it, read);
  return true;
}

bool PromotionSet::Contains(OpRef read) const {
  return std::binary_search(reads_.begin(), reads_.end(), read);
}

std::string PromotionSet::ToString(const TransactionSet& txns) const {
  std::vector<std::string> parts;
  parts.reserve(reads_.size());
  for (OpRef ref : reads_) parts.push_back(txns.FormatOp(ref));
  return Join(parts, ", ");
}

bool IsPromotableRead(const TransactionSet& txns, OpRef ref) {
  if (ref.IsOp0() || !txns.IsValidRef(ref)) return false;
  const Operation& op = txns.op(ref);
  if (!op.IsRead()) return false;
  return !txns.txn(ref.txn).Writes(op.object);
}

std::optional<OpRef> PromotionRewrite::OriginalRef(OpRef promoted_ref) const {
  if (promoted_ref.IsOp0() ||
      promoted_ref.txn >= to_original.size() ||
      promoted_ref.index < 0 ||
      static_cast<size_t>(promoted_ref.index) >=
          to_original[promoted_ref.txn].size()) {
    return std::nullopt;
  }
  int32_t base = to_original[promoted_ref.txn][promoted_ref.index];
  if (base < 0) return std::nullopt;
  return OpRef{promoted_ref.txn, base};
}

OpRef PromotionRewrite::PromotedRef(OpRef original_ref) const {
  return OpRef{original_ref.txn,
               from_original[original_ref.txn][original_ref.index]};
}

PromotedTransaction PromoteTransaction(const TransactionSet& txns, TxnId t,
                                       const PromotionSet& promotions) {
  const Transaction& txn = txns.txn(t);
  PromotedTransaction promoted;
  promoted.from_original.resize(txn.num_ops());
  // Walk the read/write prefix (the commit is re-appended by Create).
  for (int i = 0; i + 1 < txn.num_ops(); ++i) {
    if (promotions.Contains(OpRef{t, i})) {
      promoted.ops.push_back(Operation::Write(txn.op(i).object));
      promoted.to_original.push_back(-1);
    }
    promoted.from_original[i] = static_cast<int32_t>(promoted.ops.size());
    promoted.ops.push_back(txn.op(i));
    promoted.to_original.push_back(i);
  }
  promoted.from_original[txn.commit_index()] =
      static_cast<int32_t>(promoted.ops.size());
  promoted.to_original.push_back(txn.commit_index());
  return promoted;
}

StatusOr<PromotionRewrite> ApplyPromotions(const TransactionSet& txns,
                                           const PromotionSet& promotions) {
  for (OpRef ref : promotions.reads()) {
    if (!IsPromotableRead(txns, ref)) {
      return Status::InvalidArgument(
          StrCat("not a promotable read: txn ", ref.txn, " op ", ref.index));
    }
  }
  PromotionRewrite rewrite;
  // Preserve the object universe (names and ids) exactly.
  for (size_t o = 0; o < txns.num_objects(); ++o) {
    rewrite.promoted.InternObject(txns.ObjectName(static_cast<ObjectId>(o)));
  }
  rewrite.to_original.resize(txns.size());
  rewrite.from_original.resize(txns.size());
  for (TxnId t = 0; t < txns.size(); ++t) {
    PromotedTransaction promoted = PromoteTransaction(txns, t, promotions);
    rewrite.to_original[t] = std::move(promoted.to_original);
    rewrite.from_original[t] = std::move(promoted.from_original);
    StatusOr<TxnId> added = rewrite.promoted.AddTransaction(
        txns.txn(t).name(), std::move(promoted.ops));
    if (!added.ok()) return added.status();
  }
  return rewrite;
}

PromotionSet AllPromotableReads(const TransactionSet& txns) {
  PromotionSet all;
  for (TxnId t = 0; t < txns.size(); ++t) {
    const Transaction& txn = txns.txn(t);
    for (int i = 0; i < txn.num_ops(); ++i) {
      OpRef ref{t, i};
      if (IsPromotableRead(txns, ref)) all.Add(ref);
    }
  }
  return all;
}

std::vector<OpRef> CandidatesFromChain(const TransactionSet& txns,
                                       const CounterexampleChain& chain) {
  std::vector<OpRef> candidates;
  for (const ChainEdge& edge : SplitChainEdges(txns, chain)) {
    if (IsPromotableRead(txns, edge.b) &&
        RwConflicting(txns.op(edge.b), txns.op(edge.a))) {
      candidates.push_back(edge.b);
    }
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  return candidates;
}

std::vector<OpRef> ExtractPromotionCandidates(
    const TransactionSet& txns,
    const std::vector<CounterexampleChain>& chains) {
  std::vector<OpRef> all;
  for (const CounterexampleChain& chain : chains) {
    std::vector<OpRef> one = CandidatesFromChain(txns, chain);
    all.insert(all.end(), one.begin(), one.end());
  }
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  return all;
}

}  // namespace mvrob
