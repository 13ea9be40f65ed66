#ifndef MVROB_PROMOTE_PROMOTION_H_
#define MVROB_PROMOTE_PROMOTION_H_

#include <optional>
#include <string>
#include <vector>

#include "core/robustness.h"
#include "txn/transaction_set.h"

namespace mvrob {

/// Read promotion (Vandevoort, Fekete, Ketsman, Neven — arXiv:2501.18377):
/// turning a read into a SELECT ... FOR UPDATE. In the formal model a
/// promoted read acquires the object's write lock at the read's program
/// point, which we encode by inserting a write on the same object
/// *immediately before* the read. The extra write creates ww-conflicts
/// with every other writer of the object, and a ww-conflict in
/// prefix_{b1}(T1) falsifies condition (2) of Definition 3.1 — the split
/// schedules that drive non-robustness die, and Algorithm 2 can return a
/// strictly cheaper allocation. Promotions never enable new behaviour:
/// they only add conflicts, so anomalies can only disappear (at the price
/// of first-updater-wins aborts on the engine).

/// A set of reads (of one fixed base TransactionSet) chosen for promotion.
/// Refs are kept sorted and unique; all refs are in *base* coordinates —
/// ApplyPromotions translates to and from the rewritten workload.
class PromotionSet {
 public:
  PromotionSet() = default;

  /// Adds `read`; returns false if it was already present.
  bool Add(OpRef read);
  bool Contains(OpRef read) const;

  size_t size() const { return reads_.size(); }
  bool empty() const { return reads_.empty(); }
  /// Sorted ascending by (txn, index).
  const std::vector<OpRef>& reads() const { return reads_; }

  /// "R1[x], R2[y]" against the base set.
  std::string ToString(const TransactionSet& txns) const;

 private:
  std::vector<OpRef> reads_;
};

/// True iff `ref` denotes a read of `txns` whose transaction does not
/// already write the object. A read of an object the transaction also
/// writes is not promotable: the transaction already takes the write
/// lock, and the inserted write would give it two writes on one object —
/// outside the engine's exportable regime.
bool IsPromotableRead(const TransactionSet& txns, OpRef ref);

/// The promoted workload plus the index maps between base and promoted
/// program orders (promotion inserts writes, shifting every later index).
struct PromotionRewrite {
  TransactionSet promoted;
  /// to_original[txn][promoted_index] = base index, or -1 for an inserted
  /// promotion write.
  std::vector<std::vector<int32_t>> to_original;
  /// from_original[txn][base_index] = promoted index.
  std::vector<std::vector<int32_t>> from_original;

  /// Base ref of a promoted-workload op; nullopt for an inserted write.
  std::optional<OpRef> OriginalRef(OpRef promoted_ref) const;
  /// Promoted-workload ref of a base op.
  OpRef PromotedRef(OpRef original_ref) const;
};

/// Rewrites `txns` with every read of `promotions` promoted: a write on
/// the read's object is inserted directly before it. Object interning and
/// transaction order/names are preserved, so TxnIds and ObjectIds mean
/// the same thing in both workloads. Fails if a ref is not a promotable
/// read of `txns`.
StatusOr<PromotionRewrite> ApplyPromotions(const TransactionSet& txns,
                                           const PromotionSet& promotions);

/// Every promotable read of the workload — the "promote everything"
/// baseline. After applying it, every read whose object the transaction
/// does not write carries a same-object write in its prefix, so no such
/// read can serve as the b1 leg of a Definition 3.1 chain (condition (2));
/// only reads-before-writes of the same object can still open a split.
PromotionSet AllPromotableReads(const TransactionSet& txns);

/// The promotable read legs of the rw edges of one counterexample chain
/// (SplitChainEdges, core/split_schedule.h) — exactly the candidate
/// promotions that can kill this witness. Ascending and unique.
std::vector<OpRef> CandidatesFromChain(const TransactionSet& txns,
                                       const CounterexampleChain& chain);

/// Union of CandidatesFromChain over `chains`, ascending and unique.
std::vector<OpRef> ExtractPromotionCandidates(
    const TransactionSet& txns,
    const std::vector<CounterexampleChain>& chains);

}  // namespace mvrob

#endif  // MVROB_PROMOTE_PROMOTION_H_
