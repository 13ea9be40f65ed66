#include "core/split_schedule.h"

#include <algorithm>

#include "common/string_util.h"
#include "core/conflict.h"
#include "iso/allowed.h"
#include "schedule/serializability.h"

namespace mvrob {
namespace {

// Checks the basic shape: valid refs, operation kinds, distinctness, and
// conflicts between consecutive chain members.
Status ValidateStructure(const TransactionSet& txns,
                         const CounterexampleChain& chain) {
  if (chain.t1 >= txns.size() || chain.t2 >= txns.size() ||
      chain.tm >= txns.size()) {
    return Status::InvalidArgument("chain references unknown transactions");
  }
  if (chain.t1 == chain.t2 || chain.t1 == chain.tm) {
    return Status::InvalidArgument("T1 must differ from T2 and Tm");
  }
  std::vector<TxnId> middle{chain.t2};
  middle.insert(middle.end(), chain.inner.begin(), chain.inner.end());
  if (chain.tm != chain.t2) middle.push_back(chain.tm);
  std::vector<TxnId> sorted = middle;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    return Status::InvalidArgument(
        "chain transactions must be pairwise distinct");
  }
  if (chain.t2 == chain.tm && !chain.inner.empty()) {
    return Status::InvalidArgument(
        "inner transactions are not allowed when T2 = Tm");
  }
  for (TxnId t : chain.inner) {
    if (t >= txns.size() || t == chain.t1) {
      return Status::InvalidArgument("invalid inner transaction");
    }
  }
  // Designated operations live in their transactions and have the required
  // kinds (b1 read, a2 write, a1/bm non-commit).
  for (OpRef ref : {chain.b1, chain.a1, chain.a2, chain.bm}) {
    if (ref.IsOp0() || !txns.IsValidRef(ref)) {
      return Status::InvalidArgument("chain operation reference invalid");
    }
  }
  if (chain.b1.txn != chain.t1 || chain.a1.txn != chain.t1 ||
      chain.a2.txn != chain.t2 || chain.bm.txn != chain.tm) {
    return Status::InvalidArgument(
        "chain operations assigned to wrong transactions");
  }
  if (txns.op(chain.a1).IsCommit() || txns.op(chain.bm).IsCommit()) {
    return Status::InvalidArgument("conflicting operations cannot be commits");
  }
  // Consecutive middle transactions must admit conflicting quadruples.
  for (size_t i = 0; i + 1 < middle.size(); ++i) {
    if (!TxnsConflict(txns, middle[i], middle[i + 1])) {
      return Status::InvalidArgument(
          StrCat("chain neighbors ", txns.txn(middle[i]).name(), " and ",
                 txns.txn(middle[i + 1]).name(), " do not conflict"));
    }
  }
  return Status::Ok();
}

}  // namespace

Status ValidateSplitChain(const TransactionSet& txns, const Allocation& alloc,
                          const CounterexampleChain& chain) {
  Status structure = ValidateStructure(txns, chain);
  if (!structure.ok()) return structure;

  const Transaction& txn1 = txns.txn(chain.t1);
  auto level = [&](TxnId t) { return alloc.level(t); };
  bool t1_snapshot = level(chain.t1) != IsolationLevel::kRC;

  // (1) No operation of T1 conflicts with an inner transaction.
  for (TxnId t : chain.inner) {
    if (TxnsConflict(txns, chain.t1, t)) {
      return Status::InvalidArgument(
          StrCat("T1 conflicts with inner transaction ", txns.txn(t).name()));
    }
  }
  // (2)+(3): writes of prefix (or all of T1 for SI/SSI) must not
  // ww-conflict with writes of T2 or Tm.
  for (int i = 0; i < txn1.num_ops(); ++i) {
    const Operation& c1 = txn1.op(i);
    if (!c1.IsWrite()) continue;
    if (!t1_snapshot && i > chain.b1.index) continue;
    if (txns.txn(chain.t2).Writes(c1.object) ||
        txns.txn(chain.tm).Writes(c1.object)) {
      return Status::InvalidArgument(
          StrCat(txns.FormatOp(OpRef{chain.t1, i}),
                 " ww-conflicts with T2 or Tm (Definition 3.1 (2)/(3))"));
    }
  }
  // (4) b1 rw-conflicting with a2.
  if (!RwConflicting(txns.op(chain.b1), txns.op(chain.a2))) {
    return Status::InvalidArgument("b1 is not rw-conflicting with a2");
  }
  // (5) bm conflicts with a1; rw-conflicting or the RC split case.
  if (!Conflicting(txns.op(chain.bm), txns.op(chain.a1))) {
    return Status::InvalidArgument("bm does not conflict with a1");
  }
  bool rw = RwConflicting(txns.op(chain.bm), txns.op(chain.a1));
  bool rc_case = level(chain.t1) == IsolationLevel::kRC &&
                 chain.b1.index < chain.a1.index;
  if (!rw && !rc_case) {
    return Status::InvalidArgument(
        "bm -> a1 is neither rw-conflicting nor the RC split case");
  }
  // (6)-(8) SSI side conditions.
  bool s1 = level(chain.t1) == IsolationLevel::kSSI;
  bool s2 = level(chain.t2) == IsolationLevel::kSSI;
  bool sm = level(chain.tm) == IsolationLevel::kSSI;
  if (s1 && s2 && sm) {
    return Status::InvalidArgument("T1, T2 and Tm are all SSI (cond. 6)");
  }
  if (s1 && s2 && !WrConflictFreeTxns(txns, chain.t1, chain.t2)) {
    return Status::InvalidArgument(
        "T1 wr-conflicts with T2 under SSI/SSI (cond. 7)");
  }
  if (s1 && sm && !WrConflictFreeTxns(txns, chain.tm, chain.t1)) {
    return Status::InvalidArgument(
        "T1 rw-conflicts with Tm under SSI/SSI (cond. 8)");
  }
  return Status::Ok();
}

std::vector<OpRef> BuildSplitOrder(const TransactionSet& txns,
                                   const CounterexampleChain& chain) {
  std::vector<OpRef> order;
  order.reserve(txns.TotalOps());
  auto append_whole = [&](TxnId t) {
    for (int i = 0; i < txns.txn(t).num_ops(); ++i) {
      order.push_back(OpRef{t, i});
    }
  };

  // prefix_{b1}(T1).
  for (int i = 0; i <= chain.b1.index; ++i) {
    order.push_back(OpRef{chain.t1, i});
  }
  // T2 . inner ... . Tm.
  std::vector<bool> in_chain(txns.size(), false);
  in_chain[chain.t1] = true;
  append_whole(chain.t2);
  in_chain[chain.t2] = true;
  for (TxnId t : chain.inner) {
    append_whole(t);
    in_chain[t] = true;
  }
  if (chain.tm != chain.t2) {
    append_whole(chain.tm);
    in_chain[chain.tm] = true;
  }
  // postfix_{b1}(T1), commit included.
  for (int i = chain.b1.index + 1; i < txns.txn(chain.t1).num_ops(); ++i) {
    order.push_back(OpRef{chain.t1, i});
  }
  // Remaining transactions, serially.
  for (TxnId t = 0; t < txns.size(); ++t) {
    if (!in_chain[t]) append_whole(t);
  }
  return order;
}

StatusOr<Schedule> BuildSplitSchedule(const TransactionSet& txns,
                                      const Allocation& alloc,
                                      const CounterexampleChain& chain) {
  return MaterializeSchedule(&txns, BuildSplitOrder(txns, chain), alloc);
}

Status VerifyCounterexample(const TransactionSet& txns,
                            const Allocation& alloc,
                            const CounterexampleChain& chain) {
  Status valid = ValidateSplitChain(txns, alloc, chain);
  if (!valid.ok()) return valid;
  StatusOr<Schedule> schedule = BuildSplitSchedule(txns, alloc, chain);
  if (!schedule.ok()) return schedule.status();
  AllowedCheckResult allowed = CheckAllowedUnder(*schedule, alloc);
  if (!allowed.allowed) {
    return Status::FailedPrecondition(
        StrCat("split schedule not allowed under the allocation: ",
               Join(allowed.violations, "; ")));
  }
  if (IsConflictSerializable(*schedule)) {
    return Status::FailedPrecondition(
        "split schedule is conflict serializable");
  }
  return Status::Ok();
}

}  // namespace mvrob
