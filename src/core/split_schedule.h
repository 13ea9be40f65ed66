#ifndef MVROB_CORE_SPLIT_SCHEDULE_H_
#define MVROB_CORE_SPLIT_SCHEDULE_H_

#include <string>
#include <vector>

#include "core/robustness.h"
#include "iso/materialize.h"
#include "txn/conflict.h"

namespace mvrob {

/// Definition 3.1 (multiversion split schedule) in one place: conditions
/// (1)-(8), the chain's edges and the split schedule. Algorithm 1's search
/// (internal::FindChainOperations), the witness report (core/witness.h)
/// and the promotion candidates (promote/promotion.h) read them here.

/// Conditions (2) and (3): no write in prefix_{b1}(T1) — or anywhere in T1
/// when `t1_level` is SI or SSI — ww-conflicts with a write of T2 or Tm.
bool SplitWwConflictFree(const TransactionSet& txns, IsolationLevel t1_level,
                         OpRef b1, TxnId t2, TxnId tm);

/// Condition (5): bm conflicts with a1, and is rw-conflicting with it or
/// the RC split case holds (A(T1) = RC and b1 <_T1 a1).
inline bool ClosesSplit(const Operation& bm, const Operation& a1,
                        IsolationLevel t1_level, int b1_index, int a1_index) {
  return Conflicting(bm, a1) &&
         ((t1_level == IsolationLevel::kRC && b1_index < a1_index) ||
          RwConflicting(bm, a1));
}

/// Conflict mode of the ordered pair (b, a): "rw", "wr", "ww" or "none".
const char* ConflictKind(const Operation& b, const Operation& a);

/// One checked condition, with how it was discharged. Conditions that do
/// not apply to the chain's allocation are vacuous (holds = true) with the
/// reason in `detail`.
struct WitnessCondition {
  std::string condition;  // "3.1(1)" ... "3.1(8)".
  bool holds = true;
  std::string detail;
};

/// Conditions (1)-(8) for `chain` under `alloc`, in order. The chain must
/// pass CheckChainReferences.
std::vector<WitnessCondition> EvaluateSplitConditions(
    const TransactionSet& txns, const Allocation& alloc,
    const CounterexampleChain& chain);

/// One edge of the chain's cycle: operation `b` of `from` conflicts with
/// operation `a` of `to`.
struct ChainEdge {
  TxnId from = kInvalidTxnId;
  TxnId to = kInvalidTxnId;
  OpRef b;
  OpRef a;
};

/// The chain's edges in cycle order: (b1, a2) of condition (4), the
/// FindConflictingPair link of each consecutive pair of MiddleTxns() (op_0
/// refs when the pair does not conflict), and (bm, a1) of condition (5).
std::vector<ChainEdge> SplitChainEdges(const TransactionSet& txns,
                                       const CounterexampleChain& chain);

/// The chain's references are sound: its transactions exist, T1 is none
/// of the others, and b1, a1, a2, bm are operations (not op_0) of T1, T1,
/// T2 and Tm.
Status CheckChainReferences(const TransactionSet& txns,
                            const CounterexampleChain& chain);

/// OK iff the chain describes a valid multiversion split schedule for
/// (txns, alloc): sound references, pairwise distinct middle transactions
/// (no inner ones when t2 == tm), a1 and bm not commits, conflicting
/// middle neighbours, and conditions (1)-(8). A failed condition's message
/// is its detail tagged "(cond. N)".
Status ValidateSplitChain(const TransactionSet& txns, const Allocation& alloc,
                          const CounterexampleChain& chain);

/// The operation order of the multiversion split schedule based on `chain`:
///
///   prefix_{b1}(T1) . T2 . T3 ... Tm . postfix_{b1}(T1) . T_{m+1} ... T_n
///
/// with the remaining transactions appended in ascending id order.
std::vector<OpRef> BuildSplitOrder(const TransactionSet& txns,
                                   const CounterexampleChain& chain);

/// Materializes the split order into a concrete schedule under `alloc`.
/// By Theorem 3.2, if the chain validates, the result is allowed under
/// `alloc` and not conflict serializable — a counterexample witnessing
/// non-robustness.
StatusOr<Schedule> BuildSplitSchedule(const TransactionSet& txns,
                                      const Allocation& alloc,
                                      const CounterexampleChain& chain);

/// End-to-end verification used by tests and tooling: validates the chain,
/// builds the schedule, and checks with the *independent* semantic checkers
/// that it is allowed under `alloc` and not conflict serializable.
Status VerifyCounterexample(const TransactionSet& txns,
                            const Allocation& alloc,
                            const CounterexampleChain& chain);

}  // namespace mvrob

#endif  // MVROB_CORE_SPLIT_SCHEDULE_H_
