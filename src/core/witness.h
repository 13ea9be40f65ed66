#ifndef MVROB_CORE_WITNESS_H_
#define MVROB_CORE_WITNESS_H_

#include <string>
#include <vector>

#include "core/explain.h"
#include "core/robustness.h"
#include "core/split_schedule.h"

namespace mvrob {

/// Structured provenance for robustness verdicts: every counterexample
/// chain is decomposed into justified edges — the concrete conflicting
/// operation pair plus the Definition 3.1 condition the edge discharges —
/// and the full multiversion split schedule is rendered operation by
/// operation. This is the machine-readable form of the paper's
/// constructive witness (Definition 3.1 / Theorem 3.2), exported by the
/// CLI as `--witness-json` / `--witness-dot`.

/// One justified edge of a counterexample chain: a ChainEdge
/// (core/split_schedule.h) with its conflict mode and condition.
struct WitnessEdge {
  TxnId from = kInvalidTxnId;
  TxnId to = kInvalidTxnId;
  OpRef b;  // Operation in `from`...
  OpRef a;  // ...conflicting with this operation in `to`.
  /// Conflict mode of (b, a): "ww", "wr" or "rw".
  std::string conflict;
  /// The Definition 3.1 condition the edge discharges, e.g. "3.1(4)".
  std::string condition;
  /// Human-readable justification sentence.
  std::string detail;
};

/// Everything the checker knows about why one counterexample chain
/// witnesses non-robustness.
struct WitnessReport {
  CounterexampleChain chain;
  /// Chain transactions in split-schedule order with their levels.
  std::vector<TxnId> chain_txns;
  /// SplitChainEdges and EvaluateSplitConditions, justified.
  std::vector<WitnessEdge> edges;
  std::vector<WitnessCondition> conditions;
  /// The multiversion split schedule, operation by operation
  /// (prefix_{b1}(T1) . T2 ... Tm . postfix_{b1}(T1) . rest).
  std::vector<OpRef> split_order;
  /// Operations of the split order belonging to prefix_{b1}(T1).
  int prefix_len = 0;
  /// Outcome of VerifyCounterexample: the chain validated against
  /// Definition 3.1 and the materialized schedule was independently
  /// checked allowed + non-serializable.
  bool verified = false;
  std::string verify_error;  // Empty when verified.
};

/// Builds the provenance report for `chain` against (txns, alloc). Fails
/// only when the chain's references are broken (CheckChainReferences) or
/// the allocation has the wrong size; a chain that fails the *semantic*
/// Definition 3.1 conditions still yields a report with verified = false.
StatusOr<WitnessReport> BuildWitnessReport(const TransactionSet& txns,
                                           const Allocation& alloc,
                                           const CounterexampleChain& chain);

/// `check --witness-json`: the full verdict as JSON. Robust results carry
/// {"robust":true,...}; non-robust results embed the witness report with
/// per-edge conflict type, operation pair and discharged condition.
std::string RobustnessWitnessJson(const TransactionSet& txns,
                                  const Allocation& alloc,
                                  const RobustnessResult& result);

/// `check --witness-dot`: the chain as a Graphviz digraph. T1 is drawn
/// split into its prefix and postfix halves; rw edges are dashed; every
/// edge label carries the operation pair and the discharged condition.
std::string RobustnessWitnessDot(const TransactionSet& txns,
                                 const Allocation& alloc,
                                 const RobustnessResult& result);

/// `allocate --witness-json`: per-transaction obstacles, each embedding the
/// witness report of the chain that appears when the transaction is lowered
/// (the chain is justified against the *lowered* allocation).
std::string AllocationExplanationJson(const TransactionSet& txns,
                                      const AllocationExplanation& explanation);

/// `allocate --witness-dot`: one cluster per (transaction, attempted lower
/// level) obstacle with the blocking chain's justified edges.
std::string AllocationExplanationDot(const TransactionSet& txns,
                                     const AllocationExplanation& explanation);

}  // namespace mvrob

#endif  // MVROB_CORE_WITNESS_H_
