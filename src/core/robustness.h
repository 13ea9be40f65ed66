#ifndef MVROB_CORE_ROBUSTNESS_H_
#define MVROB_CORE_ROBUSTNESS_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "iso/allocation.h"

namespace mvrob {

class MetricsRegistry;
class Watchdog;

/// The witness extracted by Algorithm 1 when a set of transactions is not
/// robust against an allocation: the skeleton of a multiversion split
/// schedule (Definition 3.1) based on the sequence of conflicting quadruples
///
///   (T1, b1, a2, T2), (T2, ., ., T3), ..., (T_{m-1}, ., ., Tm),
///   (Tm, bm, a1, T1)
///
/// with inner transactions T3..T_{m-1} (possibly none; t2 == tm is the
/// two-quadruple case). BuildSplitSchedule turns a chain into a concrete
/// counterexample schedule.
struct CounterexampleChain {
  TxnId t1 = kInvalidTxnId;
  TxnId t2 = kInvalidTxnId;
  TxnId tm = kInvalidTxnId;
  OpRef b1;  // Read in T1, rw-conflicting with a2; T1 is split after b1.
  OpRef a1;  // Operation of T1 that bm conflicts with.
  OpRef a2;  // Write in T2.
  OpRef bm;  // Operation of Tm conflicting with a1.
  std::vector<TxnId> inner;  // T3 ... T_{m-1}, in chain order.

  /// All transactions of the chain in split-schedule order:
  /// t1, t2, inner..., tm (tm omitted when equal to t2).
  std::vector<TxnId> ChainTxns() const;
  /// The middle of the chain: ChainTxns() without t1.
  std::vector<TxnId> MiddleTxns() const;

  std::string ToString(const TransactionSet& txns) const;
};

/// Outcome of the robustness decision (Theorem 3.3).
struct RobustnessResult {
  bool robust = true;
  /// Present iff !robust.
  std::optional<CounterexampleChain> counterexample;
  /// Number of (T1, T2, Tm) triples examined — exposed for the complexity
  /// benchmarks. This is an *audited* counter with a fixed contract: it
  /// equals the number of triples (t2 != t1, tm != t1) that the canonical
  /// sequential scan order (t1 outer, t2 middle, tm inner, each ascending)
  /// visits up to and including the winning triple — or all n(n-1)^2 of
  /// them when robust. Every checker (reference, bitset analyzer,
  /// parallel) reports the identical value for the identical verdict; see
  /// internal::TriplesWhenRobust / internal::TriplesUpToWitness.
  uint64_t triples_examined = 0;
  /// True when CheckOptions::cancel was raised before the scan completed.
  /// A cancelled result carries no verdict: robust stays true,
  /// counterexample is empty, and triples_examined is 0 — callers must
  /// discard it.
  bool cancelled = false;
};

/// Tuning knobs threaded from the CLI/tools down to the checkers.
struct CheckOptions {
  /// Worker threads for the t1 outer loop. 1 = sequential (the default);
  /// values <= 0 mean "all hardware threads". Results are deterministic
  /// and identical for every thread count: the lowest (t1, t2, tm)
  /// counterexample wins, and triples_examined follows the audited
  /// contract above.
  int num_threads = 1;
  /// Optional observability sink (common/metrics.h): phase timers and
  /// work counters are recorded here. Null (the default) disables all
  /// instrumentation; collection never changes results — asserted by the
  /// parallel differential tests.
  MetricsRegistry* metrics = nullptr;
  /// Optional cooperative cancellation flag, polled inside the triple
  /// scan. When it becomes true mid-check, CheckRobustness(txns, alloc,
  /// options) / RobustnessAnalyzer::Check return promptly with
  /// RobustnessResult::cancelled set (and no verdict), and
  /// RobustnessAnalyzer::FindAll with CounterexampleList::cancelled set
  /// (and no chains). Lets a long-running caller — e.g. `mvrob serve`'s
  /// periodic witness check — shut down without waiting for a full scan.
  /// Null (the default) disables polling.
  const std::atomic<bool>* cancel = nullptr;
  /// Optional stall watchdog (common/watchdog.h): the triple scan runs
  /// under a monitored "analyzer.triple_scan" scope, heartbeating once per
  /// completed row, so a wedged check surfaces with a symbolized stack.
  /// Null (the default) disables monitoring; never changes results.
  Watchdog* watchdog = nullptr;
};

/// Algorithm 1: decides whether `txns` is robust against `alloc`, i.e.
/// whether every schedule over `txns` allowed under `alloc` is conflict
/// serializable (Definition 2.7; Theorem 3.3). `alloc` must have one level
/// per transaction. Computed on the bitset analyzer (core/analyzer.h) with
/// `options.num_threads`-way parallelism; the verdict, counterexample and
/// triples_examined equal the reference checker's
/// (oracle/reference_checker.h), which tests keep as a referee.
RobustnessResult CheckRobustness(const TransactionSet& txns,
                                 const Allocation& alloc,
                                 const CheckOptions& options);

namespace internal {

/// Searches operations (b1, a1, a2, bm) satisfying the inner conditions of
/// Algorithm 1 for the fixed triple (t1, t2, tm); fills all fields of
/// `chain` except the inner path. Shared between the reference checker and
/// RobustnessAnalyzer's witness recovery.
bool FindChainOperations(const TransactionSet& txns, const Allocation& alloc,
                         TxnId t1, TxnId t2, TxnId tm,
                         CounterexampleChain* chain);

/// The audited triples_examined contract, in closed form (so sequential,
/// bitset-masked, and parallel scans all report the same number without
/// per-iteration bookkeeping):
///  - robust run: every triple with t2 != t1, tm != t1 → n(n-1)^2;
///  - witness at (t1, t2, tm): triples visited by the canonical ascending
///    scan up to and including the witness.
uint64_t TriplesWhenRobust(size_t n);
uint64_t TriplesUpToWitness(size_t n, TxnId t1, TxnId t2, TxnId tm);

}  // namespace internal

}  // namespace mvrob

#endif  // MVROB_CORE_ROBUSTNESS_H_
