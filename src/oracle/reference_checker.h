#ifndef MVROB_ORACLE_REFERENCE_CHECKER_H_
#define MVROB_ORACLE_REFERENCE_CHECKER_H_

#include "core/robustness.h"

namespace mvrob {

/// Algorithm 1: decides whether `txns` is robust against `alloc`, i.e.
/// whether every schedule over `txns` allowed under `alloc` is conflict
/// serializable (Definition 2.7). Runs in time polynomial in |T| per
/// Theorem 3.3. `alloc` must have one level per transaction.
///
/// This is the *reference* implementation: it re-derives operation-level
/// facts per triple and builds one mixed-iso-graph (oracle/mixed_iso_graph.h)
/// per candidate triple, deliberately close to the paper's pseudocode. It
/// is a referee for tests, `mvrob crosscheck` and the exhaustive oracle,
/// next to the reference enumeration (oracle/counterexamples.h).
/// Production callers use RobustnessAnalyzer — Check, CheckDelta and
/// FindAll — or CheckRobustness(txns, alloc, options) (core/robustness.h),
/// which return the identical verdict, counterexample and
/// triples_examined.
RobustnessResult CheckRobustness(const TransactionSet& txns,
                                 const Allocation& alloc);

/// The reference checker against the homogeneous allocations A_RC, A_SI,
/// A_SSI.
inline RobustnessResult CheckRobustnessRC(const TransactionSet& txns) {
  return CheckRobustness(txns, Allocation::AllRC(txns.size()));
}
inline RobustnessResult CheckRobustnessSI(const TransactionSet& txns) {
  return CheckRobustness(txns, Allocation::AllSI(txns.size()));
}
inline RobustnessResult CheckRobustnessSSI(const TransactionSet& txns) {
  return CheckRobustness(txns, Allocation::AllSSI(txns.size()));
}

}  // namespace mvrob

#endif  // MVROB_ORACLE_REFERENCE_CHECKER_H_
