#ifndef MVROB_ORACLE_COUNTEREXAMPLES_H_
#define MVROB_ORACLE_COUNTEREXAMPLES_H_

#include <cstddef>
#include <vector>

#include "core/robustness.h"

namespace mvrob {

/// Reference enumeration of Algorithm 1's witnesses, kept as a referee for
/// RobustnessAnalyzer::FindAll (core/analyzer.h), which production code
/// uses. Re-derives every triple's conditions from the operations and
/// builds one mixed-iso-graph per candidate triple, close to the paper's
/// pseudocode.
///
/// Returns counterexample chains — one per triple (T1, T2, Tm) that
/// witnesses non-robustness — up to `limit`, in ascending (t1, t2, tm)
/// order. Empty iff robust. With options.num_threads > 1 the t1 rows are
/// scanned in parallel; the returned chains (order included) are identical
/// to the sequential scan. Only num_threads is read from `options`.
std::vector<CounterexampleChain> FindAllCounterexamples(
    const TransactionSet& txns, const Allocation& alloc, size_t limit = 32,
    const CheckOptions& options = {});

}  // namespace mvrob

#endif  // MVROB_ORACLE_COUNTEREXAMPLES_H_
