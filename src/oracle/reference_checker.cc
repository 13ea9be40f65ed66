#include "oracle/reference_checker.h"

#include "core/conflict.h"
#include "oracle/mixed_iso_graph.h"

namespace mvrob {

RobustnessResult CheckRobustness(const TransactionSet& txns,
                                 const Allocation& alloc) {
  RobustnessResult result;
  const size_t n = txns.size();
  auto is_ssi = [&](TxnId t) {
    return alloc.level(t) == IsolationLevel::kSSI;
  };
  const BitMatrix conflict = BuildConflictMatrix(txns);

  for (TxnId t1 = 0; t1 < n; ++t1) {
    for (TxnId t2 = 0; t2 < n; ++t2) {
      if (t2 == t1) continue;
      for (TxnId tm = 0; tm < n; ++tm) {
        if (tm == t1) continue;
        // Definition 3.1 (6)-(8): the SSI side conditions.
        if (is_ssi(t1) && is_ssi(t2) && is_ssi(tm)) continue;
        if (is_ssi(t1) && is_ssi(t2) && !WrConflictFreeTxns(txns, t1, t2)) {
          continue;
        }
        if (is_ssi(t1) && is_ssi(tm) && !WrConflictFreeTxns(txns, tm, t1)) {
          continue;
        }
        CounterexampleChain chain;
        if (!internal::FindChainOperations(txns, alloc, t1, t2, tm,
                                           &chain)) {
          continue;
        }
        // reachable(T2, Tm, T1): T2 = Tm, a direct conflict, or a path
        // through mixed-iso-graph(T1, T \ {T1, T2, Tm}).
        MixedIsoGraph graph(txns, t1, {t2, tm}, &conflict);
        std::optional<std::vector<TxnId>> inner_chain =
            graph.FindInnerChain(t2, tm);
        if (!inner_chain.has_value()) continue;
        chain.inner = std::move(inner_chain).value();
        result.robust = false;
        result.counterexample = std::move(chain);
        result.triples_examined =
            internal::TriplesUpToWitness(n, t1, t2, tm);
        return result;
      }
    }
  }
  result.triples_examined = internal::TriplesWhenRobust(n);
  return result;
}

}  // namespace mvrob
