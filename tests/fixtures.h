// Shared fixtures reconstructing the paper's worked examples:
//  - Figure 2 / Figure 3 / Example 2.5: the four-transaction schedule s with
//    explicit version function and version order;
//  - Figure 4 / Example 2.6: the two-writer schedule showing the asymmetry
//    of mixed allocations;
//  - Figure 5 / Example 5.2: a schedule allowed under SI but not RC;
// and the random transaction sets of the analyzer differential tests.
#ifndef MVROB_TESTS_FIXTURES_H_
#define MVROB_TESTS_FIXTURES_H_

#include <cassert>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "core/analyzer.h"
#include "core/optimal_allocation.h"
#include "schedule/schedule.h"
#include "templates/robustness.h"
#include "txn/parser.h"
#include "workloads/synthetic.h"

namespace mvrob {

// T1: R[t]; T2: W[t] R[v]; T3: W[v]; T4: R[t] R[v] W[t].
inline TransactionSet Figure2Txns() {
  StatusOr<TransactionSet> txns = ParseTransactionSet(R"(
    T1: R[t]
    T2: W[t] R[v]
    T3: W[v]
    T4: R[t] R[v] W[t]
  )");
  assert(txns.ok());
  return std::move(txns).value();
}

// The operation order of Figure 2. All facts stated in Section 2 hold:
// reads on t in T1 and T4 observe the initial version; R2[v] observes the
// initial version although T3 commits before it; T4 exhibits a concurrent
// (but not dirty) write; T1 -> T2 -> T3 is a dangerous structure; SeG(s)
// contains the cycle T2 <-> T4.
inline const char* kFigure2Order =
    "W2[t] R4[t] W3[v] C3 R2[v] R1[t] C2 R4[v] W4[t] C4 C1";

inline Schedule Figure2Schedule(const TransactionSet& txns) {
  StatusOr<std::vector<OpRef>> order = ParseScheduleOrder(txns, kFigure2Order);
  assert(order.ok());
  // Operation references, by (txn, program index).
  const OpRef r1t{0, 0};
  const OpRef w2t{1, 0}, r2v{1, 1};
  const OpRef w3v{2, 0};
  const OpRef r4t{3, 0}, r4v{3, 1}, w4t{3, 2};
  VersionFunction versions{
      {r1t, OpRef::Op0()},
      {r2v, OpRef::Op0()},
      {r4t, OpRef::Op0()},
      {r4v, w3v},
  };
  VersionOrder version_order;
  version_order[txns.FindObject("t")] = {w2t, w4t};
  version_order[txns.FindObject("v")] = {w3v};
  StatusOr<Schedule> schedule = Schedule::Create(
      &txns, std::move(order).value(), std::move(versions),
      std::move(version_order));
  assert(schedule.ok());
  return std::move(schedule).value();
}

// Example 2.6: T1 and T2 are concurrent and both write v; T2's write happens
// after C1, so it is a concurrent but not dirty write.
inline TransactionSet Example26Txns() {
  StatusOr<TransactionSet> txns = ParseTransactionSet(R"(
    T1: W[v]
    T2: R[v] W[v]
  )");
  assert(txns.ok());
  return std::move(txns).value();
}

inline const char* kExample26Order = "W1[v] R2[v] C1 W2[v] C2";

inline Schedule Example26Schedule(const TransactionSet& txns) {
  StatusOr<std::vector<OpRef>> order =
      ParseScheduleOrder(txns, kExample26Order);
  assert(order.ok());
  const OpRef w1v{0, 0};
  const OpRef r2v{1, 0}, w2v{1, 1};
  VersionFunction versions{{r2v, OpRef::Op0()}};
  VersionOrder version_order;
  version_order[txns.FindObject("v")] = {w1v, w2v};
  StatusOr<Schedule> schedule = Schedule::Create(
      &txns, std::move(order).value(), std::move(versions),
      std::move(version_order));
  assert(schedule.ok());
  return std::move(schedule).value();
}

// Example 5.2: s = op0 W1[t] R2[v] C1 R2[t] C2 with v_s(R2[v]) =
// v_s(R2[t]) = op0; allowed under A_SI but not A_RC.
inline TransactionSet Example52Txns() {
  StatusOr<TransactionSet> txns = ParseTransactionSet(R"(
    T1: W[t]
    T2: R[v] R[t]
  )");
  assert(txns.ok());
  return std::move(txns).value();
}

inline const char* kExample52Order = "W1[t] R2[v] C1 R2[t] C2";

inline Schedule Example52Schedule(const TransactionSet& txns) {
  StatusOr<std::vector<OpRef>> order =
      ParseScheduleOrder(txns, kExample52Order);
  assert(order.ok());
  const OpRef w1t{0, 0};
  const OpRef r2v{1, 0}, r2t{1, 1};
  VersionFunction versions{{r2v, OpRef::Op0()}, {r2t, OpRef::Op0()}};
  VersionOrder version_order;
  version_order[txns.FindObject("t")] = {w1t};
  StatusOr<Schedule> schedule = Schedule::Create(
      &txns, std::move(order).value(), std::move(versions),
      std::move(version_order));
  assert(schedule.ok());
  return std::move(schedule).value();
}

// Algorithm 2 over the box `bounds` on a one-shot analyzer.
inline StatusOr<OptimalAllocationResult> AllocateWithin(
    const TransactionSet& txns, const AllocationBounds& bounds) {
  return ComputeOptimalAllocation(RobustnessAnalyzer(txns), bounds);
}

// The {RC, SI} optimum of Theorem 5.5: the box [A_RC, A_SI].
inline OptimalAllocationResult RcSiOptimum(const TransactionSet& txns) {
  return AllocateWithin(txns, AllocationBounds::RcSi(txns.size())).value();
}

// The template analysis of `set`; the set must instantiate.
inline TemplateAnalysis AnalyzeTemplates(
    const TemplateSet& set, const InstantiationOptions& options = {},
    const CheckOptions& check = {}) {
  StatusOr<TemplateAnalysis> analysis =
      TemplateAnalysis::Build(set, options, check);
  if (!analysis.ok()) {
    std::fprintf(stderr, "%s\n", analysis.status().ToString().c_str());
    std::abort();
  }
  return std::move(analysis).value();
}

// The random sets of the analyzer differential tests (delta checks,
// witness enumeration): the shapes of the robustness property corpus (2–4
// transactions, both access regimes) and larger contended sets up to 12
// transactions.
inline TransactionSet DeltaCorpusSet(uint64_t seed) {
  SyntheticParams params;
  if (seed % 4 == 0) {
    params.num_txns = 2 + static_cast<int>(seed / 4 % 3);
    params.num_objects = 2 + static_cast<int>(seed % 3);
    params.max_ops = 2 + static_cast<int>(seed % 3);
    params.write_fraction = 0.5;
    params.hotspot_fraction = 0.5;
  } else {
    params.num_txns = 3 + static_cast<int>(seed % 10);
    params.num_objects = 3 + static_cast<int>(seed % 6);
    params.max_ops = 5;
    params.write_fraction = 0.45;
    params.hotspot_fraction = 0.4;
  }
  params.min_ops = 1;
  params.num_hotspots = 2;
  params.at_most_one_access = seed % 3 != 0;
  params.seed = seed * 6007 + 5;
  return GenerateSynthetic(params);
}

}  // namespace mvrob

#endif  // MVROB_TESTS_FIXTURES_H_
