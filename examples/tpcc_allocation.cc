// TPC-C allocation: reproduces the folklore result from the paper's
// introduction — TPC-C is robust against SI (so PostgreSQL's SERIALIZABLE
// monitoring buys nothing for it) but not against RC — and derives the
// per-transaction allocation a DBA would configure.
//
//   $ ./tpcc_allocation [warehouses [districts [rounds]]]
#include <cstdio>
#include <cstdlib>

#include "core/analyzer.h"
#include "core/optimal_allocation.h"
#include "oracle/reference_checker.h"
#include "workloads/tpcc.h"

int main(int argc, char** argv) {
  using namespace mvrob;

  TpccParams params;
  if (argc > 1) params.warehouses = std::atoi(argv[1]);
  if (argc > 2) params.districts_per_warehouse = std::atoi(argv[2]);
  if (argc > 3) params.rounds = std::atoi(argv[3]);

  Workload tpcc = MakeTpcc(params);
  std::printf("%s\n", tpcc.description.c_str());
  std::printf("transactions: %zu over %zu column-granularity objects\n\n",
              tpcc.txns.size(), tpcc.txns.num_objects());

  std::printf("robust against A_RC : %s\n",
              CheckRobustnessRC(tpcc.txns).robust ? "yes" : "no");
  RobustnessResult si = CheckRobustnessSI(tpcc.txns);
  std::printf("robust against A_SI : %s   <- the TPC-C folklore result\n",
              si.robust ? "yes" : "no");

  RobustnessResult rc = CheckRobustnessRC(tpcc.txns);
  if (!rc.robust) {
    std::printf("\nwhy RC fails: %s\n",
                rc.counterexample->ToString(tpcc.txns).c_str());
  }

  OptimalAllocationResult optimal = ComputeOptimalAllocation(tpcc.txns);
  std::printf("\noptimal {RC,SI,SSI} allocation (%llu robustness checks):\n",
              static_cast<unsigned long long>(optimal.robustness_checks));
  std::printf("  RC=%zu SI=%zu SSI=%zu\n",
              optimal.allocation.CountAt(IsolationLevel::kRC),
              optimal.allocation.CountAt(IsolationLevel::kSI),
              optimal.allocation.CountAt(IsolationLevel::kSSI));

  OptimalAllocationResult oracle_style =
      ComputeOptimalAllocation(RobustnessAnalyzer(tpcc.txns),
                               AllocationBounds::RcSi(tpcc.txns.size()))
          .value();
  std::printf("\nOracle-style {RC,SI} setting: %s\n",
              oracle_style.feasible
                  ? "a robust allocation exists (run everything at SI)"
                  : "NO robust allocation exists");
  return 0;
}
