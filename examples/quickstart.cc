// Quickstart: declare a workload, ask whether an allocation is robust, and
// compute the optimal allocation.
//
//   $ ./quickstart
//
// The workload is the classic write-skew pair plus a read-only auditor —
// the smallest example where the answers are interesting.
#include <cstdio>

#include "core/optimal_allocation.h"
#include "core/robustness.h"
#include "core/split_schedule.h"
#include "oracle/reference_checker.h"
#include "txn/parser.h"

int main() {
  using namespace mvrob;

  // 1. Declare the transactions. R[x]/W[x] read and write named objects;
  //    the commit is implicit.
  StatusOr<TransactionSet> parsed = ParseTransactionSet(R"(
    Withdraw1: R[checking] R[savings] W[checking]
    Withdraw2: R[checking] R[savings] W[savings]
    Audit:     R[checking] R[savings]
  )");
  if (!parsed.ok()) {
    std::fprintf(stderr, "parse error: %s\n",
                 parsed.status().ToString().c_str());
    return 1;
  }
  const TransactionSet& txns = *parsed;
  std::printf("workload:\n%s\n", txns.ToString().c_str());

  // 2. Is it safe to run everything under snapshot isolation?
  RobustnessResult against_si = CheckRobustness(
      txns, Allocation::AllSI(txns.size()));
  std::printf("robust against A_SI? %s\n",
              against_si.robust ? "yes" : "no");
  if (!against_si.robust) {
    // Algorithm 1 hands back a concrete counterexample schedule.
    std::printf("  counterexample: %s\n",
                against_si.counterexample->ToString(txns).c_str());
    StatusOr<Schedule> witness = BuildSplitSchedule(
        txns, Allocation::AllSI(txns.size()), *against_si.counterexample);
    std::printf("  witness schedule: %s\n", witness->ToString().c_str());
  }

  // 3. Compute the cheapest safe allocation over {RC, SI, SSI}.
  OptimalAllocationResult optimal = ComputeOptimalAllocation(txns);
  std::printf("\noptimal robust allocation:\n  %s\n",
              optimal.allocation.ToString(txns).c_str());
  std::printf("(every schedule the allocation admits is conflict "
              "serializable,\n and no transaction can run any lower.)\n");
  return 0;
}
