// Workload study (DESIGN.md E12): the per-workload robustness matrix and
// optimal allocations, reproducing the folklore results the paper builds
// on — TPC-C robust against SI but not RC; SmallBank robust against
// neither (needs SSI); the auction scenario's optimum mixing all three
// levels.
#include <cstdio>

#include "core/analyzer.h"
#include "core/optimal_allocation.h"
#include "oracle/reference_checker.h"
#include "workloads/auction.h"
#include "workloads/smallbank.h"
#include "workloads/synthetic.h"
#include "workloads/tpcc.h"
#include "workloads/voter.h"
#include "workloads/ycsb.h"

namespace mvrob {
namespace {

void Report(const Workload& workload) {
  const TransactionSet& txns = workload.txns;
  std::printf("\n--- %s: %s ---\n", workload.name.c_str(),
              workload.description.c_str());
  std::printf("transactions: %zu, objects: %zu, operations: %d\n",
              txns.size(), txns.num_objects(), txns.TotalOps());

  bool rc = CheckRobustnessRC(txns).robust;
  bool si = CheckRobustnessSI(txns).robust;
  bool ssi = CheckRobustnessSSI(txns).robust;
  std::printf("robust against: A_RC=%-3s A_SI=%-3s A_SSI=%-3s\n",
              rc ? "yes" : "no", si ? "yes" : "no", ssi ? "yes" : "no");

  OptimalAllocationResult optimal = ComputeOptimalAllocation(txns);
  std::printf("optimal {RC,SI,SSI} allocation: RC=%zu SI=%zu SSI=%zu "
              "(%llu robustness checks)\n",
              optimal.allocation.CountAt(IsolationLevel::kRC),
              optimal.allocation.CountAt(IsolationLevel::kSI),
              optimal.allocation.CountAt(IsolationLevel::kSSI),
              static_cast<unsigned long long>(optimal.robustness_checks));
  if (txns.size() <= 16) {
    std::printf("  %s\n", optimal.allocation.ToString(txns).c_str());
  }

  OptimalAllocationResult rcsi =
      ComputeOptimalAllocation(RobustnessAnalyzer(txns),
                               AllocationBounds::RcSi(txns.size()))
          .value();
  if (rcsi.feasible) {
    std::printf("{RC,SI}-allocatable: yes (RC=%zu SI=%zu)\n",
                rcsi.allocation.CountAt(IsolationLevel::kRC),
                rcsi.allocation.CountAt(IsolationLevel::kSI));
  } else {
    std::printf("{RC,SI}-allocatable: no — counterexample: %s\n",
                rcsi.counterexample->ToString(txns).c_str());
  }
}

}  // namespace
}  // namespace mvrob

int main() {
  using namespace mvrob;
  std::printf("Workload robustness & allocation study\n");
  std::printf("======================================\n");

  Report(MakeTpcc(TpccParams{}));

  {
    TpccParams big;
    big.warehouses = 2;
    big.districts_per_warehouse = 3;
    big.rounds = 2;
    Report(MakeTpcc(big));
  }

  Report(MakeSmallBank(SmallBankParams{}));

  {
    SmallBankParams big;
    big.customers = 4;
    Report(MakeSmallBank(big));
  }

  Report(MakeAuction(AuctionParams{}));

  {
    VoterParams params;
    params.contestants = 3;
    params.callers = 2;
    Report(MakeVoter(params));
  }

  Report(MakeYcsb(YcsbParams::MixA()));

  {
    SyntheticParams params;
    params.num_txns = 12;
    params.num_objects = 8;
    params.min_ops = 2;
    params.max_ops = 5;
    params.write_fraction = 0.4;
    params.hotspot_fraction = 0.4;
    params.num_hotspots = 2;
    params.seed = 99;
    Workload synth{"synthetic", "12 txns, 8 objects, 40% writes, hotspot",
                   GenerateSynthetic(params)};
    Report(synth);
  }
  return 0;
}
