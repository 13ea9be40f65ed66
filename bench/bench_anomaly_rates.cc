// Anomaly-rate study: for canonical two/three-transaction patterns, the
// fraction of interleavings each allocation admits (permissiveness) and
// the fraction of admitted schedules that are NOT serializable (anomaly
// rate). This quantifies the trade-off behind the paper's preference order
// RC < SI < SSI: lower levels admit more schedules but more anomalies;
// a *robust* allocation is exactly one whose anomaly rate is zero.
#include <cstdio>

#include "core/robustness.h"
#include "oracle/reference_checker.h"
#include "oracle/statistics.h"
#include "txn/parser.h"
#include "workloads/synthetic.h"

namespace mvrob {
namespace {

void Report(const char* name, const TransactionSet& txns) {
  std::printf("\n--- %s ---\n%s", name, txns.ToString().c_str());
  std::printf("  %-28s %12s %10s %12s %8s\n", "allocation", "allowed",
              "anomalous", "anomaly-rate", "robust");
  struct Row {
    const char* label;
    Allocation alloc;
  };
  std::vector<Row> rows = {
      {"A_RC", Allocation::AllRC(txns.size())},
      {"A_SI", Allocation::AllSI(txns.size())},
      {"A_SSI", Allocation::AllSSI(txns.size())},
  };
  if (txns.size() == 2) {
    rows.push_back({"T1=SSI T2=SI",
                    Allocation({IsolationLevel::kSSI, IsolationLevel::kSI})});
    rows.push_back({"T1=RC  T2=SI",
                    Allocation({IsolationLevel::kRC, IsolationLevel::kSI})});
  }
  for (const Row& row : rows) {
    StatusOr<ScheduleCensus> census = ComputeScheduleCensus(txns, row.alloc);
    if (!census.ok()) {
      std::printf("  %-28s (too large to enumerate)\n", row.label);
      continue;
    }
    bool robust = CheckRobustness(txns, row.alloc).robust;
    std::printf("  %-28s %7llu/%-4llu %10llu %11.1f%% %8s\n", row.label,
                static_cast<unsigned long long>(census->allowed),
                static_cast<unsigned long long>(census->interleavings),
                static_cast<unsigned long long>(census->anomalous),
                100.0 * census->AnomalyRate(), robust ? "yes" : "no");
  }
}

}  // namespace
}  // namespace mvrob

int main() {
  using namespace mvrob;
  std::printf("Allowed-schedule census and anomaly rates\n");
  std::printf("=========================================\n");
  std::printf("(anomaly rate 0.0%% <=> the allocation is robust — the\n");
  std::printf(" census and Algorithm 1 must agree on the yes/no column)\n");

  Report("write skew", *ParseTransactionSet(R"(
    T1: R[x] W[y]
    T2: R[y] W[x]
  )"));
  Report("lost update", *ParseTransactionSet(R"(
    T1: R[x] W[x]
    T2: R[x] W[x]
  )"));
  Report("read-only observer (SmallBank core)", *ParseTransactionSet(R"(
    T1: R[s] R[c] W[c]
    T2: R[s] W[s]
    T3: R[s] R[c]
  )"));
  Report("paper Figure 2 workload", *ParseTransactionSet(R"(
    T1: R[t]
    T2: W[t] R[v]
    T3: W[v]
    T4: R[t] R[v] W[t]
  )"));
  return 0;
}
