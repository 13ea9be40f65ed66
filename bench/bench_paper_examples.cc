// Regenerates the paper's worked artifacts (DESIGN.md E1-E5):
//  - Figure 2: the schedule s with its version function and version order;
//  - Figure 3: SeG(s) with the cycle witnessing non-serializability;
//  - Example 2.5: the full allocation analysis of s;
//  - Figure 4 / Example 2.6: the mixed-allocation asymmetry;
//  - Figure 5 / Example 5.2: SI-allowed but not RC-allowed;
//  - Figure 1 / Definition 3.1: a concrete multiversion split schedule
//    produced by Algorithm 1 for a non-robust allocation.
#include <cstdio>

#include "core/robustness.h"
#include "core/split_schedule.h"
#include "iso/allowed.h"
#include "oracle/reference_checker.h"
#include "schedule/serializability.h"
#include "schedule/serialization_graph.h"
#include "txn/parser.h"

namespace mvrob {
namespace {

Schedule MustCreate(StatusOr<Schedule> schedule) {
  if (!schedule.ok()) {
    std::fprintf(stderr, "fixture error: %s\n",
                 schedule.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(schedule).value();
}

void PrintHeader(const char* title) {
  std::printf("\n=== %s ===\n", title);
}

void Figure2And3AndExample25() {
  TransactionSet txns = *ParseTransactionSet(R"(
    T1: R[t]
    T2: W[t] R[v]
    T3: W[v]
    T4: R[t] R[v] W[t]
  )");
  std::vector<OpRef> order = *ParseScheduleOrder(
      txns, "W2[t] R4[t] W3[v] C3 R2[v] R1[t] C2 R4[v] W4[t] C4 C1");
  VersionFunction versions{{OpRef{0, 0}, OpRef::Op0()},
                           {OpRef{1, 1}, OpRef::Op0()},
                           {OpRef{3, 0}, OpRef::Op0()},
                           {OpRef{3, 1}, OpRef{2, 0}}};
  VersionOrder version_order;
  version_order[txns.FindObject("t")] = {OpRef{1, 0}, OpRef{3, 2}};
  version_order[txns.FindObject("v")] = {OpRef{2, 0}};
  Schedule s = MustCreate(
      Schedule::Create(&txns, order, versions, version_order));

  PrintHeader("Figure 2: schedule s (reads annotated with v_s)");
  std::printf("%s\n", s.ToString(/*with_versions=*/true).c_str());

  PrintHeader("Figure 3: serialization graph SeG(s)");
  SerializationGraph graph = SerializationGraph::Build(s);
  std::printf("%s", graph.ToString(txns).c_str());
  auto cycle = graph.FindCycle();
  std::printf("conflict serializable: %s\n",
              IsConflictSerializable(s) ? "yes" : "NO");
  if (cycle.has_value()) {
    std::printf("cycle:");
    for (const Dependency& edge : *cycle) {
      std::printf(" %s->%s", txns.txn(edge.from).name().c_str(),
                  txns.txn(edge.to).name().c_str());
    }
    std::printf("\n");
  }

  PrintHeader("Example 2.5: which allocations allow s");
  for (const char* alloc_text :
       {"T1=SI T2=SI T3=SI T4=RC", "T1=SSI T2=SSI T3=SSI T4=RC",
        "T1=RC T2=RC T3=RC T4=RC", "T1=SI T2=RC T3=SI T4=RC",
        "T1=SI T2=SI T3=SI T4=SI"}) {
    Allocation alloc =
        *ParseAllocation(txns, alloc_text, IsolationLevel::kSI);
    AllowedCheckResult result = CheckAllowedUnder(s, alloc);
    std::printf("  %-28s -> %s\n", alloc_text,
                result.allowed ? "allowed" : "not allowed");
    for (const std::string& violation : result.violations) {
      std::printf("      %s\n", violation.c_str());
    }
  }
}

void Example26() {
  PrintHeader("Figure 4 / Example 2.6: asymmetry of mixed allocations");
  TransactionSet txns = *ParseTransactionSet(R"(
    T1: W[v]
    T2: R[v] W[v]
  )");
  Schedule s = MustCreate(Schedule::Create(
      &txns, *ParseScheduleOrder(txns, "W1[v] R2[v] C1 W2[v] C2"),
      VersionFunction{{OpRef{1, 0}, OpRef::Op0()}},
      VersionOrder{{txns.FindObject("v"), {OpRef{0, 0}, OpRef{1, 1}}}}));
  std::printf("s = %s\n", s.ToString().c_str());
  struct Case {
    const char* name;
    Allocation alloc;
  } cases[] = {
      {"A1 = (T1=SI,  T2=SI)", Allocation::AllSI(2)},
      {"A2 = (T1=RC,  T2=SI)",
       Allocation({IsolationLevel::kRC, IsolationLevel::kSI})},
      {"A3 = (T1=SI,  T2=RC)",
       Allocation({IsolationLevel::kSI, IsolationLevel::kRC})},
  };
  for (const Case& c : cases) {
    std::printf("  %s -> %s\n", c.name,
                AllowedUnder(s, c.alloc) ? "allowed" : "not allowed");
  }
}

void Example52() {
  PrintHeader("Figure 5 / Example 5.2: allowed under SI but not under RC");
  TransactionSet txns = *ParseTransactionSet(R"(
    T1: W[t]
    T2: R[v] R[t]
  )");
  Schedule s = MustCreate(Schedule::Create(
      &txns, *ParseScheduleOrder(txns, "W1[t] R2[v] C1 R2[t] C2"),
      VersionFunction{{OpRef{1, 0}, OpRef::Op0()},
                      {OpRef{1, 1}, OpRef::Op0()}},
      VersionOrder{{txns.FindObject("t"), {OpRef{0, 0}}}}));
  std::printf("s = %s\n", s.ToString(/*with_versions=*/true).c_str());
  std::printf("  allowed under A_SI: %s\n",
              AllowedUnder(s, Allocation::AllSI(2)) ? "yes" : "no");
  std::printf("  allowed under A_RC: %s\n",
              AllowedUnder(s, Allocation::AllRC(2)) ? "yes" : "no");
}

void Figure1SplitSchedule() {
  PrintHeader("Figure 1 / Definition 3.1: a multiversion split schedule");
  TransactionSet txns = *ParseTransactionSet(R"(
    T1: R[x] W[y]
    T2: W[x] W[b]
    T3: R[b] R[y]
  )");
  Allocation alloc = Allocation::AllSI(3);
  RobustnessResult result = CheckRobustness(txns, alloc);
  std::printf("workload:\n%s", txns.ToString().c_str());
  std::printf("allocation: %s\n", alloc.ToString(txns).c_str());
  std::printf("robust: %s\n", result.robust ? "yes" : "NO");
  if (!result.robust) {
    std::printf("counterexample chain: %s\n",
                result.counterexample->ToString(txns).c_str());
    StatusOr<Schedule> schedule =
        BuildSplitSchedule(txns, alloc, *result.counterexample);
    std::printf("split schedule: %s\n", schedule->ToString().c_str());
    std::printf("  allowed under allocation: %s\n",
                AllowedUnder(*schedule, alloc) ? "yes" : "no");
    std::printf("  conflict serializable:    %s\n",
                IsConflictSerializable(*schedule) ? "yes" : "NO");
  }
}

}  // namespace
}  // namespace mvrob

int main() {
  mvrob::Figure2And3AndExample25();
  mvrob::Example26();
  mvrob::Example52();
  mvrob::Figure1SplitSchedule();
  return 0;
}
