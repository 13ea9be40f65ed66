// Evolving workload: operate the allocator the way a deployment would —
// programs join over time (incremental re-allocation with warm starts),
// some transactions are pinned by operational constraints, and every level
// assignment comes with an explanation.
//
//   $ ./evolving_workload
#include <cstdio>

#include "core/explain.h"
#include "core/incremental.h"

namespace {

void ShowState(const mvrob::IncrementalAllocator& allocator) {
  using namespace mvrob;
  std::printf("  workload now:\n");
  for (TxnId t = 0; t < allocator.txns().size(); ++t) {
    std::printf("    %-10s -> %s\n", allocator.txns().txn(t).name().c_str(),
                IsolationLevelToString(allocator.allocation().level(t)));
  }
}

}  // namespace

int main() {
  using namespace mvrob;
  IncrementalAllocator allocator;
  ObjectId checking = allocator.InternObject("checking");
  ObjectId savings = allocator.InternObject("savings");
  ObjectId audit_log = allocator.InternObject("audit_log");

  std::printf("1. The deposit program ships first:\n");
  (void)allocator.AddTransaction(
      "Deposit", {Operation::Read(checking), Operation::Write(checking)});
  ShowState(allocator);

  std::printf("\n2. A second deposit path joins (lost-update pair):\n");
  (void)allocator.AddTransaction(
      "Deposit2", {Operation::Read(checking), Operation::Write(checking)});
  ShowState(allocator);

  std::printf("\n3. Withdrawals with an overdraft check join (write skew):\n");
  (void)allocator.AddTransaction(
      "WithdrawC", {Operation::Read(checking), Operation::Read(savings),
                    Operation::Write(checking)});
  (void)allocator.AddTransaction(
      "WithdrawS", {Operation::Read(checking), Operation::Read(savings),
                    Operation::Write(savings)});
  ShowState(allocator);
  std::printf("  (%llu robustness checks so far — warm starts skip settled "
              "programs)\n",
              static_cast<unsigned long long>(allocator.checks_performed()));

  std::printf("\n4. Why can nothing run lower?\n");
  StatusOr<AllocationExplanation> explanation =
      ExplainAllocation(allocator.txns(), allocator.allocation());
  if (explanation.ok()) {
    std::printf("%s", explanation->ToString(allocator.txns()).c_str());
  }

  std::printf("\n5. Operations insists the audit logger stays at RC\n");
  std::printf("   (it must never retry); is that safe?\n");
  IncrementalAllocator with_logger = allocator;
  (void)with_logger.AddTransaction("AuditLog",
                                   {Operation::Write(audit_log)});
  AllocationBounds bounds = AllocationBounds::Free(with_logger.txns().size());
  bounds.Pin(with_logger.txns().FindTransaction("AuditLog"),
             IsolationLevel::kRC);
  StatusOr<OptimalAllocationResult> constrained = ComputeOptimalAllocation(
      RobustnessAnalyzer(with_logger.txns()), bounds);
  if (constrained.ok() && constrained->feasible) {
    std::printf("   yes: %s\n",
                constrained->allocation.ToString(with_logger.txns()).c_str());
  } else if (constrained.ok()) {
    std::printf("   no: %s\n",
                constrained->counterexample->ToString(with_logger.txns())
                    .c_str());
  }
  return 0;
}
