#include "core/incremental.h"

#include "common/metrics.h"

namespace mvrob {

StatusOr<TxnId> IncrementalAllocator::AddTransaction(
    std::string name, std::vector<Operation> rw_ops) {
  StatusOr<TxnId> id = txns_.AddTransaction(std::move(name),
                                            std::move(rw_ops));
  if (!id.ok()) return id;

  // Previous levels are valid lower bounds (adding a transaction never
  // lowers anyone's optimal level); the newcomer starts unconstrained.
  AllocationBounds bounds = AllocationBounds::Free(txns_.size());
  bounds.min_level = allocation_.levels();
  bounds.min_level.push_back(IsolationLevel::kRC);
  Reoptimize(bounds);
  return id;
}

Status IncrementalAllocator::RemoveTransaction(TxnId txn) {
  if (txn >= txns_.size()) {
    return Status::NotFound("no such transaction");
  }
  TransactionSet rebuilt;
  for (size_t o = 0; o < txns_.num_objects(); ++o) {
    rebuilt.InternObject(txns_.ObjectName(static_cast<ObjectId>(o)));
  }
  for (TxnId t = 0; t < txns_.size(); ++t) {
    if (t == txn) continue;
    const Transaction& old = txns_.txn(t);
    std::vector<Operation> ops(old.ops().begin(),
                               old.ops().end() - 1);  // Drop the commit.
    StatusOr<TxnId> id = rebuilt.AddTransaction(old.name(), std::move(ops));
    if (!id.ok()) return id.status();
  }
  txns_ = std::move(rebuilt);
  // Removal can lower anyone: recompute without bounds.
  Reoptimize(AllocationBounds::Free(txns_.size()));
  return Status::Ok();
}

void IncrementalAllocator::Reoptimize(const AllocationBounds& bounds) {
  PhaseTimer timer(options_.metrics, "incremental.reoptimize");
  RobustnessAnalyzer analyzer(txns_, options_.metrics);
  // The bounds are well formed, and their top, A_SSI, is never checked.
  OptimalAllocationResult result =
      ComputeOptimalAllocation(analyzer, bounds, options_).value();
  checks_performed_ += result.robustness_checks;
  allocation_ = std::move(result.allocation);
  if (options_.metrics != nullptr) {
    // The warm start skips every level below a transaction's floor.
    uint64_t warm_start_skips = 0;
    for (IsolationLevel floor : bounds.min_level) {
      warm_start_skips += static_cast<uint64_t>(floor);
    }
    options_.metrics->counter("incremental.reoptimize_calls").Increment();
    options_.metrics->counter("incremental.checks_performed")
        .Add(result.robustness_checks);
    options_.metrics->counter("incremental.warm_start_skips")
        .Add(warm_start_skips);
  }
}

}  // namespace mvrob
