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
  std::vector<IsolationLevel> lower_bounds = allocation_.levels();
  lower_bounds.push_back(IsolationLevel::kRC);
  Reoptimize(lower_bounds);
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
  Reoptimize(std::vector<IsolationLevel>(txns_.size(), IsolationLevel::kRC));
  return Status::Ok();
}

void IncrementalAllocator::Reoptimize(
    const std::vector<IsolationLevel>& lower_bounds) {
  PhaseTimer timer(options_.metrics, "incremental.reoptimize");
  RobustnessAnalyzer analyzer(txns_, options_.metrics);
  Allocation allocation = Allocation::AllSSI(txns_.size());
  uint64_t checks = 0;
  uint64_t warm_start_skips = 0;
  bool cancelled = false;
  for (TxnId t = 0; t < txns_.size() && !cancelled; ++t) {
    for (IsolationLevel level : {IsolationLevel::kRC, IsolationLevel::kSI}) {
      if (level < lower_bounds[t]) {  // Warm start.
        ++warm_start_skips;
        continue;
      }
      Allocation candidate = allocation.With(t, level);
      ++checks_performed_;
      ++checks;
      RobustnessResult check =
          analyzer.CheckDelta(allocation, candidate, options_);
      // A cancelled check carries no verdict: keep the robust allocation.
      cancelled = check.cancelled;
      if (cancelled) break;
      if (check.robust) {
        allocation = std::move(candidate);
        break;
      }
    }
  }
  allocation_ = std::move(allocation);
  if (options_.metrics != nullptr) {
    options_.metrics->counter("incremental.reoptimize_calls").Increment();
    options_.metrics->counter("incremental.checks_performed").Add(checks);
    options_.metrics->counter("incremental.warm_start_skips")
        .Add(warm_start_skips);
  }
}

}  // namespace mvrob
