#ifndef MVROB_CORE_INCREMENTAL_H_
#define MVROB_CORE_INCREMENTAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/analyzer.h"
#include "core/optimal_allocation.h"
#include "iso/allocation.h"

namespace mvrob {

/// Online allocation maintenance for an evolving workload: keeps a
/// transaction set and its optimal robust allocation, updating the
/// allocation as programs join or leave.
///
/// Key fact (provable from Definition 3.1 — counterexamples survive adding
/// transactions, which are simply appended to the split schedule): when a
/// transaction is ADDED, no existing transaction's optimal level can
/// decrease. The updater therefore runs Algorithm 2 over the box
/// [previous levels, A_SSI] (ComputeOptimalAllocation with bounds),
/// typically re-examining only the
/// transactions that actually interact with the newcomer. Removal can
/// lower levels anywhere and triggers a full recomputation.
///
/// The `checks_performed` counter versus Algorithm 2's 2·|T| baseline
/// quantifies the savings (see bench_allocation).
class IncrementalAllocator {
 public:
  IncrementalAllocator() = default;

  /// Adds a transaction (commit appended, as in
  /// TransactionSet::AddTransaction) and restores optimality.
  StatusOr<TxnId> AddTransaction(std::string name,
                                 std::vector<Operation> rw_ops);

  /// Removes a transaction by rebuilding the set without it (ids shift
  /// down) and recomputing the optimum from scratch.
  Status RemoveTransaction(TxnId txn);

  /// Interns an object name (forwarded to the underlying set).
  ObjectId InternObject(std::string_view name) {
    return txns_.InternObject(name);
  }

  const TransactionSet& txns() const { return txns_; }
  /// The optimal robust allocation for the current set.
  const Allocation& allocation() const { return allocation_; }

  /// Robustness checks spent so far (for the savings benchmark).
  uint64_t checks_performed() const { return checks_performed_; }

  /// Options forwarded to every robustness check (e.g. num_threads);
  /// the maintained allocation is identical for any setting.
  void set_check_options(const CheckOptions& options) { options_ = options; }
  const CheckOptions& check_options() const { return options_; }

 private:
  /// Recomputes the optimum over the box [bounds.min_level, A_SSI].
  void Reoptimize(const AllocationBounds& bounds);

  TransactionSet txns_;
  Allocation allocation_;
  CheckOptions options_;
  uint64_t checks_performed_ = 0;
};

}  // namespace mvrob

#endif  // MVROB_CORE_INCREMENTAL_H_
