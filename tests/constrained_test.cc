#include <gtest/gtest.h>

#include "core/optimal_allocation.h"
#include "core/split_schedule.h"
#include "fixtures.h"
#include "oracle/exhaustive_allocation.h"
#include "txn/parser.h"
#include "workloads/synthetic.h"

namespace mvrob {
namespace {

TransactionSet Parse(const char* text) {
  StatusOr<TransactionSet> txns = ParseTransactionSet(text);
  EXPECT_TRUE(txns.ok()) << txns.status();
  return std::move(txns).value();
}

constexpr const char* kWriteSkew = "T1: R[x] W[y]\nT2: R[y] W[x]";

TEST(ConstrainedTest, FreeBoundsMatchAlgorithm2) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    SyntheticParams params;
    params.num_txns = 4;
    params.num_objects = 3;
    params.max_ops = 3;
    params.write_fraction = 0.5;
    params.seed = seed;
    TransactionSet txns = GenerateSynthetic(params);
    StatusOr<OptimalAllocationResult> constrained =
        AllocateWithin(txns, AllocationBounds::Free(txns.size()));
    ASSERT_TRUE(constrained.ok());
    ASSERT_TRUE(constrained->feasible);
    EXPECT_EQ(constrained->allocation,
              ComputeOptimalAllocation(txns).allocation)
        << txns.ToString();
  }
}

TEST(ConstrainedTest, PinningRaisesOthers) {
  // Pinning T1 to SI makes the write-skew box infeasible (T2 at SSI alone
  // does not protect the structure).
  TransactionSet txns = Parse(kWriteSkew);
  AllocationBounds bounds = AllocationBounds::Free(2);
  bounds.Pin(0, IsolationLevel::kSI);
  StatusOr<OptimalAllocationResult> result = AllocateWithin(txns, bounds);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->feasible);
  ASSERT_TRUE(result->counterexample.has_value());
}

TEST(ConstrainedTest, MinLevelsAreRespected) {
  TransactionSet txns = Parse(R"(
    T1: R[x] W[x]
    T2: R[y]
  )");
  // Unconstrained optimum: T1=RC T2=RC (no conflicts across objects).
  AllocationBounds bounds = AllocationBounds::Free(2);
  bounds.AtLeast(0, IsolationLevel::kSI);
  bounds.AtLeast(1, IsolationLevel::kSSI);
  StatusOr<OptimalAllocationResult> result = AllocateWithin(txns, bounds);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->feasible);
  EXPECT_EQ(result->allocation.level(0), IsolationLevel::kSI);
  EXPECT_EQ(result->allocation.level(1), IsolationLevel::kSSI);
}

TEST(ConstrainedTest, UpperBoundInfeasibilityHasWitness) {
  TransactionSet txns = Parse(kWriteSkew);
  AllocationBounds bounds = AllocationBounds::Free(2);
  bounds.AtMost(0, IsolationLevel::kSI).AtMost(1, IsolationLevel::kSI);
  StatusOr<OptimalAllocationResult> result = AllocateWithin(txns, bounds);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->feasible);
  // The witness is against the top of the box (A_SI here).
  EXPECT_TRUE(VerifyCounterexample(txns, Allocation::AllSI(2),
                                   *result->counterexample)
                  .ok());
}

TEST(ConstrainedTest, OptimalWithinBoxMatchesLatticeSearch) {
  // Exhaustively confirm box-optimality on a small workload: enumerate all
  // allocations, filter to the box + robust, take the pointwise minimum.
  TransactionSet txns = Parse(R"(
    T1: R[x] W[y]
    T2: R[y] W[x]
    T3: R[x] R[y]
  )");
  AllocationBounds bounds = AllocationBounds::Free(3);
  bounds.AtLeast(2, IsolationLevel::kSI);
  StatusOr<OptimalAllocationResult> result = AllocateWithin(txns, bounds);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->feasible);

  StatusOr<ExhaustiveAllocationResult> lattice = EnumerateRobustAllocations(
      txns, {IsolationLevel::kRC, IsolationLevel::kSI, IsolationLevel::kSSI},
      RobustnessOracle::kAlgorithm);
  ASSERT_TRUE(lattice.ok());
  std::optional<Allocation> best;
  for (const Allocation& robust : lattice->robust_allocations) {
    bool in_box = true;
    for (TxnId t = 0; t < txns.size(); ++t) {
      if (robust.level(t) < bounds.min_level[t] ||
          bounds.max_level[t] < robust.level(t)) {
        in_box = false;
      }
    }
    if (!in_box) continue;
    if (!best.has_value()) {
      best = robust;
      continue;
    }
    std::vector<IsolationLevel> merged(txns.size());
    for (TxnId t = 0; t < txns.size(); ++t) {
      merged[t] = std::min(best->level(t), robust.level(t),
                           [](IsolationLevel a, IsolationLevel b) {
                             return a < b;
                           });
    }
    best = Allocation(std::move(merged));
  }
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(result->allocation, *best);
}

TEST(ConstrainedTest, RejectsMalformedBounds) {
  TransactionSet txns = Parse(kWriteSkew);
  AllocationBounds wrong_size = AllocationBounds::Free(1);
  EXPECT_FALSE(AllocateWithin(txns, wrong_size).ok());

  AllocationBounds inverted = AllocationBounds::Free(2);
  inverted.min_level[0] = IsolationLevel::kSSI;
  inverted.max_level[0] = IsolationLevel::kRC;
  StatusOr<OptimalAllocationResult> result =
      AllocateWithin(txns, inverted);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace mvrob
