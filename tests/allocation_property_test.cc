// Property tests for Section 4 (Propositions 4.1/4.2, Theorem 4.3) and
// Section 5 (Theorem 5.5): Algorithm 2's output equals the pointwise
// minimum of all robust allocations, is itself robust, cannot be lowered,
// and the {RC, SI} variant agrees with the exhaustive search restricted to
// {RC, SI}.
#include <gtest/gtest.h>

#include "core/optimal_allocation.h"
#include "fixtures.h"
#include "oracle/exhaustive_allocation.h"
#include "oracle/reference_checker.h"
#include "workloads/synthetic.h"

namespace mvrob {
namespace {

TransactionSet MakeRandomSet(uint64_t seed, int num_txns = 3) {
  SyntheticParams params;
  params.num_txns = num_txns;
  params.num_objects = 3;
  params.min_ops = 1;
  params.max_ops = 3;
  params.write_fraction = 0.5;
  params.hotspot_fraction = 0.4;
  params.seed = seed;
  return GenerateSynthetic(params);
}

class AllocationPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AllocationPropertyTest, Algorithm2MatchesExhaustiveMinimum) {
  TransactionSet txns = MakeRandomSet(GetParam());
  OptimalAllocationResult algorithm = ComputeOptimalAllocation(txns);

  StatusOr<ExhaustiveAllocationResult> exhaustive =
      EnumerateRobustAllocations(
          txns,
          {IsolationLevel::kRC, IsolationLevel::kSI, IsolationLevel::kSSI},
          RobustnessOracle::kAlgorithm);
  ASSERT_TRUE(exhaustive.ok()) << exhaustive.status();
  // A_SSI is always robust, so the lattice is never empty.
  ASSERT_FALSE(exhaustive->robust_allocations.empty());
  ASSERT_TRUE(exhaustive->pointwise_minimum.has_value());

  // Proposition 4.2: the pointwise minimum IS the unique optimal robust
  // allocation, and Algorithm 2 computes it.
  EXPECT_EQ(algorithm.allocation, *exhaustive->pointwise_minimum)
      << txns.ToString();
  EXPECT_TRUE(CheckRobustness(txns, algorithm.allocation).robust);

  // Every robust allocation dominates the optimum.
  for (const Allocation& robust : exhaustive->robust_allocations) {
    EXPECT_TRUE(algorithm.allocation.LessEq(robust));
  }
}

TEST_P(AllocationPropertyTest, OptimumCannotBeLowered) {
  TransactionSet txns = MakeRandomSet(GetParam());
  Allocation optimal = ComputeOptimalAllocation(txns).allocation;
  for (TxnId t = 0; t < txns.size(); ++t) {
    for (IsolationLevel lower : kAllIsolationLevels) {
      if (!(lower < optimal.level(t))) continue;
      EXPECT_FALSE(CheckRobustness(txns, optimal.With(t, lower)).robust)
          << txns.ToString();
    }
  }
}

TEST_P(AllocationPropertyTest, Proposition41PointwiseExchange) {
  // Proposition 4.1(2): if T is robust against A and A', it is robust
  // against A'[T -> A(T)] for every T.
  TransactionSet txns = MakeRandomSet(GetParam());
  StatusOr<ExhaustiveAllocationResult> exhaustive =
      EnumerateRobustAllocations(
          txns,
          {IsolationLevel::kRC, IsolationLevel::kSI, IsolationLevel::kSSI},
          RobustnessOracle::kAlgorithm);
  ASSERT_TRUE(exhaustive.ok());
  const std::vector<Allocation>& robust = exhaustive->robust_allocations;
  // Quadratic in the number of robust allocations; cap the work.
  size_t limit = std::min<size_t>(robust.size(), 12);
  for (size_t i = 0; i < limit; ++i) {
    for (size_t j = 0; j < limit; ++j) {
      for (TxnId t = 0; t < txns.size(); ++t) {
        Allocation exchanged = robust[j].With(t, robust[i].level(t));
        EXPECT_TRUE(CheckRobustness(txns, exchanged).robust)
            << txns.ToString();
      }
    }
  }
}

TEST_P(AllocationPropertyTest, RcSiVariantMatchesExhaustive) {
  TransactionSet txns = MakeRandomSet(GetParam());
  OptimalAllocationResult result = RcSiOptimum(txns);

  StatusOr<ExhaustiveAllocationResult> exhaustive =
      EnumerateRobustAllocations(
          txns, {IsolationLevel::kRC, IsolationLevel::kSI},
          RobustnessOracle::kAlgorithm);
  ASSERT_TRUE(exhaustive.ok());

  // Proposition 5.4: allocatable iff some {RC, SI} allocation is robust iff
  // A_SI is robust.
  EXPECT_EQ(result.feasible, !exhaustive->robust_allocations.empty());
  EXPECT_EQ(result.feasible, CheckRobustnessSI(txns).robust);
  if (result.feasible) {
    EXPECT_EQ(result.allocation, *exhaustive->pointwise_minimum);
    EXPECT_EQ(result.allocation.CountAt(IsolationLevel::kSSI), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, AllocationPropertyTest,
                         ::testing::Range<uint64_t>(0, 20));

// Cross-validation of a handful of cases against the fully independent
// brute-force robustness oracle (expensive: every allocation of the lattice
// is decided by enumerating all interleavings).
class AllocationBruteForceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AllocationBruteForceTest, ExhaustiveLatticeAgreesWithBruteForce) {
  SyntheticParams params;
  params.num_txns = 2;
  params.num_objects = 3;
  params.min_ops = 1;
  params.max_ops = 3;
  params.write_fraction = 0.5;
  params.seed = GetParam();
  TransactionSet txns = GenerateSynthetic(params);

  StatusOr<ExhaustiveAllocationResult> by_algorithm =
      EnumerateRobustAllocations(
          txns,
          {IsolationLevel::kRC, IsolationLevel::kSI, IsolationLevel::kSSI},
          RobustnessOracle::kAlgorithm);
  StatusOr<ExhaustiveAllocationResult> by_brute_force =
      EnumerateRobustAllocations(
          txns,
          {IsolationLevel::kRC, IsolationLevel::kSI, IsolationLevel::kSSI},
          RobustnessOracle::kBruteForce);
  ASSERT_TRUE(by_algorithm.ok());
  ASSERT_TRUE(by_brute_force.ok()) << by_brute_force.status();
  EXPECT_EQ(by_algorithm->robust_allocations,
            by_brute_force->robust_allocations)
      << txns.ToString();
}

INSTANTIATE_TEST_SUITE_P(Sweep, AllocationBruteForceTest,
                         ::testing::Range<uint64_t>(0, 8));

}  // namespace
}  // namespace mvrob
