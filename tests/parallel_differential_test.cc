// Differential tests for the parallel/bitset robustness engine: on ~200
// random workloads and several allocations each, the analyzer at any
// thread count must be indistinguishable from the sequential analyzer and
// from the reference CheckRobustness — same verdict, same (lowest) witness
// triple, same audited triples_examined — and every reported witness must
// verify end-to-end as a real counterexample schedule.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>

#include "common/metrics.h"
#include "common/rng.h"
#include "core/analyzer.h"
#include "core/incremental.h"
#include "core/optimal_allocation.h"
#include "core/robustness.h"
#include "core/split_schedule.h"
#include "oracle/counterexamples.h"
#include "oracle/reference_checker.h"
#include "promote/optimizer.h"
#include "workloads/registry.h"
#include "workloads/synthetic.h"

namespace mvrob {
namespace {

// The Shared() pool sizes itself to the hardware, which may be a single
// core; force real background workers (before anything constructs the
// pool) so the parallel paths genuinely run multi-threaded here and under
// TSan. "0" respects an explicit outer override.
const bool kPoolForced = [] {
  setenv("MVROB_POOL_WORKERS", "3", /*overwrite=*/0);
  return true;
}();

Allocation MixedAllocation(size_t n, uint64_t seed) {
  Rng rng(seed * 6151 + 11);
  std::vector<IsolationLevel> levels(n);
  for (size_t i = 0; i < n; ++i) {
    levels[i] = kAllIsolationLevels[rng.Index(3)];
  }
  return Allocation(std::move(levels));
}

TransactionSet MakeWorkload(uint64_t seed) {
  SyntheticParams params;
  params.num_txns = 3 + static_cast<int>(seed % 10);
  params.num_objects = 3 + static_cast<int>(seed % 6);
  params.min_ops = 1;
  params.max_ops = 5;
  params.write_fraction = 0.45;
  params.hotspot_fraction = 0.4;
  params.num_hotspots = 2;
  params.at_most_one_access = seed % 2 == 0;
  params.seed = seed * 977;
  return GenerateSynthetic(params);
}

// Every checker variant must produce this exact result.
void ExpectSameResult(const TransactionSet& txns, const Allocation& alloc,
                      const RobustnessResult& expected,
                      const RobustnessResult& actual, const char* which) {
  SCOPED_TRACE(which);
  ASSERT_EQ(expected.robust, actual.robust)
      << txns.ToString() << alloc.ToString(txns);
  EXPECT_EQ(expected.triples_examined, actual.triples_examined)
      << txns.ToString() << alloc.ToString(txns);
  if (!expected.robust) {
    ASSERT_TRUE(actual.counterexample.has_value());
    // The lowest-(t1, t2, tm) witness is unique across implementations.
    EXPECT_EQ(expected.counterexample->t1, actual.counterexample->t1);
    EXPECT_EQ(expected.counterexample->t2, actual.counterexample->t2);
    EXPECT_EQ(expected.counterexample->tm, actual.counterexample->tm);
    Status verified = VerifyCounterexample(txns, alloc, *actual.counterexample);
    EXPECT_TRUE(verified.ok()) << verified;
  } else {
    EXPECT_FALSE(actual.counterexample.has_value());
  }
}

class ParallelDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParallelDifferentialTest, ParallelEqualsSequentialEqualsReference) {
  const uint64_t seed = GetParam();
  TransactionSet txns = MakeWorkload(seed);
  RobustnessAnalyzer analyzer(txns);

  for (uint64_t salt = 0; salt < 5; ++salt) {
    Allocation alloc =
        salt < 3 ? Allocation(txns.size(), kAllIsolationLevels[salt])
                 : MixedAllocation(txns.size(), seed * 13 + salt);
    SCOPED_TRACE(alloc.ToString(txns));
    RobustnessResult reference = CheckRobustness(txns, alloc);

    RobustnessResult sequential = analyzer.Check(alloc);
    ExpectSameResult(txns, alloc, reference, sequential, "sequential");

    for (int threads : {2, 4, 0}) {  // 0 = all hardware threads.
      RobustnessResult parallel = analyzer.Check(alloc, {threads});
      ExpectSameResult(txns, alloc, reference, parallel, "parallel");
    }

    // The options-taking facade goes through the same analyzer machinery.
    RobustnessResult facade = CheckRobustness(txns, alloc, {4});
    ExpectSameResult(txns, alloc, reference, facade, "facade");
  }
}

// Attaching a metrics registry must be invisible to the analysis: the
// result is bit-identical to the uninstrumented run, and the audited
// counters agree with the result at every thread count.
TEST_P(ParallelDifferentialTest, MetricsDoNotPerturbResults) {
  const uint64_t seed = GetParam();
  TransactionSet txns = MakeWorkload(seed);
  Allocation alloc = seed % 2 == 0 ? Allocation::AllSI(txns.size())
                                   : MixedAllocation(txns.size(), seed + 3);
  RobustnessResult reference = CheckRobustness(txns, alloc);

  for (int threads : {1, 4}) {
    MetricsRegistry registry;
    CheckOptions options;
    options.num_threads = threads;
    options.metrics = &registry;
    RobustnessResult instrumented = CheckRobustness(txns, alloc, options);
    ExpectSameResult(txns, alloc, reference, instrumented, "instrumented");
    EXPECT_EQ(registry.counter("analyzer.triples_examined").value(),
              instrumented.triples_examined)
        << "threads " << threads << "\n"
        << txns.ToString() << alloc.ToString(txns);
    EXPECT_EQ(registry.counter("analyzer.checks").value(), 1u);
    EXPECT_EQ(registry.counter("analyzer.counterexamples_found").value(),
              instrumented.robust ? 0u : 1u);
    // Every non-abandoned row lands in the work-balance histogram.
    EXPECT_EQ(registry.histogram("analyzer.rows_per_thread").sum(),
              registry.counter("analyzer.rows_scanned").value());
  }
}

TEST_P(ParallelDifferentialTest, FindAllCounterexamplesIsThreadInvariant) {
  const uint64_t seed = GetParam();
  TransactionSet txns = MakeWorkload(seed);
  Allocation alloc = seed % 3 == 0 ? Allocation::AllRC(txns.size())
                     : seed % 3 == 1
                         ? Allocation::AllSI(txns.size())
                         : MixedAllocation(txns.size(), seed * 29 + 7);

  for (size_t limit : {size_t{1}, size_t{8}, size_t{64}}) {
    std::vector<CounterexampleChain> sequential =
        FindAllCounterexamples(txns, alloc, limit);
    std::vector<CounterexampleChain> parallel =
        FindAllCounterexamples(txns, alloc, limit, {4});
    ASSERT_EQ(sequential.size(), parallel.size()) << "limit " << limit;
    for (size_t i = 0; i < sequential.size(); ++i) {
      EXPECT_EQ(sequential[i].t1, parallel[i].t1);
      EXPECT_EQ(sequential[i].t2, parallel[i].t2);
      EXPECT_EQ(sequential[i].tm, parallel[i].tm);
      Status verified = VerifyCounterexample(txns, alloc, parallel[i]);
      EXPECT_TRUE(verified.ok()) << verified;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ParallelDifferentialTest,
                         ::testing::Range<uint64_t>(0, 200));

// Algorithm 2 with a parallel inner checker lands on the identical (unique)
// optimal allocation, with the identical number of checks.
class ParallelAllocationTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParallelAllocationTest, OptimalAllocationIsThreadInvariant) {
  TransactionSet txns = MakeWorkload(GetParam() * 3 + 1);
  OptimalAllocationResult sequential = ComputeOptimalAllocation(txns);
  for (int threads : {2, 0}) {
    CheckOptions options;
    options.num_threads = threads;
    OptimalAllocationResult parallel = ComputeOptimalAllocation(txns, options);
    EXPECT_EQ(sequential.allocation.levels(), parallel.allocation.levels())
        << txns.ToString();
    EXPECT_EQ(sequential.robustness_checks, parallel.robustness_checks);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ParallelAllocationTest,
                         ::testing::Range<uint64_t>(0, 25));

// The closed-form audited counter matches a literal enumeration of the
// canonical scan order.
TEST(TriplesContractTest, ClosedFormMatchesEnumeration) {
  EXPECT_EQ(internal::TriplesWhenRobust(0), 0u);
  EXPECT_EQ(internal::TriplesWhenRobust(1), 0u);
  for (size_t n : {2u, 3u, 5u, 8u}) {
    uint64_t count = 0;
    for (TxnId t1 = 0; t1 < n; ++t1) {
      for (TxnId t2 = 0; t2 < n; ++t2) {
        if (t2 == t1) continue;
        for (TxnId tm = 0; tm < n; ++tm) {
          if (tm == t1) continue;
          ++count;
          EXPECT_EQ(internal::TriplesUpToWitness(n, t1, t2, tm), count)
              << "n=" << n << " (" << t1 << "," << t2 << "," << tm << ")";
        }
      }
    }
    EXPECT_EQ(internal::TriplesWhenRobust(n), count) << "n=" << n;
  }
}

// CheckOptions::cancel: a raised flag strips the verdict at every thread
// count; an unraised flag leaves results bit-identical to the reference.
TEST(CancellationTest, RaisedCancelYieldsNoVerdict) {
  TransactionSet txns = MakeWorkload(7);
  Allocation alloc = Allocation::AllRC(txns.size());
  RobustnessAnalyzer analyzer(txns);
  std::atomic<bool> cancel{true};

  for (int threads : {1, 4}) {
    MetricsRegistry registry;
    CheckOptions options;
    options.num_threads = threads;
    options.metrics = &registry;
    options.cancel = &cancel;
    RobustnessResult result = analyzer.Check(alloc, options);
    EXPECT_TRUE(result.cancelled) << "threads " << threads;
    EXPECT_TRUE(result.robust);
    EXPECT_FALSE(result.counterexample.has_value());
    EXPECT_EQ(result.triples_examined, 0u);
    EXPECT_EQ(registry.counter("analyzer.checks_cancelled").value(), 1u);
    EXPECT_EQ(registry.counter("analyzer.counterexamples_found").value(), 0u);
  }

  cancel.store(false);
  RobustnessResult reference = CheckRobustness(txns, alloc);
  for (int threads : {1, 4}) {
    CheckOptions options;
    options.num_threads = threads;
    options.cancel = &cancel;
    RobustnessResult live = analyzer.Check(alloc, options);
    EXPECT_FALSE(live.cancelled);
    ExpectSameResult(txns, alloc, reference, live, "uncancelled");
  }
}

// A cancelled Algorithm 2 says so and never hands back a non-robust
// allocation: a cancelled check carries no verdict, so it must not be
// read as "robust" and accepted.
TEST(CancellationTest, CancelledAlgorithm2IsFlaggedAndStaysRobust) {
  StatusOr<Workload> workload = MakeNamedWorkload("smallbank:c=4");
  ASSERT_TRUE(workload.ok()) << workload.status();
  const TransactionSet& txns = workload->txns;
  std::atomic<bool> cancel{true};
  for (int threads : {1, 4}) {
    CheckOptions options;
    options.num_threads = threads;
    options.cancel = &cancel;
    OptimalAllocationResult result = ComputeOptimalAllocation(txns, options);
    EXPECT_TRUE(result.cancelled) << "threads " << threads;
    EXPECT_TRUE(CheckRobustness(txns, result.allocation).robust)
        << result.allocation.ToString(txns);

    PromoteOptions promote;
    promote.check = options;
    StatusOr<PromotionPlan> plan = OptimizePromotions(txns, promote);
    ASSERT_TRUE(plan.ok()) << plan.status();
    EXPECT_TRUE(plan->cancelled);
  }
}

// The incremental allocator maintains the same allocation regardless of
// its check options.
TEST(IncrementalParallelTest, MaintainedAllocationIsThreadInvariant) {
  IncrementalAllocator sequential;
  IncrementalAllocator parallel;
  CheckOptions options;
  options.num_threads = 4;
  parallel.set_check_options(options);

  TransactionSet source = MakeWorkload(17);
  for (TxnId t = 0; t < source.size(); ++t) {
    const Transaction& txn = source.txn(t);
    std::vector<Operation> ops(txn.ops().begin(), txn.ops().end() - 1);
    for (IncrementalAllocator* alloc : {&sequential, &parallel}) {
      std::vector<Operation> copy = ops;
      for (Operation& op : copy) {
        op.object = alloc->InternObject(source.ObjectName(op.object));
      }
      ASSERT_TRUE(alloc->AddTransaction(txn.name(), std::move(copy)).ok());
    }
    EXPECT_EQ(sequential.allocation().levels(),
              parallel.allocation().levels());
    EXPECT_EQ(sequential.checks_performed(), parallel.checks_performed());
  }
}

}  // namespace
}  // namespace mvrob
