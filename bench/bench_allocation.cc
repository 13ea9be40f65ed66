// Scaling benchmarks for Algorithm 2 and the {RC, SI} allocator
// (DESIGN.md E9): empirical validation of Theorem 4.3 / Theorem 5.5, with
// the number of robustness checks surfaced as a counter.
#include <benchmark/benchmark.h>

#include "core/incremental.h"
#include "core/optimal_allocation.h"
#include "core/robustness.h"
#include "oracle/reference_checker.h"
#include "workloads/smallbank.h"
#include "workloads/synthetic.h"
#include "workloads/tpcc.h"

namespace mvrob {
namespace {

TransactionSet MakeWorkload(int num_txns, uint64_t seed) {
  SyntheticParams params;
  params.num_txns = num_txns;
  params.num_objects = std::max(4, num_txns);
  params.min_ops = 2;
  params.max_ops = 5;
  params.write_fraction = 0.4;
  params.hotspot_fraction = 0.3;
  params.num_hotspots = 2;
  params.seed = seed;
  return GenerateSynthetic(params);
}

void BM_OptimalAllocation_ScaleTxns(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  TransactionSet txns = MakeWorkload(n, 5);
  uint64_t checks = 0;
  size_t rc = 0, si = 0, ssi = 0;
  for (auto _ : state) {
    OptimalAllocationResult result = ComputeOptimalAllocation(txns);
    checks = result.robustness_checks;
    rc = result.allocation.CountAt(IsolationLevel::kRC);
    si = result.allocation.CountAt(IsolationLevel::kSI);
    ssi = result.allocation.CountAt(IsolationLevel::kSSI);
    benchmark::DoNotOptimize(result);
  }
  state.counters["txns"] = n;
  state.counters["robustness_checks"] = static_cast<double>(checks);
  state.counters["rc"] = static_cast<double>(rc);
  state.counters["si"] = static_cast<double>(si);
  state.counters["ssi"] = static_cast<double>(ssi);
}
BENCHMARK(BM_OptimalAllocation_ScaleTxns)->Arg(4)->Arg(8)->Arg(16)->Arg(32)
    ->Arg(64)->Unit(benchmark::kMillisecond);

// Algorithm 2 with a parallel inner checker: every one of the 2|T|
// robustness checks fans its t1 loop out over the thread pool. range(0) =
// |T|, range(1) = num_threads (the allocation is identical regardless).
void BM_OptimalAllocation_Parallel(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  TransactionSet txns = MakeWorkload(n, 5);
  CheckOptions options;
  options.num_threads = threads;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeOptimalAllocation(txns, options));
  }
  state.counters["txns"] = n;
  state.counters["threads"] = threads;
}
BENCHMARK(BM_OptimalAllocation_Parallel)
    ->Args({32, 1})->Args({32, 2})->Args({32, 4})->Args({32, 8})
    ->Args({64, 1})->Args({64, 2})->Args({64, 4})->Args({64, 8})
    ->Unit(benchmark::kMillisecond);

void BM_RcSiAllocation_ScaleTxns(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  TransactionSet txns = MakeWorkload(n, 5);
  bool allocatable = false;
  for (auto _ : state) {
    OptimalAllocationResult result =
        ComputeOptimalAllocation(RobustnessAnalyzer(txns),
                                 AllocationBounds::RcSi(txns.size()))
            .value();
    allocatable = result.feasible;
    benchmark::DoNotOptimize(result);
  }
  state.counters["allocatable"] = allocatable ? 1 : 0;
}
BENCHMARK(BM_RcSiAllocation_ScaleTxns)->Arg(4)->Arg(8)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMillisecond);

void BM_OptimalAllocation_Tpcc(benchmark::State& state) {
  TpccParams params;
  params.rounds = static_cast<int>(state.range(0));
  Workload tpcc = MakeTpcc(params);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeOptimalAllocation(tpcc.txns));
  }
  state.counters["txns"] = static_cast<double>(tpcc.txns.size());
}
BENCHMARK(BM_OptimalAllocation_Tpcc)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_OptimalAllocation_SmallBank(benchmark::State& state) {
  SmallBankParams params;
  params.customers = static_cast<int>(state.range(0));
  Workload bank = MakeSmallBank(params);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeOptimalAllocation(bank.txns));
  }
  state.counters["txns"] = static_cast<double>(bank.txns.size());
}
BENCHMARK(BM_OptimalAllocation_SmallBank)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// Ablation: Algorithm 2 with the reference checker (no caching) vs the
// analyzer-backed implementation used in production code.
void BM_OptimalAllocation_ReferenceChecker(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  TransactionSet txns = MakeWorkload(n, 5);
  for (auto _ : state) {
    Allocation allocation = Allocation::AllSSI(txns.size());
    for (TxnId t = 0; t < txns.size(); ++t) {
      for (IsolationLevel level :
           {IsolationLevel::kRC, IsolationLevel::kSI}) {
        Allocation candidate = allocation.With(t, level);
        if (CheckRobustness(txns, candidate).robust) {
          allocation = candidate;
          break;
        }
      }
    }
    benchmark::DoNotOptimize(allocation);
  }
}
BENCHMARK(BM_OptimalAllocation_ReferenceChecker)->Arg(8)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMillisecond);

// Incremental maintenance: the cost of keeping the optimum current while a
// workload grows one program at a time, versus recomputing from scratch at
// the end. The checks_performed counter shows the warm-start savings.
void BM_IncrementalAllocator_GrowWorkload(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  TransactionSet txns = MakeWorkload(n, 5);
  uint64_t checks = 0;
  for (auto _ : state) {
    IncrementalAllocator incremental;
    for (size_t o = 0; o < txns.num_objects(); ++o) {
      incremental.InternObject(txns.ObjectName(static_cast<ObjectId>(o)));
    }
    for (TxnId t = 0; t < txns.size(); ++t) {
      const Transaction& txn = txns.txn(t);
      std::vector<Operation> ops(txn.ops().begin(), txn.ops().end() - 1);
      benchmark::DoNotOptimize(
          incremental.AddTransaction(txn.name(), std::move(ops)));
    }
    checks = incremental.checks_performed();
  }
  state.counters["total_checks"] = static_cast<double>(checks);
  state.counters["scratch_equivalent"] =
      static_cast<double>(n) * (static_cast<double>(n) + 1);  // sum 2k.
}
BENCHMARK(BM_IncrementalAllocator_GrowWorkload)->Arg(8)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace mvrob

BENCHMARK_MAIN();
