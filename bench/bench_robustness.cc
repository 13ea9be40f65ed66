// Scaling benchmarks for Algorithm 1 (DESIGN.md E7): validates the PTIME
// claim of Theorem 3.3 empirically by sweeping the number of transactions
// |T|, the operations per transaction (the paper's l), and the contention
// level, for robust and non-robust instances and for all three homogeneous
// allocations plus a mixed one.
#include <benchmark/benchmark.h>

#include "core/analyzer.h"
#include "core/robustness.h"
#include "oracle/reference_checker.h"
#include "workloads/synthetic.h"

namespace mvrob {
namespace {

TransactionSet MakeWorkload(int num_txns, int ops, double hotspot,
                            uint64_t seed) {
  SyntheticParams params;
  params.num_txns = num_txns;
  params.num_objects = std::max(4, num_txns * 2);
  params.min_ops = ops;
  params.max_ops = ops;
  params.write_fraction = 0.4;
  params.hotspot_fraction = hotspot;
  params.num_hotspots = 2;
  params.seed = seed;
  return GenerateSynthetic(params);
}

// A worst-case family for Algorithm 1: every transaction read-modify-
// writes a shared hot object plus `ops` private objects. The hot ww
// conflict makes the set robust against A_SI (vulnerable edges need
// disjoint write sets), so the checker must scan every triple with the
// full operation loops — no early exit.
TransactionSet MakeRmwClique(int num_txns, int ops) {
  TransactionSet set;
  ObjectId hot = set.InternObject("hot");
  for (int t = 0; t < num_txns; ++t) {
    std::vector<Operation> body{Operation::Read(hot), Operation::Write(hot)};
    for (int k = 0; k < ops; ++k) {
      ObjectId obj = set.InternObject("p" + std::to_string(t) + "_" +
                                      std::to_string(k));
      body.push_back(Operation::Read(obj));
      body.push_back(Operation::Write(obj));
    }
    StatusOr<TxnId> id = set.AddTransaction("", std::move(body));
    (void)id;
  }
  return set;
}

Allocation MixedThirds(size_t n) {
  std::vector<IsolationLevel> levels(n);
  for (size_t i = 0; i < n; ++i) levels[i] = kAllIsolationLevels[i % 3];
  return Allocation(std::move(levels));
}

// A scan-heavy *robust* family: half the transactions are writers over
// private object groups, half are readers each reading from `fanout`
// writers. Every reader pair passes the T2-side gate, but no Tm satisfies
// condition (5) — so the per-triple scan over Tm runs in full and finds
// nothing. This is the regime where the legacy analyzer spends O(|T|) per
// pair in the inner loop while the bitset engine reduces each pair to a
// handful of word ANDs over an empty candidate mask.
TransactionSet MakeReadersWriters(int num_txns, int fanout) {
  TransactionSet set;
  const int writers = num_txns / 2;
  const int readers = num_txns - writers;
  for (int w = 0; w < writers; ++w) {
    std::vector<Operation> body;
    for (int k = 0; k < fanout; ++k) {
      body.push_back(Operation::Write(
          set.InternObject("o" + std::to_string(w) + "_" + std::to_string(k))));
    }
    StatusOr<TxnId> id = set.AddTransaction("", std::move(body));
    (void)id;
  }
  for (int r = 0; r < readers; ++r) {
    std::vector<Operation> body;
    for (int k = 0; k < fanout; ++k) {
      int w = (r + k) % writers;
      body.push_back(Operation::Read(
          set.InternObject("o" + std::to_string(w) + "_" + std::to_string(k))));
    }
    StatusOr<TxnId> id = set.AddTransaction("", std::move(body));
    (void)id;
  }
  return set;
}

// Sweep |T| on the worst-case clique (robust: the algorithm scans all
// triples and operation pairs).
void BM_Robustness_ScaleTxns(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  TransactionSet txns = MakeRmwClique(n, 2);
  Allocation alloc = Allocation::AllSI(txns.size());
  uint64_t triples = 0;
  for (auto _ : state) {
    RobustnessResult result = CheckRobustness(txns, alloc);
    triples = result.triples_examined;
    benchmark::DoNotOptimize(result.robust);
  }
  state.counters["txns"] = n;
  state.counters["triples"] = static_cast<double>(triples);
}
BENCHMARK(BM_Robustness_ScaleTxns)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Arg(64)
    ->Arg(128)->Unit(benchmark::kMicrosecond);

// Sweep the transaction size l at fixed |T| on the worst-case clique.
void BM_Robustness_ScaleOpsPerTxn(benchmark::State& state) {
  const int ops = static_cast<int>(state.range(0));
  TransactionSet txns = MakeRmwClique(12, ops / 2);
  Allocation alloc = Allocation::AllSI(txns.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(CheckRobustness(txns, alloc).robust);
  }
  state.counters["ops_per_txn"] = ops;
}
BENCHMARK(BM_Robustness_ScaleOpsPerTxn)->Arg(2)->Arg(4)->Arg(8)->Arg(16)
    ->Arg(32)->Unit(benchmark::kMicrosecond);

// High contention: non-robust instances exit early with a counterexample.
void BM_Robustness_NonRobustEarlyExit(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  TransactionSet txns = MakeWorkload(n, 4, 0.9, 3);
  Allocation alloc = Allocation::AllRC(txns.size());
  bool robust = true;
  for (auto _ : state) {
    RobustnessResult result = CheckRobustness(txns, alloc);
    robust = result.robust;
    benchmark::DoNotOptimize(result);
  }
  state.counters["robust"] = robust ? 1 : 0;
}
BENCHMARK(BM_Robustness_NonRobustEarlyExit)->Arg(8)->Arg(32)->Arg(128)
    ->Unit(benchmark::kMicrosecond);

// The three homogeneous allocations and a mixed allocation on the same
// workload: SSI allocations prune triples via conditions (6)-(8).
void BM_Robustness_ByAllocation(benchmark::State& state) {
  TransactionSet txns = MakeWorkload(24, 4, 0.3, 11);
  Allocation allocs[] = {
      Allocation::AllRC(txns.size()), Allocation::AllSI(txns.size()),
      Allocation::AllSSI(txns.size()), MixedThirds(txns.size())};
  const Allocation& alloc = allocs[state.range(0)];
  for (auto _ : state) {
    benchmark::DoNotOptimize(CheckRobustness(txns, alloc).robust);
  }
}
BENCHMARK(BM_Robustness_ByAllocation)->DenseRange(0, 3)
    ->Unit(benchmark::kMicrosecond);

// Ablation: the matrix-cached analyzer vs the reference checker on the
// worst-case clique (DESIGN.md design-choice: precomputed conflict
// matrices + per-pivot components vs recomputation in the triple loop).
void BM_Analyzer_ScaleTxns(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  TransactionSet txns = MakeRmwClique(n, 2);
  RobustnessAnalyzer analyzer(txns);
  Allocation alloc = Allocation::AllSI(txns.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyzer.Check(alloc).robust);
  }
  state.counters["txns"] = n;
}
BENCHMARK(BM_Analyzer_ScaleTxns)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Arg(64)
    ->Arg(128)->Arg(256)->Arg(512)->Unit(benchmark::kMicrosecond);

// ---- The bitset engine on the RMW clique and readers/writers families.
// (The frozen pre-bitset analyzer these rows were once compared against is
// retired; its numbers stay in EXPERIMENTS.md.)

void BM_BitsetAnalyzer_RmwClique(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  TransactionSet txns = MakeRmwClique(n, 2);
  RobustnessAnalyzer analyzer(txns);
  Allocation alloc = Allocation::AllSI(txns.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyzer.Check(alloc).robust);
  }
  state.counters["txns"] = n;
}
BENCHMARK(BM_BitsetAnalyzer_RmwClique)->Arg(64)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

void BM_BitsetAnalyzer_ReadersWriters(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  TransactionSet txns = MakeReadersWriters(n, 4);
  RobustnessAnalyzer analyzer(txns);
  Allocation alloc = Allocation::AllSI(txns.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyzer.Check(alloc).robust);
  }
  state.counters["txns"] = n;
}
BENCHMARK(BM_BitsetAnalyzer_ReadersWriters)->Arg(64)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

// ---- Sequential-vs-parallel: the bitset engine's t1 loop over the thread
// pool. range(0) = |T|, range(1) = num_threads. On a machine with a single
// core the pool degrades to the sequential path and the curve is flat;
// tools/bench_to_json.sh records whatever the hardware provides.

void BM_ParallelCheck(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  TransactionSet txns = MakeReadersWriters(n, 4);
  RobustnessAnalyzer analyzer(txns);
  Allocation alloc = Allocation::AllSI(txns.size());
  CheckOptions options;
  options.num_threads = threads;
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyzer.Check(alloc, options).robust);
  }
  state.counters["txns"] = n;
  state.counters["threads"] = threads;
}
BENCHMARK(BM_ParallelCheck)
    ->Args({64, 1})->Args({64, 2})->Args({64, 4})->Args({64, 8})
    ->Args({256, 1})->Args({256, 2})->Args({256, 4})->Args({256, 8})
    ->Args({1024, 1})->Args({1024, 2})->Args({1024, 4})->Args({1024, 8})
    ->Unit(benchmark::kMicrosecond);

// Construction cost of the analyzer (amortized over Algorithm 2's 2|T|
// checks).
void BM_Analyzer_Construction(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  TransactionSet txns = MakeRmwClique(n, 2);
  for (auto _ : state) {
    RobustnessAnalyzer analyzer(txns);
    benchmark::DoNotOptimize(&analyzer);
  }
  state.counters["txns"] = n;
}
BENCHMARK(BM_Analyzer_Construction)->Arg(16)->Arg(64)->Arg(128)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace mvrob

BENCHMARK_MAIN();
