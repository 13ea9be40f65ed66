// Baseline comparison (DESIGN.md E13): the specialized homogeneous
// checkers (Fekete-style SI, Vandevoort-style RC) versus the general
// Algorithm 1 at A_SI / A_RC. Both must agree (asserted in tests); here we
// compare their cost.
#include <benchmark/benchmark.h>

#include "baseline/rc_robustness.h"
#include "baseline/si_robustness.h"
#include "core/robustness.h"
#include "oracle/reference_checker.h"
#include "workloads/synthetic.h"

namespace mvrob {
namespace {

TransactionSet MakeWorkload(int num_txns, uint64_t seed) {
  SyntheticParams params;
  params.num_txns = num_txns;
  params.num_objects = std::max(4, num_txns * 2);
  params.min_ops = 3;
  params.max_ops = 5;
  params.write_fraction = 0.4;
  params.hotspot_fraction = 0.2;
  params.num_hotspots = 2;
  params.seed = seed;
  return GenerateSynthetic(params);
}

void BM_SiBaseline(benchmark::State& state) {
  TransactionSet txns = MakeWorkload(static_cast<int>(state.range(0)), 21);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SiRobust(txns));
  }
}
BENCHMARK(BM_SiBaseline)->Arg(8)->Arg(32)->Arg(128)
    ->Unit(benchmark::kMicrosecond);

void BM_Algorithm1AtSi(benchmark::State& state) {
  TransactionSet txns = MakeWorkload(static_cast<int>(state.range(0)), 21);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CheckRobustnessSI(txns).robust);
  }
}
BENCHMARK(BM_Algorithm1AtSi)->Arg(8)->Arg(32)->Arg(128)
    ->Unit(benchmark::kMicrosecond);

void BM_RcBaseline(benchmark::State& state) {
  TransactionSet txns = MakeWorkload(static_cast<int>(state.range(0)), 22);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RcRobust(txns));
  }
}
BENCHMARK(BM_RcBaseline)->Arg(8)->Arg(32)->Arg(128)
    ->Unit(benchmark::kMicrosecond);

void BM_Algorithm1AtRc(benchmark::State& state) {
  TransactionSet txns = MakeWorkload(static_cast<int>(state.range(0)), 22);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CheckRobustnessRC(txns).robust);
  }
}
BENCHMARK(BM_Algorithm1AtRc)->Arg(8)->Arg(32)->Arg(128)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace mvrob

BENCHMARK_MAIN();
