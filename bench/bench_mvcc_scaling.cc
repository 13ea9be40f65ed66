// Throughput-vs-cores curves for the many-core MVCC engine (EXPERIMENTS.md
// E22): committed transactions per second as the worker count sweeps
// 1/2/4/8, per allocation (A_RC, A_SI, A_SSI, mixed) and contention level
// (uniform vs theta=0.99 Zipfian YCSB).
//
// Each iteration executes a fixed step budget through RunConcurrent on a
// fresh engine, so real_time per iteration is the scaling signal
// (UseRealTime: the workers are internal threads). The rows feed
// tools/bench_compare.py, which groups them by the /threads:N name suffix
// and gates the speedup curve against bench/baselines/.
#include <benchmark/benchmark.h>

#include <optional>

#include "common/log.h"
#include "common/profiler.h"
#include "common/status.h"
#include "iso/allocation.h"
#include "mvcc/concurrent_engine.h"
#include "mvcc/driver.h"
#include "mvcc/txn_trace.h"
#include "workloads/registry.h"

namespace mvrob {
namespace {

// Steps per iteration: enough commits (~10k at 6 steps/txn) for a stable
// rate, small enough that the sweep stays CI-friendly.
constexpr uint64_t kStepsPerIteration = 65'536;

Allocation MixedThirds(size_t n) {
  std::vector<IsolationLevel> levels(n);
  for (size_t i = 0; i < n; ++i) {
    levels[i] = kAllIsolationLevels[i % kAllIsolationLevels.size()];
  }
  return Allocation(std::move(levels));
}

void BM_MvccScaling(benchmark::State& state, const char* spec,
                    Allocation (*make_alloc)(size_t)) {
  StatusOr<Workload> workload = MakeNamedWorkload(spec);
  if (!workload.ok()) {
    state.SkipWithError(workload.status().ToString().c_str());
    return;
  }
  const TransactionSet& txns = workload->txns;
  const Allocation alloc = make_alloc(txns.size());
  const size_t threads = static_cast<size_t>(state.range(0));

  uint64_t committed = 0;
  uint64_t attempts = 0;
  for (auto _ : state) {
    ConcurrentEngine engine(txns.num_objects(), threads);
    RandomRunOptions options;
    options.seed = 42;
    options.continuous = true;
    options.max_steps = kStepsPerIteration;
    DriverReport report = RunConcurrent(engine, txns, alloc, options);
    committed += report.committed;
    attempts += report.attempts;
  }
  state.SetItemsProcessed(static_cast<int64_t>(committed));
  state.counters["commits_per_sec"] = benchmark::Counter(
      static_cast<double>(committed), benchmark::Counter::kIsRate);
  state.counters["abort_rate"] =
      attempts > 0 ? 1.0 - static_cast<double>(committed) /
                               static_cast<double>(attempts)
                   : 0.0;
}

// Low contention: uniform key choice over a key space much larger than
// the worker count, so shards rarely collide. High contention: classic
// YCSB hot spots (theta=0.99) over few keys.
constexpr const char* kLow = "ycsb:a,n=64,k=1024,theta=0,seed=1";
constexpr const char* kHigh = "ycsb:a,n=64,k=64,theta=0.99,seed=1";

#define MVROB_SCALING_BENCH(name, spec, alloc)                      \
  BENCHMARK_CAPTURE(BM_MvccScaling, name, spec, alloc)              \
      ->ArgName("threads")                                          \
      ->Arg(1)                                                      \
      ->Arg(2)                                                      \
      ->Arg(4)                                                      \
      ->Arg(8)                                                      \
      ->UseRealTime()

MVROB_SCALING_BENCH(RC_low, kLow, Allocation::AllRC);
MVROB_SCALING_BENCH(SI_low, kLow, Allocation::AllSI);
MVROB_SCALING_BENCH(SSI_low, kLow, Allocation::AllSSI);
MVROB_SCALING_BENCH(MIX_low, kLow, MixedThirds);
MVROB_SCALING_BENCH(RC_high, kHigh, Allocation::AllRC);
MVROB_SCALING_BENCH(SI_high, kHigh, Allocation::AllSI);
MVROB_SCALING_BENCH(SSI_high, kHigh, Allocation::AllSSI);
MVROB_SCALING_BENCH(MIX_high, kHigh, MixedThirds);

// Tracer-overhead guard (txn_trace.h): the deterministic driver on the
// high-contention workload with the tracer detached (sample:0 — the
// null-pointer fast path every untraced run takes), tracing every 16th
// transaction (the documented serve setting), and tracing everything
// (sample:1, worst case). sample:0 rides the same bench gate as the
// scaling rows, so a cost leak onto the disabled path is a regression
// the gate catches; the sampled rows quantify the opt-in overhead.
void BM_MvccTracing(benchmark::State& state) {
  StatusOr<Workload> workload = MakeNamedWorkload(kHigh);
  if (!workload.ok()) {
    state.SkipWithError(workload.status().ToString().c_str());
    return;
  }
  const TransactionSet& txns = workload->txns;
  const Allocation alloc = Allocation::AllSI(txns.size());
  const uint64_t sample = static_cast<uint64_t>(state.range(0));

  uint64_t committed = 0;
  uint64_t attributed = 0;
  for (auto _ : state) {
    std::optional<TxnTracer> tracer;
    if (sample > 0) {
      TxnTracerOptions tracer_options;
      tracer_options.sample_every_n = sample;
      tracer.emplace(tracer_options);
    }
    TxnTracer* tracer_ptr = tracer.has_value() ? &*tracer : nullptr;
    EngineOptions engine_options;
    engine_options.tracer = tracer_ptr;
    Engine engine(txns.num_objects(), engine_options);
    RandomRunOptions options;
    options.seed = 42;
    options.continuous = true;
    options.max_steps = kStepsPerIteration;
    options.tracer = tracer_ptr;
    DriverReport report = RunRandom(engine, txns, alloc, options);
    committed += report.committed;
    if (tracer_ptr != nullptr) attributed += tracer_ptr->aborts_attributed();
  }
  state.SetItemsProcessed(static_cast<int64_t>(committed));
  state.counters["commits_per_sec"] = benchmark::Counter(
      static_cast<double>(committed), benchmark::Counter::kIsRate);
  state.counters["aborts_attributed"] =
      static_cast<double>(attributed);
}

BENCHMARK(BM_MvccTracing)->ArgName("sample")->Arg(0)->Arg(16)->Arg(1);

// Profiler-overhead guard (common/profiler.h): the same deterministic run
// with the sampling profiler detached (hz:0 — the zero-cost path every
// unprofiled run takes) versus attached at the serve default (hz:97) and
// a deliberately hot rate (hz:997). hz:0 rides the bench gate, so any
// cost leaking onto the detached path is a regression the gate catches;
// the sampled rows bound the signal-delivery overhead of live profiling.
void BM_ProfilerOverhead(benchmark::State& state) {
  StatusOr<Workload> workload = MakeNamedWorkload(kHigh);
  if (!workload.ok()) {
    state.SkipWithError(workload.status().ToString().c_str());
    return;
  }
  const TransactionSet& txns = workload->txns;
  const Allocation alloc = Allocation::AllSI(txns.size());
  const int hz = static_cast<int>(state.range(0));

  ProfiledThreadScope scope("bench.profiler_overhead");
  if (hz > 0) {
    ProfilerOptions profile_options;
    profile_options.hz = hz;
    Status started = Profiler::Start(profile_options);
    if (!started.ok()) {
      state.SkipWithError(started.ToString().c_str());
      return;
    }
  }
  uint64_t committed = 0;
  for (auto _ : state) {
    Engine engine(txns.num_objects());
    RandomRunOptions options;
    options.seed = 42;
    options.continuous = true;
    options.max_steps = kStepsPerIteration;
    DriverReport report = RunRandom(engine, txns, alloc, options);
    committed += report.committed;
  }
  if (hz > 0) Profiler::Stop();
  state.SetItemsProcessed(static_cast<int64_t>(committed));
  state.counters["commits_per_sec"] = benchmark::Counter(
      static_cast<double>(committed), benchmark::Counter::kIsRate);
  state.counters["samples"] =
      static_cast<double>(Profiler::samples_total());
}

BENCHMARK(BM_ProfilerOverhead)->ArgName("hz")->Arg(0)->Arg(97)->Arg(997);

}  // namespace
}  // namespace mvrob

int main(int argc, char** argv) {
  // Epoch GC logs one info line per reclamation — noise at bench volume.
  mvrob::GlobalLogger().set_min_level(mvrob::LogLevel::kWarn);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
