// Promotion benchmarks (DESIGN.md E21): what read promotion buys and what
// it costs, on the bundled workload families.
//
// Two families of numbers:
//
//  - BM_OptimizePromotions/* times the promotion search itself (greedy
//    frontier + exhaustive fallback) and reports the machine-INDEPENDENT
//    outcome as counters: weighted allocation cost before and after, the
//    number of promotions committed, and the search's effort (Algorithm 2
//    runs and robustness checks). tools/bench_compare.py checks these
//    counters exactly — a changed cost or effort is a behavior change,
//    not noise.
//
//  - BM_Throughput/* runs the MVCC engine and compares the promoted
//    workload under its optimized (cheaper) allocation against the
//    unpromoted workload under A_SSI — the safe allocation one would pick
//    without the search. Promotions trade first-updater-wins aborts on
//    the promoted rows for freedom from SSI dangerous-structure aborts.
#include <benchmark/benchmark.h>

#include <string>

#include "core/optimal_allocation.h"
#include "mvcc/driver.h"
#include "mvcc/engine.h"
#include "promote/optimizer.h"
#include "workloads/registry.h"
#include "workloads/workload.h"

namespace mvrob {
namespace {

TransactionSet LoadWorkload(const std::string& spec) {
  StatusOr<Workload> workload = MakeNamedWorkload(spec);
  if (!workload.ok()) {
    std::abort();  // Bundled specs; a parse failure is a build bug.
  }
  return std::move(workload->txns);
}

// --------------------------------------------------------------------------
// Search cost and outcome.
// --------------------------------------------------------------------------

void BM_OptimizePromotions(benchmark::State& state, const char* spec) {
  TransactionSet txns = LoadWorkload(spec);
  PromotionPlan last;
  for (auto _ : state) {
    StatusOr<PromotionPlan> plan = OptimizePromotions(txns);
    if (!plan.ok()) state.SkipWithError(plan.status().ToString().c_str());
    last = *std::move(plan);
    benchmark::DoNotOptimize(last.improved);
  }
  state.counters["before_weighted"] =
      static_cast<double>(last.before_cost.weighted);
  state.counters["after_weighted"] =
      static_cast<double>(last.after_cost.weighted);
  state.counters["promotions"] = static_cast<double>(last.promotions.size());
  state.counters["allocations_computed"] =
      static_cast<double>(last.allocations_computed);
  state.counters["robustness_checks"] =
      static_cast<double>(last.robustness_checks);
}
BENCHMARK_CAPTURE(BM_OptimizePromotions, smallbank, "smallbank:c=2")
    ->Unit(benchmark::kMillisecond);
// The promotion stage of perfbench's analyze_smallbank workload.
BENCHMARK_CAPTURE(BM_OptimizePromotions, smallbank_c6, "smallbank:c=6")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_OptimizePromotions, tpcc, "tpcc:w=1,d=2")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_OptimizePromotions, auction, "auction:i=2,b=2")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_OptimizePromotions, voter, "voter:c=2,p=2")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_OptimizePromotions, synthetic,
                  "synthetic:n=8,o=6,w=40,h=30,seed=3")
    ->Unit(benchmark::kMillisecond);

// --------------------------------------------------------------------------
// Engine throughput: promoted-cheap vs unpromoted-SSI.
// --------------------------------------------------------------------------

struct ThroughputOutcome {
  uint64_t committed = 0;
  uint64_t retries = 0;
  uint64_t fuw_aborts = 0;
  uint64_t ssi_aborts = 0;
};

ThroughputOutcome RunOnce(const TransactionSet& programs,
                          const Allocation& alloc, uint64_t seed) {
  Engine engine(programs.num_objects());
  RandomRunOptions options;
  options.concurrency = 8;
  options.max_retries = 5;
  options.seed = seed;
  DriverReport report = RunRandom(engine, programs, alloc, options);
  ThroughputOutcome outcome;
  outcome.committed = report.committed;
  outcome.retries = report.attempts - report.committed -
                    report.aborted_programs;
  outcome.fuw_aborts = engine.stats().aborts_write_conflict;
  outcome.ssi_aborts = engine.stats().aborts_ssi;
  return outcome;
}

void ReportThroughput(benchmark::State& state, const ThroughputOutcome& total,
                      size_t programs) {
  const double iters = static_cast<double>(state.iterations());
  state.counters["commits_per_run"] =
      static_cast<double>(total.committed) / iters;
  state.counters["retries_per_run"] =
      static_cast<double>(total.retries) / iters;
  state.counters["fuw_aborts_per_run"] =
      static_cast<double>(total.fuw_aborts) / iters;
  state.counters["ssi_aborts_per_run"] =
      static_cast<double>(total.ssi_aborts) / iters;
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(programs));
}

// The payoff side: the promoted workload under the cheaper allocation the
// search unlocked.
void BM_Throughput_Promoted(benchmark::State& state, const char* spec) {
  TransactionSet txns = LoadWorkload(spec);
  StatusOr<PromotionPlan> plan = OptimizePromotions(txns);
  if (!plan.ok()) {
    state.SkipWithError(plan.status().ToString().c_str());
    return;
  }
  ThroughputOutcome total;
  uint64_t seed = 17;
  for (auto _ : state) {
    ThroughputOutcome one =
        RunOnce(plan->promoted, plan->after_allocation, seed++);
    total.committed += one.committed;
    total.retries += one.retries;
    total.fuw_aborts += one.fuw_aborts;
    total.ssi_aborts += one.ssi_aborts;
  }
  ReportThroughput(state, total, plan->promoted.size());
}

// The baseline side: the unpromoted workload under all-SSI, the safe
// choice absent the search.
void BM_Throughput_UnpromotedSsi(benchmark::State& state, const char* spec) {
  TransactionSet txns = LoadWorkload(spec);
  ThroughputOutcome total;
  uint64_t seed = 17;
  for (auto _ : state) {
    ThroughputOutcome one =
        RunOnce(txns, Allocation::AllSSI(txns.size()), seed++);
    total.committed += one.committed;
    total.retries += one.retries;
    total.fuw_aborts += one.fuw_aborts;
    total.ssi_aborts += one.ssi_aborts;
  }
  ReportThroughput(state, total, txns.size());
}

#define MVROB_THROUGHPUT_PAIR(name, spec)                             \
  BENCHMARK_CAPTURE(BM_Throughput_Promoted, name, spec)               \
      ->Unit(benchmark::kMillisecond);                                \
  BENCHMARK_CAPTURE(BM_Throughput_UnpromotedSsi, name, spec)          \
      ->Unit(benchmark::kMillisecond)

MVROB_THROUGHPUT_PAIR(smallbank, "smallbank:c=2");
MVROB_THROUGHPUT_PAIR(tpcc, "tpcc:w=1,d=2");
MVROB_THROUGHPUT_PAIR(auction, "auction:i=2,b=2");
MVROB_THROUGHPUT_PAIR(voter, "voter:c=2,p=2");
MVROB_THROUGHPUT_PAIR(synthetic, "synthetic:n=8,o=6,w=40,h=30,seed=3");

#undef MVROB_THROUGHPUT_PAIR

}  // namespace
}  // namespace mvrob

BENCHMARK_MAIN();
