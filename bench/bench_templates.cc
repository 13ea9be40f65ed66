// Template subsystem benchmarks: instantiation size versus analysis time,
// the per-program allocations for the shipped template workloads, and the
// allocation-quality outcomes of the v2 predicate/constraint refinement.
//
// BM_Template_ConstraintShowcase attaches the machine-INDEPENDENT outcome
// of the documented showcase as counters (before_weighted under the
// distinct-parameter rule, after_weighted under the declared constraint,
// promotions from the template-granularity promotion search);
// tools/bench_compare.py checks those exactly, so a changed allocation
// cost fails the gate as a behavior change rather than timing noise.
#include <benchmark/benchmark.h>

#include "templates/instantiate.h"
#include "templates/library.h"
#include "templates/predicate.h"
#include "templates/promote.h"
#include "templates/robustness.h"

namespace mvrob {
namespace {

// Weighted cost of a per-template allocation under the default promotion
// weights (RC free, SI 1, SSI 2).
double Weighted(const TemplateAllocation& levels) {
  return static_cast<double>(
      ComputeAllocationCost(Allocation(levels), PromoteOptions{}).weighted);
}

void BM_Template_InstantiateTpcc(benchmark::State& state) {
  TemplateSet tpcc =
      TpccTemplates(1, static_cast<int>(state.range(0)), 2, 2, 1);
  size_t instances = 0;
  for (auto _ : state) {
    StatusOr<Instantiation> inst = InstantiateTemplates(tpcc);
    if (inst.ok()) instances = inst->txns.size();
    benchmark::DoNotOptimize(inst);
  }
  state.counters["instances"] = static_cast<double>(instances);
}
BENCHMARK(BM_Template_InstantiateTpcc)->Arg(1)->Arg(2)->Arg(3)
    ->Unit(benchmark::kMillisecond);

void BM_Template_RobustnessTpcc(benchmark::State& state) {
  TemplateSet tpcc =
      TpccTemplates(1, static_cast<int>(state.range(0)), 2, 2, 1);
  TemplateAllocation all_si(tpcc.size(), IsolationLevel::kSI);
  bool robust = false;
  for (auto _ : state) {
    StatusOr<TemplateAnalysis> analysis = TemplateAnalysis::Build(tpcc);
    if (!analysis.ok()) continue;
    StatusOr<TemplateRobustnessResult> result = analysis->Check(all_si);
    if (result.ok()) robust = result->robust;
    benchmark::DoNotOptimize(result);
  }
  state.counters["robust"] = robust ? 1 : 0;
}
BENCHMARK(BM_Template_RobustnessTpcc)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond);

void BM_Template_OptimalAllocation(benchmark::State& state) {
  TemplateSet set =
      state.range(0) == 0 ? SmallBankTemplates() : AuctionTemplates();
  for (auto _ : state) {
    StatusOr<TemplateAnalysis> analysis = TemplateAnalysis::Build(set);
    if (!analysis.ok()) continue;
    benchmark::DoNotOptimize(ComputeOptimalTemplateAllocation(*analysis));
  }
}
BENCHMARK(BM_Template_OptimalAllocation)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

// The documented "constraint buys a cheaper allocation" case
// (docs/templates.md): under the distinct-parameter rule the showcase
// needs all-SSI (weighted 4); with `constraint Move: src == dst` the
// optimum drops to all-SI (weighted 2); promoting Audit's range read then
// reaches Audit=RC. All three numbers are exact-gated.
void BM_Template_ConstraintShowcase(benchmark::State& state) {
  TemplateSet baseline = ConstraintShowcaseTemplates(false);
  TemplateSet constrained = ConstraintShowcaseTemplates(true);
  TemplateAllocation before_levels;
  TemplateAllocation after_levels;
  size_t promotions = 0;
  for (auto _ : state) {
    StatusOr<TemplateAnalysis> before = TemplateAnalysis::Build(baseline);
    StatusOr<TemplateAnalysis> after = TemplateAnalysis::Build(constrained);
    if (!before.ok() || !after.ok()) continue;
    before_levels = ComputeOptimalTemplateAllocation(*before).levels;
    after_levels = ComputeOptimalTemplateAllocation(*after).levels;
    StatusOr<TemplatePromotionPlan> plan = OptimizeTemplatePromotions(*after);
    if (plan.ok()) promotions = plan->promotions.size();
    benchmark::DoNotOptimize(plan);
  }
  state.counters["before_weighted"] = Weighted(before_levels);
  state.counters["after_weighted"] = Weighted(after_levels);
  state.counters["promotions"] = static_cast<double>(promotions);
}
BENCHMARK(BM_Template_ConstraintShowcase)->Unit(benchmark::kMillisecond);

// Cost of the refined template-pair conflict analysis on the range-scan
// TPC-C flavor, as the item domain (and with it every scan width) grows.
void BM_Template_ScanConflictAnalysis(benchmark::State& state) {
  TemplateSet scan = TpccScanTemplates(static_cast<int>(state.range(0)));
  int conflicting = 0;
  int baseline = 0;
  for (auto _ : state) {
    StatusOr<TemplateConflictAnalysis> analysis =
        AnalyzeTemplateConflicts(scan);
    if (analysis.ok()) {
      conflicting = analysis->conflicting_pairs;
      baseline = analysis->baseline_conflicting_pairs;
    }
    benchmark::DoNotOptimize(analysis);
  }
  state.counters["conflicting_pairs"] = conflicting;
  state.counters["baseline_pairs"] = baseline;
}
BENCHMARK(BM_Template_ScanConflictAnalysis)->Arg(2)->Arg(3)->Arg(4)
    ->Unit(benchmark::kMillisecond);

// End-to-end allocation with predicate reads in the set: the range scan
// expands per instance, and the conflict relation prunes the analyzers.
void BM_Template_ScanAllocation(benchmark::State& state) {
  TemplateSet scan = TpccScanTemplates(static_cast<int>(state.range(0)));
  size_t ssi = 0;
  for (auto _ : state) {
    StatusOr<TemplateAnalysis> analysis = TemplateAnalysis::Build(scan);
    if (!analysis.ok()) continue;
    TemplateAllocationResult result =
        ComputeOptimalTemplateAllocation(*analysis);
    ssi = 0;
    for (IsolationLevel level : result.levels) {
      if (level == IsolationLevel::kSSI) ++ssi;
    }
    benchmark::DoNotOptimize(result);
  }
  state.counters["ssi_templates"] = static_cast<double>(ssi);
}
BENCHMARK(BM_Template_ScanAllocation)->Arg(2)->Arg(3)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace mvrob

BENCHMARK_MAIN();
