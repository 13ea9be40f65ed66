#include "templates/robustness.h"

#include <memory>

#include "common/string_util.h"
#include "core/analyzer.h"
#include "templates/predicate.h"

namespace mvrob {
namespace {

Allocation InstanceAllocation(const Instantiation& instantiation,
                              const TemplateAllocation& levels) {
  std::vector<IsolationLevel> instance_levels;
  instance_levels.reserve(instantiation.txns.size());
  for (int tmpl : instantiation.template_of_txn) {
    instance_levels.push_back(levels[tmpl]);
  }
  return Allocation(std::move(instance_levels));
}

// Everything the world-quantified checks share: the per-world
// instantiations, the refined template-pair conflict relation, and one
// pruned analyzer per world. This is where the template-level precision
// reaches the core kernels: the refined relation masks the analyzer's
// pair scans, and every mixed-iso-graph built during witness recovery
// shares the masked conflict matrix.
struct TemplateAnalysis {
  std::vector<WorldInstantiation> worlds;
  std::optional<TemplateConflictAnalysis> conflicts;
  std::vector<std::unique_ptr<RobustnessAnalyzer>> analyzers;
};

StatusOr<TemplateAnalysis> BuildTemplateAnalysis(
    const TemplateSet& set, const InstantiationOptions& options) {
  TemplateAnalysis analysis;
  StatusOr<std::vector<WorldInstantiation>> worlds =
      InstantiateAllWorlds(set, options);
  if (!worlds.ok()) return worlds.status();
  analysis.worlds = std::move(worlds).value();
  // The refined relation is a pure accelerator here; if its enumeration
  // budget is exceeded the analyzers simply run unpruned.
  StatusOr<TemplateConflictAnalysis> conflicts =
      AnalyzeTemplateConflicts(set, options);
  if (conflicts.ok()) analysis.conflicts = std::move(conflicts).value();
  for (const WorldInstantiation& world : analysis.worlds) {
    ConflictPruner pruner;
    if (analysis.conflicts.has_value()) {
      pruner.group_conflicts = &analysis.conflicts->pair_conflicts;
      pruner.group_of_txn = &world.instantiation.template_of_txn;
    }
    analysis.analyzers.push_back(std::make_unique<RobustnessAnalyzer>(
        world.instantiation.txns, pruner, nullptr));
  }
  return analysis;
}

// True when `levels` keeps every world robust; otherwise reports the
// first failing world. A non-null `base` must be robust in every world;
// each world is then checked by delta against it.
bool RobustInAllWorlds(const TemplateAnalysis& analysis,
                       const TemplateAllocation& levels,
                       const TemplateAllocation* base,
                       uint64_t* robustness_checks,
                       size_t* failing_world = nullptr,
                       std::optional<CounterexampleChain>* chain = nullptr) {
  for (size_t w = 0; w < analysis.worlds.size(); ++w) {
    if (robustness_checks != nullptr) ++*robustness_checks;
    const Instantiation& inst = analysis.worlds[w].instantiation;
    const RobustnessAnalyzer& analyzer = *analysis.analyzers[w];
    Allocation alloc = InstanceAllocation(inst, levels);
    RobustnessResult result =
        base == nullptr
            ? analyzer.Check(alloc)
            : analyzer.CheckDelta(InstanceAllocation(inst, *base), alloc);
    if (!result.robust) {
      if (failing_world != nullptr) *failing_world = w;
      if (chain != nullptr) *chain = std::move(result.counterexample);
      return false;
    }
  }
  return true;
}

}  // namespace

StatusOr<TemplateRobustnessResult> CheckTemplateRobustness(
    const TemplateSet& set, const TemplateAllocation& levels,
    const InstantiationOptions& options) {
  if (levels.size() != set.size()) {
    return Status::InvalidArgument(
        StrCat("allocation has ", levels.size(), " levels for ", set.size(),
               " templates"));
  }
  StatusOr<TemplateAnalysis> analysis = BuildTemplateAnalysis(set, options);
  if (!analysis.ok()) return analysis.status();

  TemplateRobustnessResult result;
  result.worlds_checked = analysis->worlds.size();
  size_t failing_world = 0;
  std::optional<CounterexampleChain> chain;
  result.robust = RobustInAllWorlds(*analysis, levels, nullptr, nullptr,
                                    &failing_world, &chain);
  if (result.robust) {
    result.instantiation = std::move(analysis->worlds.front().instantiation);
  } else {
    result.counterexample = std::move(chain);
    result.world = analysis->worlds[failing_world].world.name;
    result.instantiation =
        std::move(analysis->worlds[failing_world].instantiation);
  }
  return result;
}

StatusOr<TemplateAllocationResult> ComputeOptimalTemplateAllocation(
    const TemplateSet& set, const InstantiationOptions& options) {
  StatusOr<TemplateAnalysis> analysis = BuildTemplateAnalysis(set, options);
  if (!analysis.ok()) return analysis.status();

  TemplateAllocationResult result;
  result.worlds = analysis->worlds.size();
  result.levels.assign(set.size(), IsolationLevel::kSSI);
  for (size_t t = 0; t < set.size(); ++t) {
    for (IsolationLevel level : {IsolationLevel::kRC, IsolationLevel::kSI}) {
      TemplateAllocation candidate = result.levels;
      candidate[t] = level;
      if (RobustInAllWorlds(*analysis, candidate, &result.levels,
                            &result.robustness_checks)) {
        result.levels = std::move(candidate);
        break;
      }
    }
  }
  return result;
}

StatusOr<RcSiTemplateAllocationResult> ComputeOptimalRcSiTemplateAllocation(
    const TemplateSet& set, const InstantiationOptions& options) {
  StatusOr<TemplateAnalysis> analysis = BuildTemplateAnalysis(set, options);
  if (!analysis.ok()) return analysis.status();

  RcSiTemplateAllocationResult result;
  TemplateAllocation all_si(set.size(), IsolationLevel::kSI);
  size_t failing_world = 0;
  std::optional<CounterexampleChain> chain;
  if (!RobustInAllWorlds(*analysis, all_si, nullptr, nullptr, &failing_world,
                         &chain)) {
    result.allocatable = false;
    result.counterexample = std::move(chain);
    result.world = analysis->worlds[failing_world].world.name;
    result.instantiation =
        std::move(analysis->worlds[failing_world].instantiation);
    return result;
  }
  result.allocatable = true;
  result.instantiation = analysis->worlds.front().instantiation;
  TemplateAllocation levels = all_si;
  for (size_t t = 0; t < set.size(); ++t) {
    TemplateAllocation candidate = levels;
    candidate[t] = IsolationLevel::kRC;
    if (RobustInAllWorlds(*analysis, candidate, &levels, nullptr)) {
      levels = std::move(candidate);
    }
  }
  result.levels = std::move(levels);
  return result;
}

std::string TemplateExplanation::ToString(const TemplateSet& set) const {
  std::string out;
  for (const TemplateObstacle& entry : per_template) {
    out += StrCat(set.tmpl(entry.tmpl).name(), " = ",
                  IsolationLevelToString(entry.assigned), "\n");
    if (entry.obstacles.empty() && entry.assigned != IsolationLevel::kRC) {
      out += "  (could be lowered: the allocation is not optimal)\n";
    }
    for (const TemplateObstacle::Entry& obstacle : entry.obstacles) {
      out += StrCat(
          "  not ", IsolationLevelToString(obstacle.attempted), ": ",
          obstacle.chain.ToString(
              world_instantiations[obstacle.world_index].txns));
      if (!obstacle.world.empty()) {
        out += StrCat(" [world ", obstacle.world, "]");
      }
      out += "\n";
    }
  }
  return out;
}

StatusOr<TemplateExplanation> ExplainTemplateAllocation(
    const TemplateSet& set, const TemplateAllocation& levels,
    const InstantiationOptions& options) {
  if (levels.size() != set.size()) {
    return Status::InvalidArgument("allocation size mismatch");
  }
  StatusOr<TemplateAnalysis> analysis = BuildTemplateAnalysis(set, options);
  if (!analysis.ok()) return analysis.status();

  TemplateExplanation explanation;
  explanation.levels = levels;
  if (!RobustInAllWorlds(*analysis, levels, nullptr, nullptr)) {
    return Status::FailedPrecondition(
        "the template allocation is not robust; nothing to explain");
  }
  for (size_t t = 0; t < set.size(); ++t) {
    TemplateObstacle entry;
    entry.tmpl = t;
    entry.assigned = levels[t];
    for (IsolationLevel lower : kAllIsolationLevels) {
      if (!(lower < entry.assigned)) continue;
      TemplateAllocation candidate = levels;
      candidate[t] = lower;
      size_t failing_world = 0;
      std::optional<CounterexampleChain> chain;
      if (!RobustInAllWorlds(*analysis, candidate, &levels, nullptr,
                             &failing_world, &chain)) {
        entry.obstacles.push_back(TemplateObstacle::Entry{
            lower, std::move(*chain), failing_world,
            analysis->worlds[failing_world].world.name});
      }
    }
    explanation.per_template.push_back(std::move(entry));
  }
  for (WorldInstantiation& world : analysis->worlds) {
    explanation.world_instantiations.push_back(
        std::move(world.instantiation));
  }
  explanation.instantiation = explanation.world_instantiations.front();
  return explanation;
}

std::string FormatTemplateAllocation(const TemplateSet& set,
                                     const TemplateAllocation& levels) {
  std::vector<std::string> parts;
  for (size_t t = 0; t < set.size(); ++t) {
    parts.push_back(
        StrCat(set.tmpl(t).name(), "=", IsolationLevelToString(levels[t])));
  }
  return Join(parts, " ");
}

}  // namespace mvrob
