#include "templates/robustness.h"

#include "common/metrics.h"
#include "common/string_util.h"

namespace mvrob {

StatusOr<TemplateAnalysis> TemplateAnalysis::Build(
    const TemplateSet& set, const InstantiationOptions& options,
    const CheckOptions& check) {
  auto shared = std::make_shared<Shared>();
  shared->set = set;
  shared->check = check;
  StatusOr<std::vector<WorldInstantiation>> worlds =
      InstantiateAllWorlds(set, options);
  if (!worlds.ok()) return worlds.status();
  shared->worlds = std::move(worlds).value();
  StatusOr<TemplateConflictAnalysis> conflicts =
      AnalyzeTemplateConflicts(set, options);
  if (conflicts.ok()) shared->conflicts = std::move(conflicts).value();

  TemplateAnalysis analysis;
  for (const WorldInstantiation& world : shared->worlds) {
    const Instantiation& inst = world.instantiation;
    std::vector<std::vector<TxnId>>& instances =
        shared->instances.emplace_back(set.size());
    for (TxnId i = 0; i < inst.txns.size(); ++i) {
      instances[inst.template_of_txn[i]].push_back(i);
    }
    analysis.analyzers_.push_back(
        std::make_unique<RobustnessAnalyzer>(inst.txns, check.metrics));
  }
  analysis.shared_ = std::move(shared);
  return analysis;
}

StatusOr<TemplateAnalysis> TemplateAnalysis::Promote(
    const std::vector<TemplatePromotion>& promotions) const {
  TemplateAnalysis promoted;
  promoted.shared_ = shared_;
  promoted.rewrites_.reserve(num_worlds());
  for (const WorldInstantiation& world : shared_->worlds) {
    const Instantiation& inst = world.instantiation;
    PromotionSet instance_promotions;
    for (TxnId i = 0; i < inst.txns.size(); ++i) {
      const std::vector<int>& op_map = inst.template_op_of_op[i];
      for (const TemplatePromotion& promotion : promotions) {
        if (static_cast<int>(promotion.tmpl) != inst.template_of_txn[i]) {
          continue;
        }
        for (size_t k = 0; k < op_map.size(); ++k) {
          if (op_map[k] != promotion.op) continue;
          OpRef ref{i, static_cast<int32_t>(k)};
          if (IsPromotableRead(inst.txns, ref)) instance_promotions.Add(ref);
        }
      }
    }
    StatusOr<PromotionRewrite> rewrite =
        ApplyPromotions(inst.txns, instance_promotions);
    if (!rewrite.ok()) return rewrite.status();
    promoted.rewrites_.push_back(std::move(rewrite).value());
  }
  for (const PromotionRewrite& rewrite : promoted.rewrites_) {
    promoted.analyzers_.push_back(std::make_unique<RobustnessAnalyzer>(
        rewrite.promoted, shared_->check.metrics));
  }
  return promoted;
}

const TransactionSet& TemplateAnalysis::txns(size_t w) const {
  return rewrites_.empty() ? instantiation(w).txns : rewrites_[w].promoted;
}

Allocation TemplateAnalysis::InstanceAllocation(
    size_t w, const TemplateAllocation& levels) const {
  const std::vector<int>& template_of_txn = instantiation(w).template_of_txn;
  std::vector<IsolationLevel> instance_levels;
  instance_levels.reserve(template_of_txn.size());
  for (int tmpl : template_of_txn) instance_levels.push_back(levels[tmpl]);
  return Allocation(std::move(instance_levels));
}

std::optional<TemplatePromotion> TemplateAnalysis::TemplateOpOf(
    size_t w, OpRef ref) const {
  if (!rewrites_.empty()) {
    std::optional<OpRef> base = rewrites_[w].OriginalRef(ref);
    if (!base.has_value()) return std::nullopt;
    ref = *base;
  }
  const Instantiation& inst = instantiation(w);
  const std::vector<int>& op_map = inst.template_op_of_op[ref.txn];
  if (ref.index < 0 || static_cast<size_t>(ref.index) >= op_map.size()) {
    return std::nullopt;
  }
  return TemplatePromotion{static_cast<size_t>(inst.template_of_txn[ref.txn]),
                           op_map[ref.index]};
}

namespace {

Status CheckLevels(const TemplateAllocation& levels, size_t templates) {
  if (levels.size() == templates) return Status::Ok();
  return Status::InvalidArgument(StrCat("allocation has ", levels.size(),
                                        " levels for ", templates,
                                        " templates"));
}

// Records one world's verdict; true when the loop over worlds stops.
bool Stops(RobustnessResult world, size_t w, TemplateRobustnessResult& out) {
  ++out.checks;
  if (!world.cancelled && world.robust) return false;
  out.robust = false;
  out.cancelled = world.cancelled;
  out.world = w;
  out.counterexample = std::move(world.counterexample);
  return true;
}

}  // namespace

StatusOr<TemplateRobustnessResult> TemplateAnalysis::Check(
    const TemplateAllocation& levels) const {
  Status valid = CheckLevels(levels, num_templates());
  if (!valid.ok()) return valid;
  TemplateRobustnessResult result;
  for (size_t w = 0; w < num_worlds(); ++w) {
    if (Stops(analyzers_[w]->Check(InstanceAllocation(w, levels),
                                   shared_->check),
              w, result)) {
      break;
    }
  }
  return result;
}

StatusOr<std::vector<DeltaBase>> TemplateAnalysis::PrepareDelta(
    const TemplateAllocation& levels) const {
  Status valid = CheckLevels(levels, num_templates());
  if (!valid.ok()) return valid;
  std::vector<DeltaBase> bases;
  bases.reserve(num_worlds());
  for (size_t w = 0; w < num_worlds(); ++w) {
    bases.emplace_back(InstanceAllocation(w, levels));
  }
  return bases;
}

TemplateRobustnessResult TemplateAnalysis::CheckDelta(
    std::vector<DeltaBase>& base, size_t tmpl, IsolationLevel level) const {
  TemplateRobustnessResult result;
  std::vector<LevelChange> changes;
  for (size_t w = 0; w < num_worlds(); ++w) {
    changes.clear();
    for (TxnId i : shared_->instances[w][tmpl]) {
      changes.push_back(LevelChange{i, level});
    }
    if (Stops(analyzers_[w]->CheckDelta(base[w], changes,
                                        shared_->check),
              w, result)) {
      break;
    }
  }
  return result;
}

StatusOr<TemplateAllocationResult> ComputeOptimalTemplateAllocation(
    const TemplateAnalysis& analysis, const AllocationBounds& bounds,
    const TemplateBlockedSink& on_blocked) {
  const TemplateSet& set = analysis.set();
  Status valid = ValidateBounds(bounds, set.size(), [&](size_t t) {
    return set.tmpl(t).name();
  });
  if (!valid.ok()) return valid;

  MetricsRegistry* metrics = analysis.check_options().metrics;
  PhaseTimer timer(metrics, "allocation.algorithm2");
  TemplateAllocationResult result;
  const TemplateAllocation& top = bounds.max_level;
  result.feasible = true;
  if (top != TemplateAllocation(set.size(), IsolationLevel::kSSI)) {
    TemplateRobustnessResult at_top = *analysis.Check(top);
    result.robustness_checks += at_top.checks;
    result.cancelled = at_top.cancelled;
    result.feasible = at_top.robust;
    result.world = at_top.world;
    result.counterexample = std::move(at_top.counterexample);
  }
  uint64_t levels_tried = 0;
  if (result.feasible) {
    std::vector<DeltaBase> base = *analysis.PrepareDelta(top);
    LoweringResult lowered = LowerToOptimum(
        Allocation(top), bounds.min_level,
        [&](TxnId tmpl, IsolationLevel level) {
          TemplateRobustnessResult check =
              analysis.CheckDelta(base, tmpl, level);
          result.robustness_checks += check.checks;
          if (check.cancelled) return ProbeVerdict::kCancelled;
          if (check.robust) return ProbeVerdict::kRobust;
          if (on_blocked) on_blocked(check);
          return ProbeVerdict::kNotRobust;
        });
    result.levels = lowered.allocation.levels();
    result.cancelled = lowered.cancelled;
    levels_tried = lowered.probes;
  }
  if (metrics != nullptr) {
    metrics->counter("allocation.runs").Increment();
    metrics->counter("allocation.robustness_checks")
        .Add(result.robustness_checks);
    metrics->counter("allocation.lattice_levels_tried").Add(levels_tried);
  }
  return result;
}

TemplateAllocationResult ComputeOptimalTemplateAllocation(
    const TemplateAnalysis& analysis) {
  // Free bounds are well formed and their top, all-SSI, is never checked.
  return ComputeOptimalTemplateAllocation(
             analysis, AllocationBounds::Free(analysis.num_templates()))
      .value();
}

std::string TemplateExplanation::ToString(
    const TemplateAnalysis& analysis) const {
  std::string out;
  for (const TemplateObstacle& entry : per_template) {
    out += StrCat(analysis.set().tmpl(entry.tmpl).name(), " = ",
                  IsolationLevelToString(entry.assigned), "\n");
    if (entry.obstacles.empty() && entry.assigned != IsolationLevel::kRC) {
      out += "  (could be lowered: the allocation is not optimal)\n";
    }
    for (const TemplateObstacle::Entry& obstacle : entry.obstacles) {
      out += StrCat("  not ", IsolationLevelToString(obstacle.attempted),
                    ": ", obstacle.chain.ToString(analysis.txns(obstacle.world)));
      const std::string& world = analysis.world_name(obstacle.world);
      if (!world.empty()) out += StrCat(" [world ", world, "]");
      out += "\n";
    }
  }
  return out;
}

StatusOr<TemplateExplanation> ExplainTemplateAllocation(
    const TemplateAnalysis& analysis, const TemplateAllocation& levels) {
  StatusOr<TemplateRobustnessResult> robust = analysis.Check(levels);
  if (!robust.ok()) return robust.status();
  auto cancelled = [] {
    return Status::ResourceExhausted("the explanation was cancelled");
  };
  if (robust->cancelled) return cancelled();
  if (!robust->robust) {
    return Status::FailedPrecondition(
        "the template allocation is not robust; nothing to explain");
  }
  std::vector<DeltaBase> base = *analysis.PrepareDelta(levels);
  TemplateExplanation explanation;
  explanation.levels = levels;
  for (size_t t = 0; t < levels.size(); ++t) {
    TemplateObstacle entry;
    entry.tmpl = t;
    entry.assigned = levels[t];
    for (IsolationLevel lower : kAllIsolationLevels) {
      if (!(lower < entry.assigned)) continue;
      TemplateRobustnessResult check = analysis.CheckDelta(base, t, lower);
      if (check.cancelled) return cancelled();
      if (!check.robust) {
        entry.obstacles.push_back(TemplateObstacle::Entry{
            lower, std::move(*check.counterexample), check.world});
      }
    }
    explanation.per_template.push_back(std::move(entry));
  }
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
