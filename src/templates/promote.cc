#include "templates/promote.h"

#include <algorithm>
#include <memory>
#include <set>
#include <utility>

#include "common/string_util.h"
#include "core/analyzer.h"
#include "core/optimal_allocation.h"
#include "promote/promotion.h"

namespace mvrob {
namespace {

// One function world's promoted workload: the rewrite (base instantiation
// -> promoted transactions) plus an analyzer over the promoted set. The
// analyzers run unpruned: promotion inserts writes, which can create
// conflicts between template pairs the refined relation cleared (a
// read-read overlap becomes write-read once one side is promoted), so the
// template-pair mask is not sound here.
struct WorldWorkload {
  const WorldInstantiation* base = nullptr;
  PromotionRewrite rewrite;
  std::unique_ptr<RobustnessAnalyzer> analyzer;
};

Allocation InstanceAllocation(const Instantiation& instantiation,
                              const TemplateAllocation& levels) {
  std::vector<IsolationLevel> instance_levels;
  instance_levels.reserve(instantiation.txns.size());
  for (int tmpl : instantiation.template_of_txn) {
    instance_levels.push_back(levels[tmpl]);
  }
  return Allocation(std::move(instance_levels));
}

// Applies the template-granularity promotions to every instance of every
// world: each promoted template op maps (through template_op_of_op) to the
// instance reads it expanded into, and every promotable one gets the
// inserted write. Instance reads that are not promotable — the instance
// already writes the object, so it already holds the write lock — are
// skipped, matching what FOR UPDATE does on a real engine.
StatusOr<std::vector<std::unique_ptr<WorldWorkload>>> BuildWorkloads(
    const std::vector<WorldInstantiation>& worlds,
    const std::vector<TemplatePromotion>& promotions) {
  std::vector<std::unique_ptr<WorldWorkload>> result;
  result.reserve(worlds.size());
  for (const WorldInstantiation& world : worlds) {
    const Instantiation& inst = world.instantiation;
    PromotionSet instance_promotions;
    for (TxnId i = 0; i < inst.txns.size(); ++i) {
      const int tmpl = inst.template_of_txn[i];
      const std::vector<int>& op_map = inst.template_op_of_op[i];
      for (const TemplatePromotion& promotion : promotions) {
        if (static_cast<int>(promotion.tmpl) != tmpl) continue;
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
    auto workload = std::make_unique<WorldWorkload>();
    workload->base = &world;
    workload->rewrite = std::move(rewrite).value();
    workload->analyzer = std::make_unique<RobustnessAnalyzer>(
        workload->rewrite.promoted, nullptr);
    result.push_back(std::move(workload));
  }
  return result;
}

// Lifted Algorithm 2 over the promoted worlds. While lowering, every
// blocking counterexample chain is mined for candidate promotions: the
// chain's promotable read legs (CandidatesFromChain, in promoted
// coordinates) are mapped back through the rewrite to base instance ops
// and lifted to (template, template op) pairs.
struct Evaluation {
  TemplateAllocation levels;
  std::set<std::pair<size_t, int>> frontier;
};

Evaluation Evaluate(const std::vector<std::unique_ptr<WorldWorkload>>& worlds,
                    size_t num_templates, uint64_t* robustness_checks) {
  Evaluation eval;
  // The probe accepts a level when every world stays robust; the first
  // failing world's chain feeds the frontier.
  auto every_world = [&](const Allocation& current,
                         const Allocation& candidate) {
    for (const std::unique_ptr<WorldWorkload>& world : worlds) {
      ++*robustness_checks;
      // `current` is robust in every world; the candidate changes every
      // instance of one template.
      const Instantiation& inst = world->base->instantiation;
      RobustnessResult result = world->analyzer->CheckDelta(
          InstanceAllocation(inst, current.levels()),
          InstanceAllocation(inst, candidate.levels()));
      if (result.robust) continue;
      if (result.counterexample.has_value()) {
        for (OpRef promoted_ref : CandidatesFromChain(
                 world->rewrite.promoted, *result.counterexample)) {
          std::optional<OpRef> base_ref =
              world->rewrite.OriginalRef(promoted_ref);
          if (!base_ref.has_value()) continue;
          const std::vector<int>& op_map =
              inst.template_op_of_op[base_ref->txn];
          if (base_ref->index < 0 ||
              static_cast<size_t>(base_ref->index) >= op_map.size()) {
            continue;
          }
          eval.frontier.insert(
              {static_cast<size_t>(inst.template_of_txn[base_ref->txn]),
               op_map[base_ref->index]});
        }
      }
      return ProbeVerdict::kNotRobust;
    }
    return ProbeVerdict::kRobust;
  };
  eval.levels =
      LowerToOptimum(Allocation::AllSSI(num_templates),
                     std::vector<IsolationLevel>(num_templates,
                                                 IsolationLevel::kRC),
                     every_world)
          .allocation.levels();
  return eval;
}

AllocationCost TemplateCost(const TemplateAllocation& levels,
                            const PromoteOptions& options) {
  return ComputeAllocationCost(Allocation(levels), options);
}

}  // namespace

StatusOr<TemplatePromotionPlan> OptimizeTemplatePromotions(
    const TemplateSet& set, const PromoteOptions& options,
    const InstantiationOptions& instantiation) {
  StatusOr<std::vector<WorldInstantiation>> worlds =
      InstantiateAllWorlds(set, instantiation);
  if (!worlds.ok()) return worlds.status();

  TemplatePromotionPlan plan;
  plan.worlds = worlds->size();

  StatusOr<std::vector<std::unique_ptr<WorldWorkload>>> base =
      BuildWorkloads(*worlds, {});
  if (!base.ok()) return base.status();
  uint64_t checks = 0;
  Evaluation current = Evaluate(*base, set.size(), &checks);
  ++plan.allocations_computed;
  plan.before_levels = current.levels;
  plan.before_cost = TemplateCost(current.levels, options);

  AllocationCost current_cost = plan.before_cost;
  while (static_cast<int>(plan.promotions.size()) < options.max_promotions &&
         current_cost.weighted > 0) {
    std::optional<TemplatePromotion> best;
    TemplateAllocation best_levels;
    std::set<std::pair<size_t, int>> best_frontier;
    AllocationCost best_cost = current_cost;
    size_t evaluated = 0;
    for (const std::pair<size_t, int>& candidate : current.frontier) {
      TemplatePromotion promotion{candidate.first, candidate.second};
      if (std::find(plan.promotions.begin(), plan.promotions.end(),
                    promotion) != plan.promotions.end()) {
        continue;
      }
      if (evaluated >= options.max_candidates_per_round) break;
      ++evaluated;
      std::vector<TemplatePromotion> attempt = plan.promotions;
      attempt.push_back(promotion);
      StatusOr<std::vector<std::unique_ptr<WorldWorkload>>> workloads =
          BuildWorkloads(*worlds, attempt);
      if (!workloads.ok()) return workloads.status();
      Evaluation eval = Evaluate(*workloads, set.size(), &checks);
      ++plan.allocations_computed;
      AllocationCost cost = TemplateCost(eval.levels, options);
      if (cost.weighted < best_cost.weighted) {
        best = promotion;
        best_levels = eval.levels;
        best_frontier = std::move(eval.frontier);
        best_cost = cost;
      }
    }
    if (!best.has_value()) break;
    plan.promotions.push_back(*best);
    current.levels = std::move(best_levels);
    current.frontier = std::move(best_frontier);
    current_cost = best_cost;
  }

  plan.after_levels = current.levels;
  plan.after_cost = current_cost;
  plan.improved = plan.after_cost.weighted < plan.before_cost.weighted;
  if (!plan.improved) {
    // A promotion set that does not pay for itself is dropped: the plan
    // reports the unpromoted optimum on both sides.
    plan.promotions.clear();
    plan.after_levels = plan.before_levels;
    plan.after_cost = plan.before_cost;
  }
  return plan;
}

std::string FormatTemplatePromotions(
    const TemplateSet& set, const std::vector<TemplatePromotion>& promotions) {
  std::vector<std::string> parts;
  for (const TemplatePromotion& promotion : promotions) {
    const TransactionTemplate& tmpl = set.tmpl(promotion.tmpl);
    std::string op = promotion.op >= 0 &&
                             promotion.op < static_cast<int>(tmpl.ops().size())
                         ? StrCat("op", promotion.op, " ",
                                  tmpl.ops()[promotion.op].object_pattern)
                         : StrCat("op", promotion.op);
    parts.push_back(StrCat(tmpl.name(), ".", op));
  }
  return Join(parts, ", ");
}

}  // namespace mvrob
