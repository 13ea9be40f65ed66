#include "templates/promote.h"

#include <algorithm>
#include <set>
#include <utility>

#include "common/string_util.h"

namespace mvrob {
namespace {

// The template allocator on one (possibly promoted) analysis. Every
// blocking counterexample chain is mined for candidate promotions: the
// chain's promotable read legs (CandidatesFromChain, in the coordinates of
// the world's checked transactions) are lifted to (template, template op)
// pairs.
struct Evaluation {
  TemplateAllocation levels;
  std::set<std::pair<size_t, int>> frontier;
};

Evaluation Evaluate(const TemplateAnalysis& analysis) {
  Evaluation eval;
  eval.levels =
      ComputeOptimalTemplateAllocation(
          analysis, AllocationBounds::Free(analysis.num_templates()),
          [&](const TemplateRobustnessResult& blocked) {
            if (!blocked.counterexample.has_value()) return;
            for (OpRef ref : CandidatesFromChain(analysis.txns(blocked.world),
                                                 *blocked.counterexample)) {
              std::optional<TemplatePromotion> op =
                  analysis.TemplateOpOf(blocked.world, ref);
              if (op.has_value()) eval.frontier.insert({op->tmpl, op->op});
            }
          })
          ->levels;
  return eval;
}

}  // namespace

StatusOr<TemplatePromotionPlan> OptimizeTemplatePromotions(
    const TemplateAnalysis& analysis, const PromoteOptions& options) {
  TemplatePromotionPlan plan;
  Evaluation current = Evaluate(analysis);
  ++plan.allocations_computed;
  plan.before_levels = current.levels;
  plan.before_cost = ComputeAllocationCost(Allocation(current.levels), options);

  AllocationCost current_cost = plan.before_cost;
  while (static_cast<int>(plan.promotions.size()) < options.max_promotions &&
         current_cost.weighted > 0) {
    std::optional<TemplatePromotion> best;
    Evaluation best_eval;
    AllocationCost best_cost = current_cost;
    size_t evaluated = 0;
    for (const std::pair<size_t, int>& candidate : current.frontier) {
      TemplatePromotion promotion{candidate.first, candidate.second};
      if (std::find(plan.promotions.begin(), plan.promotions.end(),
                    promotion) != plan.promotions.end()) {
        continue;
      }
      if (evaluated >= kMaxCandidatesPerRound) break;
      ++evaluated;
      std::vector<TemplatePromotion> attempt = plan.promotions;
      attempt.push_back(promotion);
      StatusOr<TemplateAnalysis> promoted = analysis.Promote(attempt);
      if (!promoted.ok()) return promoted.status();
      Evaluation eval = Evaluate(*promoted);
      ++plan.allocations_computed;
      AllocationCost cost =
          ComputeAllocationCost(Allocation(eval.levels), options);
      if (cost.weighted < best_cost.weighted) {
        best = promotion;
        best_eval = std::move(eval);
        best_cost = cost;
      }
    }
    if (!best.has_value()) break;
    plan.promotions.push_back(*best);
    current = std::move(best_eval);
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
