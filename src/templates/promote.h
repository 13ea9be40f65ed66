#ifndef MVROB_TEMPLATES_PROMOTE_H_
#define MVROB_TEMPLATES_PROMOTE_H_

#include <vector>

#include "promote/optimizer.h"
#include "templates/robustness.h"

namespace mvrob {

/// Verdict of the template-granularity promotion search.
struct TemplatePromotionPlan {
  std::vector<TemplatePromotion> promotions;
  /// Optimal per-template allocations before/after promoting, quantified
  /// over every function world.
  TemplateAllocation before_levels;
  TemplateAllocation after_levels;
  /// Costs at template granularity under the PromoteOptions weights.
  AllocationCost before_cost;
  AllocationCost after_cost;
  bool improved = false;
  uint64_t allocations_computed = 0;
};

/// Greedy witness-guided promotion at template granularity, threading the
/// instance-level machinery of src/promote through the template layer:
/// candidate template reads are harvested from the counterexample chains
/// that block each template's lowering (CandidatesFromChain, lifted from
/// instance OpRefs to template ops through TemplateAnalysis::TemplateOpOf),
/// each candidate set is applied to every instance in every world
/// (TemplateAnalysis::Promote) and scored by the template allocator, and
/// the best strictly-improving candidate is committed, up to
/// options.max_promotions rounds. The weights and budget come from
/// `options`; every check runs with the analysis's CheckOptions.
StatusOr<TemplatePromotionPlan> OptimizeTemplatePromotions(
    const TemplateAnalysis& analysis, const PromoteOptions& options = {});

/// "Deliver.op2" labels for reports.
std::string FormatTemplatePromotions(
    const TemplateSet& set, const std::vector<TemplatePromotion>& promotions);

}  // namespace mvrob

#endif  // MVROB_TEMPLATES_PROMOTE_H_
