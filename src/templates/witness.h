#ifndef MVROB_TEMPLATES_WITNESS_H_
#define MVROB_TEMPLATES_WITNESS_H_

#include <string>

#include "templates/predicate.h"
#include "templates/promote.h"
#include "templates/robustness.h"

namespace mvrob {

/// Everything `mvrob templates --witness-json` can embed beyond the
/// analysis's refined template-pair conflict relation. Every section is
/// emitted iff its pointer is set; all pointers are borrowed for the
/// duration of the call, and every chain resolves against the analysis.
struct TemplateWitnessInputs {
  const TemplateAllocation* levels = nullptr;
  uint64_t robustness_checks = 0;
  /// Per-template lowering obstacles (each names its function world).
  const TemplateExplanation* explanation = nullptr;
  /// Template-granularity promotion plan.
  const TemplatePromotionPlan* promotion = nullptr;
  /// A fixed-allocation check (its counterexample when not robust).
  const TemplateRobustnessResult* check = nullptr;
};

/// The template verdict as machine-readable JSON (format
/// "mvrob-template-witness-v1"). When the analysis has the refined
/// conflict relation, the "conflicts" section holds one record per op
/// pair with at least one write, naming the predicate kind
/// (point-vs-point, range-vs-point, ...), whether the pair conflicts under
/// the baseline distinct-parameter rule and under the declared
/// constraints, and — when the constraints discharge a baseline conflict —
/// which constraint did it ("discharged_by") plus a colliding example
/// otherwise ("example"). See docs/formats.md for the field reference.
std::string TemplateWitnessJson(const TemplateAnalysis& analysis,
                                const TemplateWitnessInputs& inputs);

}  // namespace mvrob

#endif  // MVROB_TEMPLATES_WITNESS_H_
