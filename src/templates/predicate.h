#ifndef MVROB_TEMPLATES_PREDICATE_H_
#define MVROB_TEMPLATES_PREDICATE_H_

#include <string>
#include <vector>

#include "common/bitset.h"
#include "common/status.h"
#include "templates/instantiate.h"
#include "templates/template.h"

namespace mvrob {

/// Symbolic potential-overlap test (arXiv 2302.08789's predicate-conflict
/// test, adapted to string keys): can the two patterns ever denote the
/// same key, for ANY parameter values? Parameters, wildcards and ranges
/// all generate nonempty digit runs here, so this is a sound
/// over-approximation: false means the key spaces are disjoint for every
/// instantiation (e.g. "order_*O" never meets "cust_$c"). Decided by
/// reachability over the product of the two segment automata.
bool PatternsMayOverlap(const std::vector<PatternSegment>& a,
                        const std::vector<PatternSegment>& b);

/// The verdict for one ordered pair of template ops (at least one a
/// write): can instances of the two ops conflict, and why (not)?
struct TemplateOpPairConflict {
  size_t tmpl_a = 0;
  size_t tmpl_b = 0;
  int op_a = 0;
  int op_b = 0;
  /// "point-vs-point", "range-vs-point", "point-vs-range" or
  /// "range-vs-range" (predicate reads count as ranges).
  std::string kind;
  /// Conflict possible under the distinct-parameter rule alone.
  bool baseline_conflicts = false;
  /// Conflict possible under the declared constraints, in some world.
  bool conflicts = false;
  /// When !conflicts: the rule that discharged the pair — a constraint's
  /// ToString, "disjoint key patterns", or "distinct-parameter rule".
  std::string discharged_by;
  /// When conflicts: a witness collision "key via A(a=0), B(b=1)".
  std::string example;
};

/// The refined template-level potential-conflict relation: which template
/// pairs can have conflicting instances under the declared predicates and
/// constraints, quantified over every function world. The diagonal covers
/// two *distinct* instances of one template. Sound and exact relative to
/// canonical instantiation: pair_conflicts(a, b) is set iff some
/// admissible assignment pair collides in some world, so it
/// over-approximates the instance-level conflict relation of every
/// per-world instantiation.
struct TemplateConflictAnalysis {
  size_t num_templates = 0;
  BitMatrix pair_conflicts;
  /// The same relation under the distinct-parameter rule only — the
  /// comparison baseline the refinement is measured against.
  BitMatrix baseline_pair_conflicts;
  std::vector<TemplateOpPairConflict> op_pairs;
  int conflicting_pairs = 0;
  int baseline_conflicting_pairs = 0;
};

/// Computes the refined potential-conflict relation by exact enumeration
/// of admissible assignment pairs per world, with the symbolic
/// PatternsMayOverlap test as the fast path and for attribution.
/// ResourceExhausted when the enumeration would exceed the analysis
/// budget (shrink the canonical domains).
StatusOr<TemplateConflictAnalysis> AnalyzeTemplateConflicts(
    const TemplateSet& set, const InstantiationOptions& options = {});

}  // namespace mvrob

#endif  // MVROB_TEMPLATES_PREDICATE_H_
