#ifndef MVROB_TEMPLATES_ROBUSTNESS_H_
#define MVROB_TEMPLATES_ROBUSTNESS_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/analyzer.h"
#include "core/optimal_allocation.h"
#include "core/robustness.h"
#include "promote/promotion.h"
#include "templates/instantiate.h"
#include "templates/predicate.h"

namespace mvrob {

/// A per-template assignment of isolation levels: all instances of a
/// program run at its template's level — exactly the granularity at which
/// applications configure isolation (SET TRANSACTION ISOLATION LEVEL per
/// prepared statement / stored procedure).
using TemplateAllocation = std::vector<IsolationLevel>;

/// A promoted template read: op `op` of template `tmpl` becomes
/// SELECT ... FOR UPDATE in *every* instance — the granularity at which
/// an application can actually change a prepared statement. Predicate
/// reads promote every expanded point read (a FOR UPDATE scan locks each
/// matching row).
struct TemplatePromotion {
  size_t tmpl = 0;
  int op = 0;

  friend bool operator==(const TemplatePromotion&,
                         const TemplatePromotion&) = default;
};

/// Verdict of one all-worlds check (TemplateAnalysis::Check).
struct TemplateRobustnessResult {
  bool robust = true;
  /// CheckOptions::cancel stopped a world's check: there is no verdict.
  bool cancelled = false;
  /// When not robust: the first failing world, an index into the
  /// analysis, and its counterexample over TemplateAnalysis::txns(world).
  size_t world = 0;
  std::optional<CounterexampleChain> counterexample;
  /// World checks run, one robustness check each: every world when
  /// robust, up to the failing (or cancelled) one otherwise.
  uint64_t checks = 0;
};

/// The template layer's analysis of one template set, built once per
/// command: the canonical instantiation of every function world, the
/// refined template-pair conflict relation, and one analyzer per world.
/// Every template-level verdict — the check, the allocator, the
/// explanation and the promotion search — runs on it.
///
/// Robustness of a template set quantifies over instantiations and
/// function worlds (declared functional dependencies hold for *some
/// unknown* function): the set is robust iff every world's instantiation
/// is. Check is that quantifier, and the only loop over worlds.
///
/// Each world's analyzer indexes its instances' operations by object, so
/// its build visits only instance pairs that share an object; the refined
/// template-pair relation (predicate.h) is not needed to skip the rest
/// and serves the witness report and `templates` output only. A promoted
/// analysis (Promote) builds its analyzers over the promoted rewrite:
/// promotion inserts writes, which can create conflicts between template
/// pairs the relation cleared (a read-read overlap becomes write-read
/// once one side is promoted).
class TemplateAnalysis {
 public:
  /// Instantiates every function world and builds the analyzers; every
  /// check runs with `check` (threads, metrics, cancellation). If the
  /// conflict relation's enumeration budget is exceeded, conflicts() is
  /// null; the verdicts do not depend on it.
  static StatusOr<TemplateAnalysis> Build(
      const TemplateSet& set, const InstantiationOptions& options = {},
      const CheckOptions& check = {});

  /// The same worlds with `promotions` applied to every instance of every
  /// world: each promoted template op maps (through template_op_of_op) to
  /// the instance reads it expanded into, and every promotable one gets
  /// the inserted write. Instance reads that are not promotable — the
  /// instance already writes the object, so it already holds the write
  /// lock — are skipped, matching what FOR UPDATE does on a real engine.
  StatusOr<TemplateAnalysis> Promote(
      const std::vector<TemplatePromotion>& promotions) const;

  const TemplateSet& set() const { return shared_->set; }
  size_t num_templates() const { return shared_->set.size(); }
  size_t num_worlds() const { return shared_->worlds.size(); }
  /// World `w`'s unpromoted canonical instantiation.
  const Instantiation& instantiation(size_t w) const {
    return shared_->worlds[w].instantiation;
  }
  /// Label of world `w` (empty without function constraints).
  const std::string& world_name(size_t w) const {
    return shared_->worlds[w].instantiation.world;
  }
  /// The transactions world `w`'s checks run on, against which its
  /// counterexample chains resolve: the instantiation, or its promoted
  /// rewrite.
  const TransactionSet& txns(size_t w) const;
  /// The refined template-pair conflict relation; null when its
  /// enumeration budget was exceeded.
  const TemplateConflictAnalysis* conflicts() const {
    return shared_->conflicts ? &*shared_->conflicts : nullptr;
  }

  /// The instance allocation of world `w`: every instance at its
  /// template's level.
  Allocation InstanceAllocation(size_t w,
                                const TemplateAllocation& levels) const;

  /// The template op an op of txns(w) was expanded from; nullopt for a
  /// write inserted by promotion.
  std::optional<TemplatePromotion> TemplateOpOf(size_t w, OpRef ref) const;

  /// Decides whether `levels` keeps every world robust, stopping at the
  /// first world that is not. InvalidArgument when `levels` does not have
  /// one level per template.
  StatusOr<TemplateRobustnessResult> Check(
      const TemplateAllocation& levels) const;

  /// A template allocation prepared once, in O(instances), for any number
  /// of CheckDelta probes: each world's instance allocation as a
  /// DeltaBase, indexed by world. Serves one probe at a time.
  /// InvalidArgument when `levels` does not have one level per template.
  StatusOr<std::vector<DeltaBase>> PrepareDelta(
      const TemplateAllocation& levels) const;

  /// Check of the prepared allocation with every instance of template
  /// `tmpl` at `level`, each world by delta against the prepared one,
  /// which must keep every world robust. A probe costs O(instances of
  /// `tmpl`) per world before its rows.
  TemplateRobustnessResult CheckDelta(std::vector<DeltaBase>& base,
                                      size_t tmpl, IsolationLevel level) const;

  /// The CheckOptions every check runs with.
  const CheckOptions& check_options() const { return shared_->check; }

 private:
  // What a promoted analysis shares with the one it was promoted from.
  struct Shared {
    TemplateSet set;
    std::vector<WorldInstantiation> worlds;
    std::optional<TemplateConflictAnalysis> conflicts;
    CheckOptions check;
    // instances[w][t]: the instances of template t in world w, ascending.
    std::vector<std::vector<std::vector<TxnId>>> instances;
  };

  TemplateAnalysis() = default;

  std::shared_ptr<const Shared> shared_;
  // One per world when promoted; empty otherwise.
  std::vector<PromotionRewrite> rewrites_;
  std::vector<std::unique_ptr<RobustnessAnalyzer>> analyzers_;
};

/// Result of the template-level allocation computation.
struct TemplateAllocationResult {
  /// Whether any robust allocation inside the box exists: by upward
  /// closure, iff its top keeps every world robust. Always true for the
  /// Free box.
  bool feasible = false;
  /// The optimal robust per-template allocation inside the box, when
  /// feasible; empty otherwise.
  TemplateAllocation levels;
  /// When infeasible: the world and counterexample of the top's check.
  size_t world = 0;
  std::optional<CounterexampleChain> counterexample;
  /// World checks run (one robustness check each), top included.
  uint64_t robustness_checks = 0;
  /// A check was cancelled; as in ComputeOptimalAllocation.
  bool cancelled = false;
};

/// Called with every lowering check that fails while the allocator
/// descends (the promotion search mines these chains for candidates).
using TemplateBlockedSink =
    std::function<void(const TemplateRobustnessResult&)>;

/// Algorithm 2 lifted to template granularity over a box of
/// AllocationBounds whose units are templates: the lowering loop of
/// core/optimal_allocation.h against the box's top, with a probe that
/// accepts a level only when every world stays robust
/// (TemplateAnalysis::CheckDelta against the top). The top is checked
/// unless it is all-SSI.
///
/// The box argument carries over: exchanging *all* instances of one
/// template between two robust allocations is a sequence of
/// single-transaction exchanges, each of which preserves robustness
/// (Proposition 4.1(2)), so the robust allocations inside the box have a
/// unique minimal element; the argument applies in each world separately.
/// The Free box is the optimum over {RC, SI, SSI}; the RcSi box is
/// Theorem 5.5 at template granularity, feasible iff all-SI keeps every
/// world robust (Proposition 5.4 lifted). Records the allocation.*
/// metrics of ComputeOptimalAllocation. InvalidArgument when the bounds
/// are malformed.
StatusOr<TemplateAllocationResult> ComputeOptimalTemplateAllocation(
    const TemplateAnalysis& analysis, const AllocationBounds& bounds,
    const TemplateBlockedSink& on_blocked = {});

/// The Free box: the optimal robust per-template allocation over
/// {RC, SI, SSI}.
TemplateAllocationResult ComputeOptimalTemplateAllocation(
    const TemplateAnalysis& analysis);

/// Why each template cannot run lower: for every level below its assigned
/// one, a counterexample chain over some world that the lowering would
/// enable. Analogous to core/explain.h at program granularity.
struct TemplateObstacle {
  size_t tmpl = 0;
  IsolationLevel assigned = IsolationLevel::kRC;
  struct Entry {
    IsolationLevel attempted = IsolationLevel::kRC;
    CounterexampleChain chain;  // Over the analysis's txns(world).
    size_t world = 0;
  };
  std::vector<Entry> obstacles;
};

struct TemplateExplanation {
  TemplateAllocation levels;
  std::vector<TemplateObstacle> per_template;

  /// Multi-line report naming the instance transactions involved; the
  /// chains resolve against `analysis`, which the explanation came from.
  std::string ToString(const TemplateAnalysis& analysis) const;
};

/// Explains a robust template allocation; FailedPrecondition if it is not
/// robust in every world.
StatusOr<TemplateExplanation> ExplainTemplateAllocation(
    const TemplateAnalysis& analysis, const TemplateAllocation& levels);

/// Renders "NewOrder=SI Payment=SI ..." for reports.
std::string FormatTemplateAllocation(const TemplateSet& set,
                                     const TemplateAllocation& levels);

}  // namespace mvrob

#endif  // MVROB_TEMPLATES_ROBUSTNESS_H_
