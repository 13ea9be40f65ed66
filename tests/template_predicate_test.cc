#include <gtest/gtest.h>

#include <optional>
#include <random>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "core/analyzer.h"
#include "core/conflict.h"
#include "templates/library.h"
#include "templates/parser.h"
#include "templates/predicate.h"
#include "templates/promote.h"
#include "templates/robustness.h"
#include "templates/witness.h"
#include "fixtures.h"

namespace mvrob {
namespace {

// Segments of op `op` of the single template parsed from `text`.
std::vector<PatternSegment> Segments(const std::string& text, int op = 0) {
  StatusOr<TemplateSet> set = ParseTemplateSet(text);
  EXPECT_TRUE(set.ok()) << set.status();
  return set->tmpl(0).ops()[static_cast<size_t>(op)].segments;
}

TEST(PatternOverlapTest, LiteralAndParamCases) {
  const std::string header = "domain I 3\n";
  auto point = [&](const std::string& pattern) {
    return Segments(StrCat(header, "T(i:I, j:I): R[", pattern, "] W[w]"));
  };
  // Identical literals overlap; different literals do not.
  EXPECT_TRUE(PatternsMayOverlap(point("total"), point("total")));
  EXPECT_FALSE(PatternsMayOverlap(point("total"), point("other")));
  // Parameters generate digit runs: they meet digits, not letters.
  EXPECT_TRUE(PatternsMayOverlap(point("k_$i"), point("k_$j")));
  EXPECT_TRUE(PatternsMayOverlap(point("k_$i"), point("k_9")));
  EXPECT_FALSE(PatternsMayOverlap(point("k_$i"), point("kx")));
  // Distinct literal prefixes keep the key spaces apart.
  EXPECT_FALSE(PatternsMayOverlap(point("order_$i"), point("cust_$j")));
}

TEST(PatternOverlapTest, RangeAndWildcardCases) {
  const std::string header = "domain I 3\n";
  auto pat = [&](const std::string& pattern) {
    return Segments(StrCat(header, "T(lo:I, hi:I): R[", pattern, "] W[w]"));
  };
  EXPECT_TRUE(PatternsMayOverlap(pat("s_$lo..$hi"), pat("s_$lo")));
  EXPECT_TRUE(PatternsMayOverlap(pat("s_$lo..$hi"), pat("s_$lo..$hi")));
  EXPECT_TRUE(PatternsMayOverlap(pat("s_*I"), pat("s_0")));
  EXPECT_FALSE(PatternsMayOverlap(pat("s_$lo..$hi"), pat("t_$lo")));
  EXPECT_FALSE(PatternsMayOverlap(pat("s_*I"), pat("t_*I")));
  // A hole must consume at least one digit: "s_" alone does not match
  // "s_$lo..$hi" (the range denotes at least one key when non-empty).
  EXPECT_FALSE(PatternsMayOverlap(pat("s_$lo..$hi"), pat("s_")));
}

TEST(ConflictAnalysisTest, DistinctRuleAndDisjointPatternsDischarge) {
  StatusOr<TemplateSet> set = ParseTemplateSet(R"(
    domain D 2
    Pair(x:D, y:D): W[k_$x$y]
    Diag(z:D): R[k_$z$z] W[p_$z]
  )");
  ASSERT_TRUE(set.ok()) << set.status();
  StatusOr<TemplateConflictAnalysis> analysis = AnalyzeTemplateConflicts(*set);
  ASSERT_TRUE(analysis.ok()) << analysis.status();

  // Pair writes k_01/k_10 (implicit x != y), Diag reads k_00/k_11: the
  // patterns overlap symbolically but no admissible assignments collide.
  const TemplateOpPairConflict* write_vs_read = nullptr;
  const TemplateOpPairConflict* write_vs_write = nullptr;
  for (const TemplateOpPairConflict& pair : analysis->op_pairs) {
    if (pair.tmpl_a == 0 && pair.tmpl_b == 1 && pair.op_b == 0) {
      write_vs_read = &pair;
    }
    if (pair.tmpl_a == 0 && pair.tmpl_b == 1 && pair.op_b == 1) {
      write_vs_write = &pair;
    }
  }
  ASSERT_NE(write_vs_read, nullptr);
  EXPECT_EQ(write_vs_read->kind, "point-vs-point");
  EXPECT_FALSE(write_vs_read->conflicts);
  EXPECT_FALSE(write_vs_read->baseline_conflicts);
  EXPECT_EQ(write_vs_read->discharged_by, "distinct-parameter rule");

  ASSERT_NE(write_vs_write, nullptr);
  EXPECT_FALSE(write_vs_write->conflicts);
  EXPECT_EQ(write_vs_write->discharged_by, "disjoint key patterns");

  EXPECT_FALSE(analysis->pair_conflicts.Test(0, 1));
  EXPECT_FALSE(analysis->pair_conflicts.Test(1, 0));
  // The diagonal stays: two Pair instances can write the same key.
  EXPECT_TRUE(analysis->pair_conflicts.Test(0, 0));
}

TEST(ConflictAnalysisTest, EqualityConstraintDischargesAndIsNamed) {
  StatusOr<TemplateSet> set = ParseTemplateSet(R"(
    domain D 2
    Fix(x:D, y:D): W[k_$x$y]
    Off(a:D, b:D): R[k_$a$b] W[r_$a]
    constraint Fix: x == y
  )");
  ASSERT_TRUE(set.ok()) << set.status();
  StatusOr<TemplateConflictAnalysis> analysis = AnalyzeTemplateConflicts(*set);
  ASSERT_TRUE(analysis.ok()) << analysis.status();

  // Baseline (distinct-parameter rule only): Fix writes k_01/k_10, which
  // Off reads. The declared equality moves Fix onto the diagonal
  // k_00/k_11, away from Off's off-diagonal reads.
  const TemplateOpPairConflict* pair = nullptr;
  for (const TemplateOpPairConflict& candidate : analysis->op_pairs) {
    if (candidate.tmpl_a == 0 && candidate.op_a == 0 &&
        candidate.tmpl_b == 1 && candidate.op_b == 0) {
      pair = &candidate;
    }
  }
  ASSERT_NE(pair, nullptr);
  EXPECT_TRUE(pair->baseline_conflicts);
  EXPECT_FALSE(pair->conflicts);
  EXPECT_EQ(pair->discharged_by, "constraint Fix: x == y");
  EXPECT_FALSE(analysis->pair_conflicts.Test(0, 1));
  EXPECT_TRUE(analysis->baseline_pair_conflicts.Test(0, 1));
  EXPECT_LT(analysis->conflicting_pairs, analysis->baseline_conflicting_pairs);
}

TEST(ConflictAnalysisTest, RangeConflictsCarryAnExample) {
  TemplateSet scan = TpccScanTemplates();
  StatusOr<TemplateConflictAnalysis> analysis = AnalyzeTemplateConflicts(scan);
  ASSERT_TRUE(analysis.ok()) << analysis.status();
  int stock_scan = scan.FindTemplate("StockScan");
  int new_order = scan.FindTemplate("NewOrder");
  ASSERT_GE(stock_scan, 0);
  ASSERT_GE(new_order, 0);
  EXPECT_TRUE(analysis->pair_conflicts.Test(static_cast<size_t>(new_order),
                                            static_cast<size_t>(stock_scan)));
  bool saw_range_example = false;
  for (const TemplateOpPairConflict& pair : analysis->op_pairs) {
    if (!pair.conflicts) continue;
    if (pair.kind.find("range") == std::string::npos) continue;
    EXPECT_NE(pair.example.find("sqty_"), std::string::npos) << pair.example;
    saw_range_example = true;
  }
  EXPECT_TRUE(saw_range_example);
}

TEST(ShowcaseTest, ConstraintBuysAStrictlyCheaperAllocation) {
  // The documented range showcase (docs/templates.md): without the
  // constraint, Move(src != dst) instances form write skew with the
  // range-scanning Audit in the cycle and both templates need SSI.
  TemplateAllocationResult baseline = ComputeOptimalTemplateAllocation(
      AnalyzeTemplates(ConstraintShowcaseTemplates(false)));
  for (IsolationLevel level : baseline.levels) {
    EXPECT_EQ(level, IsolationLevel::kSSI);
  }
  // Declaring `constraint Move: src == dst` turns every Move into a
  // same-key read-modify-write and all-SI becomes robust.
  TemplateAllocationResult constrained = ComputeOptimalTemplateAllocation(
      AnalyzeTemplates(ConstraintShowcaseTemplates(true)));
  for (IsolationLevel level : constrained.levels) {
    EXPECT_EQ(level, IsolationLevel::kSI);
  }
}

TEST(TemplatePromotionTest, PromotingTheScanReachesRc) {
  StatusOr<TemplatePromotionPlan> plan = OptimizeTemplatePromotions(
      AnalyzeTemplates(ConstraintShowcaseTemplates(true)));
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_TRUE(plan->improved);
  EXPECT_LT(plan->after_cost.weighted, plan->before_cost.weighted);
  // The committed promotion is Audit's range read (template 0, op 0),
  // which drops Audit from SI to RC.
  ASSERT_FALSE(plan->promotions.empty());
  EXPECT_EQ(plan->promotions[0].tmpl, 0u);
  EXPECT_EQ(plan->promotions[0].op, 0);
  EXPECT_EQ(plan->after_levels[0], IsolationLevel::kRC);
  std::string label = FormatTemplatePromotions(ConstraintShowcaseTemplates(true),
                                               plan->promotions);
  EXPECT_NE(label.find("Audit.op0"), std::string::npos) << label;
}

TEST(TemplateWitnessTest, JsonNamesTheDischargingConstraint) {
  StatusOr<TemplateSet> set = ParseTemplateSet(R"(
    domain D 2
    Fix(x:D, y:D): W[k_$x$y]
    Off(a:D, b:D): R[k_$a$b] W[r_$a]
    constraint Fix: x == y
  )");
  ASSERT_TRUE(set.ok()) << set.status();
  TemplateAnalysis analysis = AnalyzeTemplates(*set);
  ASSERT_NE(analysis.conflicts(), nullptr);
  TemplateAllocationResult optimal = ComputeOptimalTemplateAllocation(analysis);

  TemplateWitnessInputs inputs;
  inputs.levels = &optimal.levels;
  inputs.robustness_checks = optimal.robustness_checks;
  std::string json = TemplateWitnessJson(analysis, inputs);
  EXPECT_NE(json.find("mvrob-template-witness-v1"), std::string::npos);
  EXPECT_NE(json.find("\"allocation\""), std::string::npos);
  EXPECT_NE(json.find("\"conflicts\""), std::string::npos);
  EXPECT_NE(json.find("discharged_by"), std::string::npos);
  EXPECT_NE(json.find("constraint Fix: x == y"), std::string::npos);
  EXPECT_NE(json.find("point-vs-point"), std::string::npos);
}

TEST(TemplateWitnessTest, JsonCarriesPromotionAndCheckSections) {
  TemplateAnalysis showcase = AnalyzeTemplates(ConstraintShowcaseTemplates(true));
  StatusOr<TemplatePromotionPlan> plan = OptimizeTemplatePromotions(showcase);
  ASSERT_TRUE(plan.ok()) << plan.status();
  TemplateAllocation all_rc(showcase.num_templates(), IsolationLevel::kRC);
  StatusOr<TemplateRobustnessResult> check = showcase.Check(all_rc);
  ASSERT_TRUE(check.ok()) << check.status();
  ASSERT_FALSE(check->robust);

  TemplateWitnessInputs inputs;
  inputs.levels = &all_rc;
  inputs.promotion = &*plan;
  inputs.check = &*check;
  std::string json = TemplateWitnessJson(showcase, inputs);
  EXPECT_NE(json.find("\"promotion\""), std::string::npos);
  EXPECT_NE(json.find("Audit"), std::string::npos);
  EXPECT_NE(json.find("\"check\""), std::string::npos);
  EXPECT_NE(json.find("counterexample"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Randomized property: the template-level verdict must agree
// with brute-force per-instance robustness of every world's canonical
// instantiation, and the refined relation must cover every conflicting
// instance pair of every world (its soundness contract).
// ---------------------------------------------------------------------------

IsolationLevel RandomLevel(std::mt19937& rng) {
  switch (rng() % 3) {
    case 0:
      return IsolationLevel::kRC;
    case 1:
      return IsolationLevel::kSI;
    default:
      return IsolationLevel::kSSI;
  }
}

// A small random v2 template set: 1-2 domains of size 1-3, 2-3 templates
// with up to 2 parameters and up to 3 ops mixing literals, point
// parameters, ranges and wildcards, plus occasional constraints. Returns
// nullopt when the draw is rejected by the parser (e.g. contradictory
// constraints), which the caller skips without counting.
std::optional<TemplateSet> RandomTemplateSet(std::mt19937& rng,
                                             int* function_counter) {
  auto pick = [&](int n) {
    return static_cast<int>(rng() % static_cast<unsigned>(n));
  };
  std::string text;
  int num_domains = 1 + pick(2);
  std::vector<std::string> domains;
  for (int d = 0; d < num_domains; ++d) {
    domains.push_back(std::string(1, static_cast<char>('A' + d)));
    text += StrCat("domain ", domains.back(), " ", 1 + pick(3), "\n");
  }
  int num_templates = 2 + pick(2);
  for (int t = 0; t < num_templates; ++t) {
    std::string name = StrCat("T", t);
    int num_params = pick(3);
    std::vector<std::string> param_names;
    std::vector<std::string> param_domains;
    std::vector<std::string> decls;
    for (int p = 0; p < num_params; ++p) {
      param_names.push_back(StrCat("p", p));
      param_domains.push_back(domains[static_cast<size_t>(pick(num_domains))]);
      decls.push_back(StrCat(param_names.back(), ":", param_domains.back()));
    }
    int num_ops = 1 + pick(3);
    std::vector<std::string> ops;
    for (int o = 0; o < num_ops; ++o) {
      std::string prefix = StrCat(std::string(1, 'a' + pick(3)), "_");
      bool write = pick(2) == 0;
      std::string pattern;
      int form = num_params == 0 ? 1 : (write ? pick(2) : pick(4));
      switch (form) {
        case 0:
          pattern =
              StrCat(prefix, "$", param_names[static_cast<size_t>(pick(num_params))]);
          break;
        case 1:
          pattern = StrCat(prefix, pick(3));
          break;
        case 2: {
          // Range over a same-domain parameter pair, if one exists.
          int lo = -1;
          int hi = -1;
          for (int i = 0; i < num_params && lo < 0; ++i) {
            for (int j = 0; j < num_params; ++j) {
              if (i != j && param_domains[static_cast<size_t>(i)] ==
                                param_domains[static_cast<size_t>(j)]) {
                lo = i;
                hi = j;
                break;
              }
            }
          }
          if (lo < 0) {
            pattern = StrCat(prefix, "$",
                             param_names[static_cast<size_t>(pick(num_params))]);
          } else {
            pattern = StrCat(prefix, "$", param_names[static_cast<size_t>(lo)],
                             "..$", param_names[static_cast<size_t>(hi)]);
          }
          break;
        }
        default:
          pattern =
              StrCat(prefix, "*", domains[static_cast<size_t>(pick(num_domains))]);
          break;
      }
      ops.push_back(StrCat(write ? "W[" : "R[", pattern, "]"));
    }
    text += StrCat(name, "(", Join(decls, ", "), "): ", Join(ops, " "), "\n");
    if (num_params >= 2 && pick(2) == 0) {
      int i = pick(num_params);
      int j = pick(num_params);
      if (i != j) {
        switch (pick(3)) {
          case 0:
            text += StrCat("constraint ", name, ": ",
                           param_names[static_cast<size_t>(i)], " == ",
                           param_names[static_cast<size_t>(j)], "\n");
            break;
          case 1:
            text += StrCat("constraint ", name, ": ",
                           param_names[static_cast<size_t>(i)], " != ",
                           param_names[static_cast<size_t>(j)], "\n");
            break;
          default:
            text += StrCat("constraint ", name, ": ",
                           param_names[static_cast<size_t>(i)], " = f",
                           (*function_counter)++, "(",
                           param_names[static_cast<size_t>(j)], ")\n");
            break;
        }
      }
    }
  }
  StatusOr<TemplateSet> set = ParseTemplateSet(text);
  if (!set.ok()) return std::nullopt;
  return std::move(set).value();
}

TEST(TemplatePropertyTest, VerdictMatchesBruteForceOnRandomSets) {
  std::mt19937 rng(20230808);
  InstantiationOptions options;
  options.max_instances = 96;
  options.max_worlds = 16;
  int cases = 0;
  int robust_seen = 0;
  int non_robust_seen = 0;
  int function_counter = 0;
  for (int attempt = 0; attempt < 4000 && cases < 220; ++attempt) {
    std::optional<TemplateSet> set = RandomTemplateSet(rng, &function_counter);
    if (!set.has_value()) continue;
    StatusOr<std::vector<WorldInstantiation>> worlds =
        InstantiateAllWorlds(*set, options);
    if (!worlds.ok()) continue;  // Over the world/instance budget: skip.
    StatusOr<TemplateConflictAnalysis> analysis =
        AnalyzeTemplateConflicts(*set, options);
    if (!analysis.ok()) continue;  // Over the analysis budget: skip.

    TemplateAllocation levels(set->size());
    for (IsolationLevel& level : levels) level = RandomLevel(rng);
    StatusOr<TemplateAnalysis> lifted = TemplateAnalysis::Build(*set, options);
    ASSERT_TRUE(lifted.ok()) << lifted.status() << "\n" << set->ToString();
    StatusOr<TemplateRobustnessResult> verdict = lifted->Check(levels);
    ASSERT_TRUE(verdict.ok()) << verdict.status() << "\n" << set->ToString();

    bool reference_robust = true;
    for (const WorldInstantiation& world : *worlds) {
      const TransactionSet& txns = world.instantiation.txns;
      std::vector<IsolationLevel> instance_levels;
      instance_levels.reserve(txns.size());
      for (int tmpl : world.instantiation.template_of_txn) {
        instance_levels.push_back(levels[static_cast<size_t>(tmpl)]);
      }
      RobustnessAnalyzer reference(txns);
      reference_robust &=
          reference.Check(Allocation(std::move(instance_levels))).robust;

      const std::vector<int>& group = world.instantiation.template_of_txn;
      BitMatrix plain = BuildConflictMatrix(txns);
      for (size_t i = 0; i < plain.rows(); ++i) {
        for (size_t j = 0; j < plain.cols(); ++j) {
          if (!plain.Test(i, j)) continue;
          ASSERT_TRUE(analysis->pair_conflicts.Test(
              static_cast<size_t>(group[i]), static_cast<size_t>(group[j])))
              << "conflicting instances (" << i << ", " << j
              << ") of a cleared template pair in world '"
              << world.world.name << "' of\n"
              << set->ToString();
        }
      }
    }
    EXPECT_EQ(verdict->robust, reference_robust) << set->ToString();
    ++cases;
    (verdict->robust ? robust_seen : non_robust_seen) += 1;
  }
  // The acceptance bar: at least 200 randomized agreement cases, with
  // both verdicts represented.
  EXPECT_GE(cases, 200);
  EXPECT_GT(robust_seen, 0);
  EXPECT_GT(non_robust_seen, 0);
}

TEST(TemplatePropertyTest, LibrarySetsAgreeWithBruteForce) {
  std::vector<TemplateSet> sets;
  sets.push_back(TpccScanTemplates());
  sets.push_back(ConstraintShowcaseTemplates(true));
  sets.push_back(ConstraintShowcaseTemplates(false));
  sets.push_back(SmallBankTemplates());
  for (const TemplateSet& set : sets) {
    TemplateAllocationResult optimal =
        ComputeOptimalTemplateAllocation(AnalyzeTemplates(set));
    StatusOr<std::vector<WorldInstantiation>> worlds =
        InstantiateAllWorlds(set);
    ASSERT_TRUE(worlds.ok()) << worlds.status();
    for (const WorldInstantiation& world : *worlds) {
      std::vector<IsolationLevel> instance_levels;
      for (int tmpl : world.instantiation.template_of_txn) {
        instance_levels.push_back(optimal.levels[static_cast<size_t>(tmpl)]);
      }
      RobustnessAnalyzer reference(world.instantiation.txns);
      EXPECT_TRUE(reference.Check(Allocation(std::move(instance_levels))).robust)
          << set.ToString();
    }
  }
}

}  // namespace
}  // namespace mvrob
