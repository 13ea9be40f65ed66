#include <gtest/gtest.h>

#include "templates/instantiate.h"
#include "templates/library.h"
#include "templates/parser.h"
#include "templates/robustness.h"
#include "fixtures.h"

namespace mvrob {
namespace {

TEST(TemplateTest, CreateValidatesParameters) {
  StatusOr<TransactionTemplate> ok = TransactionTemplate::Create(
      "T", {{"w", "W"}}, {{OpType::kRead, "x_$w"}});
  EXPECT_TRUE(ok.ok());

  StatusOr<TransactionTemplate> undeclared = TransactionTemplate::Create(
      "T", {{"w", "W"}}, {{OpType::kRead, "x_$q"}});
  EXPECT_FALSE(undeclared.ok());

  StatusOr<TransactionTemplate> duplicate = TransactionTemplate::Create(
      "T", {{"w", "W"}, {"w", "D"}}, {{OpType::kRead, "x"}});
  EXPECT_FALSE(duplicate.ok());

  StatusOr<TransactionTemplate> dangling = TransactionTemplate::Create(
      "T", {{"w", "W"}}, {{OpType::kRead, "x_$"}});
  EXPECT_FALSE(dangling.ok());
}

TEST(TemplateTest, Substitute) {
  std::map<std::string, std::string> assignment{{"w", "1"}, {"i", "2"}};
  EXPECT_EQ(TransactionTemplate::Substitute("stock_$w_$i", assignment),
            "stock_1_2");
  EXPECT_EQ(TransactionTemplate::Substitute("plain", assignment), "plain");
  // Unbound parameters are left visible for debugging.
  EXPECT_EQ(TransactionTemplate::Substitute("x_$q", assignment), "x_$q");
}

TEST(TemplateParserTest, ParsesDomainsAndTemplates) {
  StatusOr<TemplateSet> set = ParseTemplateSet(R"(
    # Comment.
    domain W 2
    domain D 3
    NewOrder(w:W, d:D): R[wtax_$w] W[dnext_$w_$d]
    Audit(): R[total]
  )");
  ASSERT_TRUE(set.ok()) << set.status();
  EXPECT_EQ(set->size(), 2u);
  EXPECT_EQ(set->DomainSize("W"), 2);
  EXPECT_EQ(set->DomainSize("D"), 3);
  EXPECT_EQ(set->FindTemplate("Audit"), 1);
  EXPECT_EQ(set->FindTemplate("Nope"), -1);
  EXPECT_EQ(set->tmpl(0).ToString(),
            "NewOrder(w:W, d:D): R[wtax_$w] W[dnext_$w_$d]");
}

TEST(TemplateParserTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseTemplateSet("domain W").ok());
  EXPECT_FALSE(ParseTemplateSet("domain W x").ok());
  EXPECT_FALSE(ParseTemplateSet("domain W 0").ok());
  EXPECT_FALSE(ParseTemplateSet("T(w:W): R[x]").ok());  // Domain undeclared.
  EXPECT_FALSE(ParseTemplateSet("domain W 1\nT(w): R[x]").ok());
  EXPECT_FALSE(ParseTemplateSet("domain W 1\nT w:W: R[x]").ok());
  EXPECT_FALSE(
      ParseTemplateSet("domain W 1\nT(w:W): X[x]").ok());  // Bad op.
  EXPECT_FALSE(ParseTemplateSet(R"(
    domain W 1
    T(w:W): R[x]
    T(w:W): R[y]
  )").ok());  // Duplicate name.
}

TEST(InstantiateTest, EnumeratesAssignmentsAndCopies) {
  StatusOr<TemplateSet> set = ParseTemplateSet(R"(
    domain W 2
    T(w:W): R[x_$w] W[x_$w]
  )");
  ASSERT_TRUE(set.ok());
  InstantiationOptions options;
  options.copies_per_assignment = 2;
  StatusOr<Instantiation> inst = InstantiateTemplates(*set, options);
  ASSERT_TRUE(inst.ok()) << inst.status();
  EXPECT_EQ(inst->txns.size(), 4u);  // 2 assignments x 2 copies.
  EXPECT_EQ(inst->template_of_txn,
            (std::vector<int>{0, 0, 0, 0}));
  EXPECT_NE(inst->txns.FindTransaction("T_w0#1"), kInvalidTxnId);
  EXPECT_NE(inst->txns.FindTransaction("T_w1#2"), kInvalidTxnId);
  // Objects x_0 and x_1 both exist.
  EXPECT_NE(inst->txns.FindObject("x_0"), kInvalidObjectId);
  EXPECT_NE(inst->txns.FindObject("x_1"), kInvalidObjectId);
}

TEST(InstantiateTest, DistinctSameDomainParameters) {
  StatusOr<TemplateSet> set = ParseTemplateSet(R"(
    domain N 2
    Transfer(a:N, b:N): R[acc_$a] W[acc_$b]
  )");
  ASSERT_TRUE(set.ok());
  InstantiationOptions options;
  options.copies_per_assignment = 1;
  StatusOr<Instantiation> distinct = InstantiateTemplates(*set, options);
  ASSERT_TRUE(distinct.ok());
  EXPECT_EQ(distinct->txns.size(), 2u);  // (0,1) and (1,0).

  options.distinct_same_domain_params = false;
  StatusOr<Instantiation> all = InstantiateTemplates(*set, options);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->txns.size(), 4u);  // All four pairs.
}

TEST(InstantiateTest, RefusesExplosion) {
  StatusOr<TemplateSet> set = ParseTemplateSet(R"(
    domain X 100
    T(a:X, b:X, c:X): R[q_$a_$b_$c]
  )");
  ASSERT_TRUE(set.ok());
  InstantiationOptions options;
  options.max_instances = 1000;
  StatusOr<Instantiation> inst = InstantiateTemplates(*set, options);
  EXPECT_FALSE(inst.ok());
  EXPECT_EQ(inst.status().code(), StatusCode::kResourceExhausted);
}

TEST(TemplateRobustnessTest, WriteSkewTemplates) {
  StatusOr<TemplateSet> set = ParseTemplateSet(R"(
    domain N 2
    CheckX(n:N): R[x_$n] W[y_$n]
    CheckY(n:N): R[y_$n] W[x_$n]
  )");
  ASSERT_TRUE(set.ok());
  TemplateAnalysis analysis = AnalyzeTemplates(*set);
  StatusOr<TemplateRobustnessResult> si =
      analysis.Check({IsolationLevel::kSI, IsolationLevel::kSI});
  ASSERT_TRUE(si.ok());
  EXPECT_FALSE(si->robust);
  ASSERT_TRUE(si->counterexample.has_value());
  StatusOr<TemplateRobustnessResult> ssi =
      analysis.Check({IsolationLevel::kSSI, IsolationLevel::kSSI});
  ASSERT_TRUE(ssi.ok());
  EXPECT_TRUE(ssi->robust);
}

TEST(TemplateRobustnessTest, RejectsWrongAllocationSize) {
  TemplateAnalysis bank = AnalyzeTemplates(SmallBankTemplates());
  EXPECT_FALSE(bank.Check({IsolationLevel::kSI}).ok());
  TemplateAllocation all_ssi(bank.num_templates(), IsolationLevel::kSSI);
  TemplateAllocation short_base{IsolationLevel::kSSI};
  EXPECT_FALSE(bank.Check(all_ssi, &short_base).ok());
}

TEST(TemplateRobustnessTest, TpccFolkloreAtTemplateGranularity) {
  TemplateAnalysis tpcc = AnalyzeTemplates(TpccTemplates());
  TemplateAllocation all_si(tpcc.num_templates(), IsolationLevel::kSI);
  TemplateAllocation all_rc(tpcc.num_templates(), IsolationLevel::kRC);
  StatusOr<TemplateRobustnessResult> si = tpcc.Check(all_si);
  ASSERT_TRUE(si.ok()) << si.status();
  EXPECT_TRUE(si->robust);
  StatusOr<TemplateRobustnessResult> rc = tpcc.Check(all_rc);
  ASSERT_TRUE(rc.ok());
  EXPECT_FALSE(rc->robust);
}

TEST(TemplateAllocationTest, TpccOptimumIsAllSi) {
  TemplateAnalysis tpcc = AnalyzeTemplates(TpccTemplates());
  TemplateAllocationResult result = ComputeOptimalTemplateAllocation(tpcc);
  ASSERT_TRUE(result.feasible);
  for (IsolationLevel level : result.levels) {
    EXPECT_EQ(level, IsolationLevel::kSI);
  }
  EXPECT_EQ(result.robustness_checks, 2 * tpcc.num_templates());
}

TEST(TemplateAllocationTest, SmallBankNeedsSsi) {
  TemplateSet bank = SmallBankTemplates();
  TemplateAnalysis analysis = AnalyzeTemplates(bank);
  TemplateAllocationResult result = ComputeOptimalTemplateAllocation(analysis);
  int ssi_count = 0;
  for (IsolationLevel level : result.levels) {
    if (level == IsolationLevel::kSSI) ++ssi_count;
  }
  EXPECT_GT(ssi_count, 0);
  // The computed allocation is robust.
  StatusOr<TemplateRobustnessResult> check = analysis.Check(result.levels);
  ASSERT_TRUE(check.ok());
  EXPECT_TRUE(check->robust);
  std::string text = FormatTemplateAllocation(bank, result.levels);
  EXPECT_NE(text.find("WriteCheck="), std::string::npos);
}

TEST(TemplateAllocationTest, AuctionMixesLevels) {
  TemplateSet auction = AuctionTemplates();
  TemplateAllocationResult result =
      ComputeOptimalTemplateAllocation(AnalyzeTemplates(auction));
  int get_high_bid = auction.FindTemplate("GetHighBid");
  int place_bid = auction.FindTemplate("PlaceBid");
  int edit = auction.FindTemplate("EditListing");
  ASSERT_GE(get_high_bid, 0);
  EXPECT_EQ(result.levels[get_high_bid], IsolationLevel::kRC);
  EXPECT_EQ(result.levels[place_bid], IsolationLevel::kSSI);
  EXPECT_EQ(result.levels[edit], IsolationLevel::kSI);
}

TEST(TemplateAllocationTest, BoundsAreValidatedPerTemplate) {
  TemplateAnalysis tpcc = AnalyzeTemplates(TpccTemplates());
  const size_t k = tpcc.num_templates();
  EXPECT_FALSE(
      ComputeOptimalTemplateAllocation(tpcc, AllocationBounds::Free(k + 1))
          .ok());
  StatusOr<TemplateAllocationResult> empty = ComputeOptimalTemplateAllocation(
      tpcc, AllocationBounds::RcSi(k).AtLeast(0, IsolationLevel::kSSI));
  ASSERT_FALSE(empty.ok());
  EXPECT_NE(std::string(empty.status().message())
                .find(tpcc.set().tmpl(0).name()),
            std::string::npos)
      << empty.status();
}

TEST(TemplateRcSiTest, TpccIsAllocatableSmallBankIsNot) {
  TemplateAnalysis tpcc_analysis = AnalyzeTemplates(TpccTemplates());
  StatusOr<TemplateAllocationResult> tpcc = ComputeOptimalTemplateAllocation(
      tpcc_analysis, AllocationBounds::RcSi(tpcc_analysis.num_templates()));
  ASSERT_TRUE(tpcc.ok()) << tpcc.status();
  EXPECT_TRUE(tpcc->feasible);
  for (IsolationLevel level : tpcc->levels) {
    EXPECT_EQ(level, IsolationLevel::kSI);  // Everything stays at SI.
  }

  TemplateAnalysis bank_analysis = AnalyzeTemplates(SmallBankTemplates());
  StatusOr<TemplateAllocationResult> bank = ComputeOptimalTemplateAllocation(
      bank_analysis, AllocationBounds::RcSi(bank_analysis.num_templates()));
  ASSERT_TRUE(bank.ok());
  EXPECT_FALSE(bank->feasible);
  EXPECT_TRUE(bank->levels.empty());
  ASSERT_TRUE(bank->counterexample.has_value());
}

TEST(TemplateRcSiTest, RcOnlyWorkloadDropsToRc) {
  StatusOr<TemplateSet> set = ParseTemplateSet(R"(
    domain N 2
    Lookup(n:N): R[row_$n]
    Insert(n:N): W[fresh_$n]
  )");
  ASSERT_TRUE(set.ok());
  StatusOr<TemplateAllocationResult> result = ComputeOptimalTemplateAllocation(
      AnalyzeTemplates(*set), AllocationBounds::RcSi(set->size()));
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->feasible);
  for (IsolationLevel level : result->levels) {
    EXPECT_EQ(level, IsolationLevel::kRC);
  }
}

// Empirical small-model check: growing the canonical instantiation does
// not change template-level answers on the shipped workloads.
TEST(TemplateSaturationTest, AnswersStableUnderLargerInstantiation) {
  struct Case {
    TemplateSet set;
    TemplateSet larger;
  };
  std::vector<Case> cases;
  cases.push_back({SmallBankTemplates(2), SmallBankTemplates(3)});
  cases.push_back({AuctionTemplates(1, 2), AuctionTemplates(2, 3)});

  for (Case& c : cases) {
    TemplateAllocationResult base =
        ComputeOptimalTemplateAllocation(AnalyzeTemplates(c.set));
    TemplateAllocationResult grown =
        ComputeOptimalTemplateAllocation(AnalyzeTemplates(c.larger));
    EXPECT_EQ(base.levels, grown.levels);

    InstantiationOptions more_copies;
    more_copies.copies_per_assignment = 3;
    TemplateAllocationResult copied = ComputeOptimalTemplateAllocation(
        AnalyzeTemplates(c.set, more_copies));
    EXPECT_EQ(base.levels, copied.levels);
  }
}

TEST(TemplateExplainTest, SmallBankObstaclesNameTheAnomalies) {
  TemplateAnalysis bank = AnalyzeTemplates(SmallBankTemplates());
  TemplateAllocationResult optimal = ComputeOptimalTemplateAllocation(bank);
  StatusOr<TemplateExplanation> explanation =
      ExplainTemplateAllocation(bank, optimal.levels);
  ASSERT_TRUE(explanation.ok()) << explanation.status();
  // Optimal: every template above RC has an obstacle per lower level.
  for (const TemplateObstacle& entry : explanation->per_template) {
    size_t below = static_cast<size_t>(entry.assigned);
    EXPECT_EQ(entry.obstacles.size(), below)
        << bank.set().tmpl(entry.tmpl).name();
  }
  std::string text = explanation->ToString(bank);
  EXPECT_NE(text.find("WriteCheck = SSI"), std::string::npos);
  EXPECT_NE(text.find("not SI:"), std::string::npos);
}

TEST(TemplateExplainTest, RejectsNonRobustAllocation) {
  TemplateAnalysis bank = AnalyzeTemplates(SmallBankTemplates());
  TemplateAllocation all_si(bank.num_templates(), IsolationLevel::kSI);
  StatusOr<TemplateExplanation> explanation =
      ExplainTemplateAllocation(bank, all_si);
  EXPECT_FALSE(explanation.ok());
  EXPECT_EQ(explanation.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(ExplainTemplateAllocation(bank, TemplateAllocation{}).ok());
}

TEST(TemplateSetTest, ToStringRoundTrips) {
  TemplateSet bank = SmallBankTemplates();
  StatusOr<TemplateSet> reparsed = ParseTemplateSet(bank.ToString());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_EQ(reparsed->size(), bank.size());
  EXPECT_EQ(reparsed->ToString(), bank.ToString());
}

// Parsing a v2 construct must fail with a message naming the offending
// pattern or constraint; these assert the exact phrasing documented in
// docs/templates.md.
void ExpectParseError(const std::string& text, std::string_view needle) {
  StatusOr<TemplateSet> set = ParseTemplateSet(text);
  ASSERT_FALSE(set.ok()) << "parsed unexpectedly:\n" << text;
  EXPECT_NE(std::string(set.status().message()).find(needle),
            std::string::npos)
      << set.status() << "\nexpected substring: " << needle;
}

TEST(TemplateV2ParserTest, RejectsBadPredicatePatterns) {
  ExpectParseError("domain I 2\nT(i:I): R[x_$]", "dangling $ in pattern x_$");
  ExpectParseError("domain I 2\nT(i:I): R[x_*]", "dangling * in pattern x_*");
  ExpectParseError("domain I 2\nT(lo:I, hi:I): R[s_$lo..]",
                   "malformed range in pattern s_$lo.. (expected $lo..$hi)");
  ExpectParseError("domain I 2\nT(lo:I, hi:I): R[s_$lo..hi]",
                   "malformed range in pattern s_$lo..hi (expected $lo..$hi)");
  ExpectParseError("domain A 2\ndomain B 2\nT(lo:A, hi:B): R[s_$lo..$hi]",
                   "range bounds $lo..$hi must share a domain in s_$lo..$hi");
  ExpectParseError("domain I 2\nT(lo:I, hi:I): W[s_$lo..$hi]",
                   "predicate writes are not supported (pattern s_$lo..$hi)");
  ExpectParseError("domain I 2\nT(): W[s_*I]",
                   "predicate writes are not supported (pattern s_*I)");
  ExpectParseError("domain I 2\nT(i:I): R[x_*Q]",
                   "undeclared domain *Q in x_*Q");
  ExpectParseError("domain I 2\nT(i:I): R[s_$lo..$hi]",
                   "undeclared parameter $lo");
}

TEST(TemplateV2ParserTest, RejectsBadFunctionsAndVersions) {
  ExpectParseError("version 3", "unsupported template format version");
  ExpectParseError("domain A 2\nfunction f A",
                   "malformed function declaration");
  ExpectParseError("domain A 2\nfunction f A B",
                   "function f: undeclared domain B");
  ExpectParseError("domain A 3\ndomain B 2\nfunction f A B injective",
                   "injective function f needs |B| >= |A|");
  ExpectParseError("domain A 2\ndomain B 2\nfunction f A B\nfunction f A A",
                   "duplicate function f with a different signature");
}

TEST(TemplateV2ParserTest, RejectsBadConstraints) {
  const std::string base = "domain A 2\nT(x:A, y:A): R[k_$x] W[m_$y]\n";
  ExpectParseError(base + "constraint T x y", "malformed constraint");
  ExpectParseError(base + "constraint T: x ~ y", "malformed constraint");
  ExpectParseError(base + "constraint U: x == y",
                   "constraint references unknown template U");
  ExpectParseError(base + "constraint T: q == y",
                   "references unknown parameter q");
  ExpectParseError(base + "constraint T: x == x",
                   "relates parameter x to itself");
  ExpectParseError(base + "constraint T: x = f(x)",
                   "must not determine parameter x from itself");
  ExpectParseError(base + "constraint T: x == y\nconstraint T: x != y",
                   "contradictory constraints on T: parameters x and y are "
                   "equated and required distinct");
  ExpectParseError(
      "domain A 2\ndomain B 2\nfunction f A B\n"
      "T(x:A, y:A): R[k_$x] W[m_$y]\nconstraint T: y = f(x)",
      "function f is declared A -> B but is used as A -> A");
}

TEST(TemplateV2ParserTest, DetectsContradictionThroughSharedDependencies) {
  // a = f(c) and b = f(c) force a == b in every world, so a != b is
  // unsatisfiable even though no explicit equality was declared.
  ExpectParseError(
      "domain A 2\n"
      "T(a:A, b:A, c:A): R[k_$a] R[m_$b] W[n_$c]\n"
      "constraint T: a = f(c)\n"
      "constraint T: b = f(c)\n"
      "constraint T: a != b",
      "contradictory constraints on T: parameters a and b are equated and "
      "required distinct");
}

TEST(TemplateV2ParserTest, ParsesVersionedV2Sets) {
  StatusOr<TemplateSet> set = ParseTemplateSet(R"(
    version 2
    domain I 3
    function next I I injective
    Scan(lo:I, hi:I): R[s_$lo..$hi]
    Sweep(): R[s_*I]
    Touch(i:I, j:I): R[s_$i] W[s_$j]
    constraint Touch: j = next(i)
  )");
  ASSERT_TRUE(set.ok()) << set.status();
  EXPECT_TRUE(set->UsesV2Features());
  EXPECT_TRUE(set->tmpl(0).HasPredicateReads());
  EXPECT_TRUE(set->tmpl(1).HasPredicateReads());
  EXPECT_FALSE(set->tmpl(2).HasPredicateReads());
  EXPECT_EQ(set->functions().size(), 1u);
  EXPECT_EQ(set->constraints().size(), 1u);

  // Stripping constraints keeps the predicate reads: the set still needs
  // the v2 machinery, but no function worlds.
  TemplateSet plain = set->WithoutConstraints();
  EXPECT_TRUE(plain.constraints().empty());
  EXPECT_TRUE(plain.functions().empty());
  EXPECT_TRUE(plain.UsesV2Features());

  EXPECT_FALSE(SmallBankTemplates().UsesV2Features());
  EXPECT_TRUE(TpccScanTemplates().UsesV2Features());

  StatusOr<TemplateSet> reparsed = ParseTemplateSet(set->ToString());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_EQ(reparsed->ToString(), set->ToString());
}

TEST(TemplateV2InstantiateTest, RangeAndWildcardExpansion) {
  StatusOr<TemplateSet> parsed = ParseTemplateSet(R"(
    domain I 3
    Scan(lo:I, hi:I): R[s_$lo..$hi]
    Sweep(): R[s_*I] W[log]
  )");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const TemplateSet& set = *parsed;

  EXPECT_EQ(ExpandTemplateOpObjects(set, set.tmpl(0), set.tmpl(0).ops()[0],
                                    {0, 2}),
            (std::vector<std::string>{"s_0", "s_1", "s_2"}));
  // Inverted bounds denote the empty range: the instance reads nothing.
  EXPECT_TRUE(ExpandTemplateOpObjects(set, set.tmpl(0), set.tmpl(0).ops()[0],
                                      {2, 0})
                  .empty());
  EXPECT_EQ(
      ExpandTemplateOpObjects(set, set.tmpl(1), set.tmpl(1).ops()[0], {}),
      (std::vector<std::string>{"s_0", "s_1", "s_2"}));

  InstantiationOptions options;
  options.copies_per_assignment = 1;
  StatusOr<Instantiation> inst = InstantiateTemplates(set, options);
  ASSERT_TRUE(inst.ok()) << inst.status();
  // Scan: 6 ordered (lo, hi) pairs with lo != hi; Sweep: one instance.
  EXPECT_EQ(inst->txns.size(), 7u);
  // Every expanded point read maps back to the range op it came from.
  for (size_t k = 0; k < inst->txns.size(); ++k) {
    if (inst->template_of_txn[k] != 0) continue;
    for (int tmpl_op : inst->template_op_of_op[k]) EXPECT_EQ(tmpl_op, 0);
  }
}

TEST(TemplateV2InstantiateTest, EqualityConstraintExemptsDistinctRule) {
  StatusOr<TemplateSet> set = ParseTemplateSet(R"(
    domain D 2
    Move(s:D, d:D): R[i_$s] W[i_$d]
    constraint Move: s == d
  )");
  ASSERT_TRUE(set.ok()) << set.status();
  InstantiationOptions options;
  options.copies_per_assignment = 1;
  StatusOr<Instantiation> inst = InstantiateTemplates(*set, options);
  ASSERT_TRUE(inst.ok()) << inst.status();
  // The equality overrides the implicit distinct-parameter rule for the
  // equated pair: exactly Move(0,0) and Move(1,1) are admissible.
  ASSERT_EQ(inst->txns.size(), 2u);
  EXPECT_EQ(inst->txns.txn(0).name(), "Move_s0_d0#1");
  EXPECT_EQ(inst->txns.txn(1).name(), "Move_s1_d1#1");
}

TEST(TemplateV2InstantiateTest, WorldBudgetIsEnforced) {
  // f: A -> A over |A| = 4 has 256 interpretations, past the default
  // 64-world budget.
  StatusOr<TemplateSet> set = ParseTemplateSet(R"(
    domain A 4
    T(x:A, y:A): R[k_$x] W[m_$y]
    constraint T: y = f(x)
  )");
  ASSERT_TRUE(set.ok()) << set.status();
  StatusOr<std::vector<WorldInstantiation>> worlds =
      InstantiateAllWorlds(*set);
  ASSERT_FALSE(worlds.ok());
  EXPECT_EQ(worlds.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(std::string(worlds.status().message()).find("worlds"),
            std::string::npos);

  // The single-world convenience overload refuses function sets outright.
  StatusOr<Instantiation> single = InstantiateTemplates(*set);
  ASSERT_FALSE(single.ok());
  EXPECT_EQ(single.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace mvrob
