// Property tests for Theorems 3.2 and 3.3: on randomly generated small
// transaction sets and allocations,
//   Algorithm 1 (CheckRobustness)
//     == brute-force enumeration of all allowed schedules
//     == direct enumeration of multiversion split schedules,
// and every counterexample chain verifies end-to-end (the built split
// schedule is allowed under the allocation and not conflict serializable).
#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/analyzer.h"
#include "core/robustness.h"
#include "core/split_schedule.h"
#include "oracle/brute_force.h"
#include "oracle/split_enumerator.h"
#include "workloads/synthetic.h"

namespace mvrob {
namespace {

// Deterministically derives a mixed allocation from a seed.
Allocation MixedAllocation(size_t n, uint64_t seed) {
  Rng rng(seed * 7919 + 13);
  std::vector<IsolationLevel> levels(n);
  for (size_t i = 0; i < n; ++i) {
    levels[i] = kAllIsolationLevels[rng.Index(3)];
  }
  return Allocation(std::move(levels));
}

struct PropertyCase {
  int num_txns;
  int num_objects;
  int max_ops;
  bool at_most_one_access;
  uint64_t seed;
};

void CheckAllThreeAgree(const TransactionSet& txns, const Allocation& alloc) {
  SCOPED_TRACE(txns.ToString() + "alloc: " + alloc.ToString(txns));
  RobustnessResult algorithm = CheckRobustness(txns, alloc);
  StatusOr<BruteForceResult> brute = BruteForceRobustness(txns, alloc);
  ASSERT_TRUE(brute.ok()) << brute.status();
  EXPECT_EQ(algorithm.robust, brute->robust);

  // The matrix-cached analyzer agrees with the reference checker and its
  // witnesses verify too.
  RobustnessAnalyzer analyzer(txns);
  RobustnessResult fast = analyzer.Check(alloc);
  EXPECT_EQ(fast.robust, algorithm.robust);
  if (!fast.robust) {
    Status verified = VerifyCounterexample(txns, alloc, *fast.counterexample);
    EXPECT_TRUE(verified.ok()) << verified;
  }

  std::optional<CounterexampleChain> split =
      EnumerateSplitSchedules(txns, alloc);
  EXPECT_EQ(split.has_value(), !algorithm.robust);

  if (!algorithm.robust) {
    Status verified = VerifyCounterexample(txns, alloc, *algorithm.counterexample);
    EXPECT_TRUE(verified.ok()) << verified;
  }
  if (split.has_value()) {
    Status verified = VerifyCounterexample(txns, alloc, *split);
    EXPECT_TRUE(verified.ok()) << verified;
  }
}

class RobustnessPropertyTest
    : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(RobustnessPropertyTest, AlgorithmOracleAndSplitEnumerationAgree) {
  const PropertyCase& param = GetParam();
  SyntheticParams params;
  params.num_txns = param.num_txns;
  params.num_objects = param.num_objects;
  params.min_ops = 1;
  params.max_ops = param.max_ops;
  params.write_fraction = 0.5;
  params.hotspot_fraction = 0.5;
  params.num_hotspots = 2;
  params.at_most_one_access = param.at_most_one_access;
  params.seed = param.seed;
  TransactionSet txns = GenerateSynthetic(params);

  // The three homogeneous allocations plus three derived mixed ones.
  CheckAllThreeAgree(txns, Allocation::AllRC(txns.size()));
  CheckAllThreeAgree(txns, Allocation::AllSI(txns.size()));
  CheckAllThreeAgree(txns, Allocation::AllSSI(txns.size()));
  for (uint64_t salt = 0; salt < 3; ++salt) {
    CheckAllThreeAgree(txns,
                       MixedAllocation(txns.size(), param.seed * 31 + salt));
  }
}

std::vector<PropertyCase> MakeCases() {
  std::vector<PropertyCase> cases;
  // Two transactions: cheap, run many seeds (restricted regime).
  for (uint64_t seed = 0; seed < 25; ++seed) {
    cases.push_back({2, 3, 3, true, seed});
  }
  // Two transactions, general regime (multiple accesses per object).
  for (uint64_t seed = 0; seed < 10; ++seed) {
    cases.push_back({2, 2, 4, false, 100 + seed});
  }
  // Three transactions: the interesting regime for chains and SSI triples.
  for (uint64_t seed = 0; seed < 30; ++seed) {
    cases.push_back({3, 3, 3, true, 200 + seed});
  }
  // Three transactions with higher contention on fewer objects.
  for (uint64_t seed = 0; seed < 10; ++seed) {
    cases.push_back({3, 2, 3, true, 300 + seed});
  }
  // A few four-transaction cases with small transactions (inner chains).
  for (uint64_t seed = 0; seed < 8; ++seed) {
    cases.push_back({4, 3, 2, true, 400 + seed});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RobustnessPropertyTest, ::testing::ValuesIn(MakeCases()),
    [](const ::testing::TestParamInfo<PropertyCase>& info) {
      const PropertyCase& c = info.param;
      return "n" + std::to_string(c.num_txns) + "_o" +
             std::to_string(c.num_objects) + "_k" +
             std::to_string(c.max_ops) + (c.at_most_one_access ? "_r" : "_g") +
             "_s" + std::to_string(c.seed);
    });

// Upward monotonicity of robustness (Proposition 4.1(1)) on random sets:
// raising any transaction's level preserves robustness. Checked with
// Algorithm 1 over the full 3^n allocation lattice.
class MonotonicityPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MonotonicityPropertyTest, RobustnessPropagatesUpwards) {
  SyntheticParams params;
  params.num_txns = 3;
  params.num_objects = 3;
  params.min_ops = 1;
  params.max_ops = 3;
  params.write_fraction = 0.5;
  params.seed = GetParam();
  TransactionSet txns = GenerateSynthetic(params);

  for (int code = 0; code < 27; ++code) {
    int digits = code;
    std::vector<IsolationLevel> levels;
    for (int i = 0; i < 3; ++i) {
      levels.push_back(kAllIsolationLevels[digits % 3]);
      digits /= 3;
    }
    Allocation alloc(levels);
    if (!CheckRobustness(txns, alloc).robust) continue;
    for (TxnId t = 0; t < txns.size(); ++t) {
      for (IsolationLevel higher : kAllIsolationLevels) {
        if (!(alloc.level(t) < higher)) continue;
        EXPECT_TRUE(CheckRobustness(txns, alloc.With(t, higher)).robust)
            << txns.ToString() << alloc.ToString(txns) << " raising T"
            << t + 1;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, MonotonicityPropertyTest,
                         ::testing::Range<uint64_t>(0, 15));

// Constructive Proposition 5.1: every counterexample chain against A_SI is
// *itself* a valid chain against A_RC (weaker ww constraint, extra RC
// split case, vacuous SSI conditions) — so robustness against A_RC implies
// robustness against A_SI, witness included.
class Prop51ConstructiveTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Prop51ConstructiveTest, SiWitnessValidatesAtRc) {
  SyntheticParams params;
  params.num_txns = 4;
  params.num_objects = 3;
  params.min_ops = 1;
  params.max_ops = 4;
  params.write_fraction = 0.5;
  params.hotspot_fraction = 0.5;
  params.num_hotspots = 2;
  params.seed = GetParam() * 191;
  TransactionSet txns = GenerateSynthetic(params);

  RobustnessResult si = CheckRobustness(txns, Allocation::AllSI(txns.size()));
  if (si.robust) return;
  Allocation rc = Allocation::AllRC(txns.size());
  Status valid = ValidateSplitChain(txns, rc, *si.counterexample);
  EXPECT_TRUE(valid.ok()) << valid << "\n" << txns.ToString();
  Status verified = VerifyCounterexample(txns, rc, *si.counterexample);
  EXPECT_TRUE(verified.ok()) << verified;
}

INSTANTIATE_TEST_SUITE_P(Sweep, Prop51ConstructiveTest,
                         ::testing::Range<uint64_t>(0, 30));

// Analyzer vs reference checker at sizes the brute-force oracle cannot
// reach — many transactions, many allocations, both regimes.
class AnalyzerAgreementTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AnalyzerAgreementTest, MatchesReferenceChecker) {
  SyntheticParams params;
  params.num_txns = 4 + static_cast<int>(GetParam() % 9);
  params.num_objects = 3 + static_cast<int>(GetParam() % 5);
  params.min_ops = 1;
  params.max_ops = 5;
  params.write_fraction = 0.45;
  params.hotspot_fraction = 0.4;
  params.num_hotspots = 2;
  params.at_most_one_access = GetParam() % 2 == 0;
  params.seed = GetParam() * 733;
  TransactionSet txns = GenerateSynthetic(params);
  RobustnessAnalyzer analyzer(txns);

  CheckRobustness(txns, Allocation::AllSI(txns.size()));
  for (uint64_t salt = 0; salt < 6; ++salt) {
    Allocation alloc = salt < 3
                           ? Allocation(txns.size(), kAllIsolationLevels[salt])
                           : MixedAllocation(txns.size(), GetParam() * 7 + salt);
    RobustnessResult reference = CheckRobustness(txns, alloc);
    RobustnessResult fast = analyzer.Check(alloc);
    ASSERT_EQ(reference.robust, fast.robust)
        << txns.ToString() << alloc.ToString(txns);
    EXPECT_EQ(reference.triples_examined, fast.triples_examined);
    if (!fast.robust) {
      // The whole chain, inner path included: the analyzer's bit-row BFS
      // must walk MixedIsoGraph::FindInnerChain's order.
      const CounterexampleChain& want = *reference.counterexample;
      const CounterexampleChain& got = *fast.counterexample;
      EXPECT_EQ(want.t1, got.t1);
      EXPECT_EQ(want.t2, got.t2);
      EXPECT_EQ(want.tm, got.tm);
      EXPECT_EQ(want.b1, got.b1);
      EXPECT_EQ(want.a1, got.a1);
      EXPECT_EQ(want.a2, got.a2);
      EXPECT_EQ(want.bm, got.bm);
      EXPECT_EQ(want.inner, got.inner)
          << txns.ToString() << alloc.ToString(txns);
      Status verified =
          VerifyCounterexample(txns, alloc, *fast.counterexample);
      EXPECT_TRUE(verified.ok()) << verified;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, AnalyzerAgreementTest,
                         ::testing::Range<uint64_t>(0, 60));

// Sparse sets (many objects, short transactions), where witnesses mostly
// need inner transactions: the analyzer's chain, inner path included,
// equals the reference checker's MixedIsoGraph path.
TEST(InnerChainAgreementTest, SparseSetsMatchReferencePaths) {
  int with_inner = 0;
  int with_long_inner = 0;
  for (uint64_t seed = 0; seed < 80; ++seed) {
    SyntheticParams params;
    params.num_txns = 8 + static_cast<int>(seed % 9);
    params.num_objects = 2 * params.num_txns + static_cast<int>(seed % 12);
    params.min_ops = 2;
    params.max_ops = 3;
    params.write_fraction = 0.5;
    params.seed = seed * 31 + 7;
    TransactionSet txns = GenerateSynthetic(params);
    RobustnessAnalyzer analyzer(txns);
    const size_t n = txns.size();
    for (uint64_t salt = 0; salt < 4; ++salt) {
      Allocation alloc = salt < 3 ? Allocation(n, kAllIsolationLevels[salt])
                                  : MixedAllocation(n, seed);
      RobustnessResult reference = CheckRobustness(txns, alloc);
      RobustnessResult fast = analyzer.Check(alloc);
      ASSERT_EQ(reference.robust, fast.robust);
      if (fast.robust) continue;
      EXPECT_EQ(reference.counterexample->ChainTxns(),
                fast.counterexample->ChainTxns())
          << txns.ToString() << alloc.ToString(txns);
      with_inner += fast.counterexample->inner.empty() ? 0 : 1;
      with_long_inner += fast.counterexample->inner.size() > 1 ? 1 : 0;
    }
  }
  // The sweep must actually exercise the inner-path search.
  EXPECT_GE(with_inner, 40);
  EXPECT_GE(with_long_inner, 15);
}

}  // namespace
}  // namespace mvrob
