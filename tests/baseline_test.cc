// Cross-checks of the independent homogeneous checkers (baseline/) against
// Algorithm 1 at A_SI and A_RC, plus Proposition 5.1 at scale.
#include <gtest/gtest.h>

#include "baseline/rc_robustness.h"
#include "baseline/si_robustness.h"
#include "core/robustness.h"
#include "oracle/reference_checker.h"
#include "txn/parser.h"
#include "workloads/synthetic.h"

namespace mvrob {
namespace {

TransactionSet Parse(const char* text) {
  StatusOr<TransactionSet> txns = ParseTransactionSet(text);
  EXPECT_TRUE(txns.ok()) << txns.status();
  return std::move(txns).value();
}

TEST(SiBaselineTest, KnownCases) {
  EXPECT_FALSE(SiRobust(Parse("T1: R[x] W[y]\nT2: R[y] W[x]")));  // Skew.
  EXPECT_TRUE(SiRobust(Parse("T1: R[x] W[x]\nT2: R[x] W[x]")));   // Lost upd.
  EXPECT_TRUE(SiRobust(Parse("T1: R[x]\nT2: W[x]")));
  // A three-transaction SI anomaly with a read-only observer:
  // T1 = WriteCheck-like, T2 = TransactSavings-like, T3 = Balance-like.
  EXPECT_FALSE(SiRobust(Parse(R"(
    T1: R[s] R[c] W[c]
    T2: R[s] W[s]
    T3: R[s] R[c]
  )")));
}

TEST(RcBaselineTest, KnownCases) {
  EXPECT_FALSE(RcRobust(Parse("T1: R[x] W[x]\nT2: R[x] W[x]")));
  EXPECT_TRUE(RcRobust(Parse("T1: R[x]\nT2: W[x]")));
  EXPECT_FALSE(RcRobust(Parse("T1: R[x] W[y]\nT2: R[y] W[x]")));
  EXPECT_TRUE(RcRobust(Parse("T1: R[x] W[x]\nT2: R[y] W[y]")));
}

struct BaselineCase {
  int num_txns;
  int num_objects;
  int max_ops;
  uint64_t seed;
};

class BaselineAgreementTest : public ::testing::TestWithParam<BaselineCase> {};

TEST_P(BaselineAgreementTest, BaselinesAgreeWithAlgorithm1) {
  const BaselineCase& c = GetParam();
  SyntheticParams params;
  params.num_txns = c.num_txns;
  params.num_objects = c.num_objects;
  params.min_ops = 1;
  params.max_ops = c.max_ops;
  params.write_fraction = 0.45;
  params.hotspot_fraction = 0.5;
  params.num_hotspots = 2;
  params.seed = c.seed;
  TransactionSet txns = GenerateSynthetic(params);

  EXPECT_EQ(SiRobust(txns), CheckRobustnessSI(txns).robust)
      << txns.ToString();
  EXPECT_EQ(RcRobust(txns), CheckRobustnessRC(txns).robust)
      << txns.ToString();
  // Proposition 5.1: robustness against A_RC implies robustness against
  // A_SI.
  if (CheckRobustnessRC(txns).robust) {
    EXPECT_TRUE(CheckRobustnessSI(txns).robust) << txns.ToString();
  }
}

std::vector<BaselineCase> MakeBaselineCases() {
  std::vector<BaselineCase> cases;
  for (uint64_t seed = 0; seed < 40; ++seed) {
    cases.push_back({3, 3, 3, seed});
  }
  for (uint64_t seed = 0; seed < 40; ++seed) {
    cases.push_back({5, 4, 4, 100 + seed});
  }
  for (uint64_t seed = 0; seed < 20; ++seed) {
    cases.push_back({8, 5, 4, 200 + seed});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BaselineAgreementTest, ::testing::ValuesIn(MakeBaselineCases()),
    [](const ::testing::TestParamInfo<BaselineCase>& info) {
      const BaselineCase& c = info.param;
      return "n" + std::to_string(c.num_txns) + "_s" +
             std::to_string(c.seed);
    });

}  // namespace
}  // namespace mvrob
