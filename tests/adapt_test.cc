#include "adapt/controller.h"

#include <atomic>
#include <chrono>
#include <string>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "core/robustness.h"
#include "iso/allocation.h"
#include "mvcc/driver.h"
#include "mvcc/txn_trace.h"
#include "oracle/reference_checker.h"
#include "txn/parser.h"

namespace mvrob {
namespace {

using std::chrono::steady_clock;

TransactionSet Parse(const char* text) {
  StatusOr<TransactionSet> txns = ParseTransactionSet(text);
  EXPECT_TRUE(txns.ok()) << txns.status().ToString();
  return *txns;
}

LevelObservation Obs(uint64_t commits, uint64_t aborts, uint64_t p95) {
  LevelObservation o;
  o.commits = commits;
  o.aborts = aborts;
  o.p95_latency_us = p95;
  return o;
}

LevelObservations Levels(LevelObservation rc, LevelObservation si,
                         LevelObservation ssi) {
  LevelObservations obs;
  obs.per_level[static_cast<size_t>(IsolationLevel::kRC)] = rc;
  obs.per_level[static_cast<size_t>(IsolationLevel::kSI)] = si;
  obs.per_level[static_cast<size_t>(IsolationLevel::kSSI)] = ssi;
  return obs;
}

// --- DeriveWeights: fixed observations in, fixed weights out. ------------

TEST(DeriveWeightsTest, DefaultsWhenNothingObserved) {
  EXPECT_EQ(DeriveWeights(LevelObservations{}), (AdaptWeights{1, 2}));
}

TEST(DeriveWeightsTest, DefaultsWithoutRcBaseline) {
  // SI/SSI traffic without an RC baseline is not comparable to anything;
  // both slots keep their defaults.
  LevelObservations obs =
      Levels(Obs(0, 0, 0), Obs(100, 50, 500), Obs(100, 50, 900));
  EXPECT_EQ(DeriveWeights(obs), (AdaptWeights{1, 2}));
}

TEST(DeriveWeightsTest, RelativeCostRatios) {
  // score(RC) = (1 + 0) * 100 = 100
  // score(SI) = (1 + 100/200) * 200 = 300       -> si  = 3
  // score(SSI) = (1 + 300/400) * 400 = 700      -> ssi = 7
  LevelObservations obs =
      Levels(Obs(100, 0, 100), Obs(100, 100, 200), Obs(100, 300, 400));
  EXPECT_EQ(DeriveWeights(obs), (AdaptWeights{3, 7}));
}

TEST(DeriveWeightsTest, UnobservedSsiKeepsPreferenceOrder) {
  // SI derives to 4x RC; SSI went unobserved, so it is lifted from its
  // default 2 to weight_si — RC < SI <= SSI must survive.
  LevelObservations obs =
      Levels(Obs(100, 0, 100), Obs(100, 0, 400), Obs(0, 0, 0));
  EXPECT_EQ(DeriveWeights(obs), (AdaptWeights{4, 4}));
}

TEST(DeriveWeightsTest, ClampsExtremeRatios) {
  LevelObservations obs = Levels(Obs(100, 0, 1), Obs(100, 0, 100000),
                                 Obs(100, 0, 1000000));
  EXPECT_EQ(DeriveWeights(obs), (AdaptWeights{64, 128}));
}

TEST(DeriveWeightsTest, SiFloorIsOne) {
  // SI cheaper than RC in the window still costs at least 1.
  LevelObservations obs =
      Levels(Obs(100, 0, 1000), Obs(100, 0, 10), Obs(100, 0, 2000));
  EXPECT_EQ(DeriveWeights(obs), (AdaptWeights{1, 2}));
}

// --- ObserveLevels: windowed series at a fake clock. ---------------------

TEST(ObserveLevelsTest, ReadsWindowTotalsDeterministically) {
  MetricsRegistry registry;
  const LiveTelemetry live = MakeLiveTelemetry(registry, /*window=*/60);
  const steady_clock::time_point t0 = steady_clock::now();

  const size_t si = static_cast<size_t>(IsolationLevel::kSI);
  live.per_level[si].commits->Add(10, t0);
  live.per_level[si].commits->Add(5, t0 + std::chrono::seconds(1));
  live.per_level[si].aborts_write_conflict->Add(2, t0);
  live.per_level[si].aborts_ssi->Add(3, t0);
  live.per_level[si].aborts_deadlock->Add(4, t0);
  live.per_level[si].commit_latency_us->Observe(100, t0);

  const LevelObservations now =
      ObserveLevels(live, t0 + std::chrono::seconds(2));
  EXPECT_EQ(now.per_level[si].commits, 15u);
  EXPECT_EQ(now.per_level[si].aborts, 9u);  // All three reasons summed.
  EXPECT_GT(now.per_level[si].p95_latency_us, 0u);
  EXPECT_LE(now.per_level[si].p95_latency_us, 100u);

  // Everything ages out of the trailing window.
  const LevelObservations later =
      ObserveLevels(live, t0 + std::chrono::seconds(200));
  EXPECT_EQ(later.per_level[si].commits, 0u);
  EXPECT_EQ(later.per_level[si].aborts, 0u);
  EXPECT_EQ(later.per_level[si].p95_latency_us, 0u);
}

// --- ActiveAllocation slot semantics. ------------------------------------

TEST(ActiveAllocationTest, SnapshotAndInstall) {
  TransactionSet txns = Parse("T1: R[x] W[y]\nT2: R[y] W[x]");
  ActiveAllocation active(txns, Allocation::AllSSI(txns.size()));
  EXPECT_EQ(active.generation(), 0u);

  TransactionSet got_txns;
  Allocation got_alloc;
  EXPECT_EQ(active.Snapshot(&got_txns, &got_alloc), 0u);
  EXPECT_EQ(got_txns.size(), 2u);
  EXPECT_EQ(got_alloc, Allocation::AllSSI(2));

  EXPECT_EQ(active.Install(txns, Allocation::AllSI(2)), 1u);
  EXPECT_EQ(active.Snapshot(nullptr, &got_alloc), 1u);
  EXPECT_EQ(got_alloc, Allocation::AllSI(2));
}

// --- The controller's decision cycle. ------------------------------------

// Asserts the invariant the whole design hangs on: whatever is in the slot
// is robust.
void ExpectActiveRobust(const ActiveAllocation& active) {
  TransactionSet txns;
  Allocation alloc;
  active.Snapshot(&txns, &alloc);
  EXPECT_TRUE(CheckRobustness(txns, alloc).robust)
      << alloc.ToString(txns);
}

TEST(AdaptControllerTest, FirstDecisionSwapsToTheOptimum) {
  TransactionSet base = Parse("T1: R[x] W[x]\nT2: R[x] W[x]\nT3: R[q]");
  ActiveAllocation active(base, Allocation::AllSSI(base.size()));
  MetricsRegistry registry;
  AdaptControllerOptions options;
  options.metrics = &registry;
  AdaptController controller(base, /*live=*/nullptr, &active, options);

  ASSERT_TRUE(controller.DecideOnce(steady_clock::now()));
  EXPECT_EQ(controller.decisions(), 1u);
  EXPECT_EQ(controller.swaps(), 1u);
  EXPECT_EQ(active.generation(), 1u);

  // Algorithm 2's unique optimum replaced the all-SSI start.
  Allocation installed;
  active.Snapshot(nullptr, &installed);
  EXPECT_EQ(installed.CountAt(IsolationLevel::kSSI), 0u);
  ExpectActiveRobust(active);

  // A second decision reaches the same optimum: no new swap.
  ASSERT_TRUE(controller.DecideOnce(steady_clock::now()));
  EXPECT_EQ(controller.decisions(), 2u);
  EXPECT_EQ(controller.swaps(), 1u);
  EXPECT_EQ(active.generation(), 1u);

  EXPECT_EQ(registry.counter("adapt.decisions").value(), 2u);
  EXPECT_EQ(registry.counter("adapt.swaps").value(), 1u);
  EXPECT_EQ(registry.counter("adapt.rejected").value(), 0u);
  EXPECT_GE(registry.gauge("adapt.weight{level=SI}").value(), 1);
}

TEST(AdaptControllerTest, CancelledDecisionInstallsNothing) {
  TransactionSet base = Parse("T1: R[x] W[x]\nT2: R[x] W[x]\nT3: R[q]");
  ActiveAllocation active(base, Allocation::AllSSI(base.size()));
  std::atomic<bool> cancel{true};
  AdaptControllerOptions options;
  options.check.cancel = &cancel;
  AdaptController controller(base, /*live=*/nullptr, &active, options);

  EXPECT_FALSE(controller.DecideOnce(steady_clock::now()));
  EXPECT_EQ(controller.decisions(), 0u);
  EXPECT_EQ(controller.swaps(), 0u);
  EXPECT_EQ(active.generation(), 0u);
  Allocation alloc;
  active.Snapshot(nullptr, &alloc);
  EXPECT_EQ(alloc, Allocation::AllSSI(base.size()));
}

TEST(AdaptControllerTest, PromotionBudgetInstallsPromotedWorkload) {
  // Write skew: the base optimum is all-SSI (cost 4), but promoting reads
  // makes a strictly cheaper allocation robust (PR 5's optimizer), so a
  // budgeted controller installs the promoted pair.
  TransactionSet base = Parse("T1: R[x] W[y]\nT2: R[y] W[x]");
  ActiveAllocation active(base, Allocation::AllSSI(base.size()));
  AdaptControllerOptions options;
  options.promotion_budget = 2;
  AdaptController controller(base, /*live=*/nullptr, &active, options);

  ASSERT_TRUE(controller.DecideOnce(steady_clock::now()));
  EXPECT_EQ(controller.swaps(), 1u);

  TransactionSet installed_txns;
  Allocation installed_alloc;
  active.Snapshot(&installed_txns, &installed_alloc);
  // The promoted workload carries extra writes but keeps names/objects.
  EXPECT_EQ(installed_txns.size(), base.size());
  EXPECT_EQ(installed_txns.num_objects(), base.num_objects());
  EXPECT_GT(installed_txns.TotalOps(), base.TotalOps());
  EXPECT_LT(installed_alloc.CountAt(IsolationLevel::kSSI), 2u);
  ExpectActiveRobust(active);

  const std::string json = controller.StatusJson();
  EXPECT_NE(json.find("\"adapt\":true"), std::string::npos);
  EXPECT_NE(json.find("\"promotions\":[\"R"), std::string::npos);
}

TEST(AdaptControllerTest, StatusJsonCarriesHistory) {
  TransactionSet base = Parse("T1: R[x] W[x]\nT2: R[x] W[x]\nT3: R[q]");
  ActiveAllocation active(base, Allocation::AllSSI(base.size()));
  AdaptController controller(base, /*live=*/nullptr, &active,
                             AdaptControllerOptions{});
  ASSERT_TRUE(controller.DecideOnce(steady_clock::now()));

  const std::string json = controller.StatusJson();
  EXPECT_NE(json.find("\"version\":1"), std::string::npos);
  EXPECT_NE(json.find("\"adapt\":true"), std::string::npos);
  EXPECT_NE(json.find("\"decisions\":1"), std::string::npos);
  EXPECT_NE(json.find("\"swaps\":1"), std::string::npos);
  EXPECT_NE(json.find("\"history\":[{\"id\":1"), std::string::npos);
  EXPECT_NE(json.find("\"robust\":true"), std::string::npos);
  EXPECT_NE(json.find("\"installed\":true"), std::string::npos);
  EXPECT_NE(json.find("\"T3\":\"RC\""), std::string::npos);
}

TEST(AdaptControllerTest, DecisionLatencyHistogramIsObserved) {
  TransactionSet base = Parse("T1: R[x] W[x]\nT2: R[x] W[x]\nT3: R[q]");
  ActiveAllocation active(base, Allocation::AllSSI(base.size()));
  MetricsRegistry registry;
  AdaptControllerOptions options;
  options.metrics = &registry;
  AdaptController controller(base, /*live=*/nullptr, &active, options);
  ASSERT_TRUE(controller.DecideOnce(steady_clock::now()));

  // The windowed histogram timing the observe -> install cycle is
  // registered and holds the decision's sample.
  const std::string snapshot = registry.SnapshotJson();
  EXPECT_NE(snapshot.find("adapt.decision_latency_us"), std::string::npos)
      << snapshot;
  EXPECT_NE(
      snapshot.find("\"adapt.decision_latency_us\":{\"total_count\":1"),
      std::string::npos)
      << snapshot;
}

TEST(AdaptControllerTest, DecisionsJournalTracerTopConflicts) {
  TransactionSet base = Parse("T1: W[x]\nT2: W[x]\nT3: R[q]");
  ActiveAllocation active(base, Allocation::AllSSI(base.size()));

  // Seed the tracer's conflict table with two attributed aborts:
  // T2 lost to T1 on x, twice.
  TxnTracer tracer;
  tracer.BeginRun(base);
  tracer.BeginAttempt(0, /*session=*/0, /*txn=*/0, IsolationLevel::kSI);
  tracer.BeginAttempt(0, /*session=*/1, /*txn=*/1, IsolationLevel::kSI);
  ConflictAttribution attribution;
  attribution.conflicting_session = 0;
  attribution.object = 0;
  attribution.type = ConflictType::kWW;
  attribution.cause = TraceAbortCause::kFirstUpdaterWins;
  tracer.AttributeAbort(/*victim=*/1, attribution);
  tracer.AttributeAbort(/*victim=*/1, attribution);

  AdaptControllerOptions options;
  options.tracer = &tracer;
  options.top_conflicts = 2;
  AdaptController controller(base, /*live=*/nullptr, &active, options);
  ASSERT_TRUE(controller.DecideOnce(steady_clock::now()));

  // The decision journals the live conflict evidence it was made under.
  const std::string json = controller.StatusJson();
  EXPECT_NE(json.find("\"top_conflicts\":[\"T2->T1 ww first_updater_wins "
                      "x2\"]"),
            std::string::npos)
      << json;
}

TEST(AdaptControllerTest, HistoryIsBounded) {
  TransactionSet base = Parse("T1: R[x] W[x]\nT2: R[x] W[x]");
  ActiveAllocation active(base, Allocation::AllSSI(base.size()));
  AdaptControllerOptions options;
  options.history_limit = 3;
  AdaptController controller(base, /*live=*/nullptr, &active, options);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(controller.DecideOnce(steady_clock::now()));
  }
  EXPECT_EQ(controller.decisions(), 8u);
  const std::string json = controller.StatusJson();
  // Only the last three decisions survive.
  EXPECT_EQ(json.find("\"id\":5"), std::string::npos);
  EXPECT_NE(json.find("\"id\":6"), std::string::npos);
  EXPECT_NE(json.find("\"id\":8"), std::string::npos);
}

TEST(StaticAllocationJsonTest, RendersTheSlotWithoutAController) {
  TransactionSet txns = Parse("T1: R[x] W[y]\nT2: R[y] W[x]");
  ActiveAllocation active(txns, Allocation::AllSSI(txns.size()));
  const std::string json = StaticAllocationJson(active);
  EXPECT_NE(json.find("\"version\":1"), std::string::npos);
  EXPECT_NE(json.find("\"adapt\":false"), std::string::npos);
  EXPECT_NE(json.find("\"T1\":\"SSI\""), std::string::npos);
  EXPECT_NE(json.find("\"allocation_text\":\"T1=SSI T2=SSI\""),
            std::string::npos);
  EXPECT_NE(json.find("\"decisions\":0"), std::string::npos);
  EXPECT_NE(json.find("\"history\":[]"), std::string::npos);
}

}  // namespace
}  // namespace mvrob
