#include "common/metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli/cli.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/analyzer.h"
#include "core/incremental.h"
#include "core/optimal_allocation.h"
#include "core/robustness.h"
#include "iso/allocation.h"
#include "mvcc/driver.h"
#include "mvcc/engine.h"
#include "mvcc/roundtrip.h"
#include "oracle/statistics.h"
#include "txn/parser.h"
#include "workloads/registry.h"

namespace mvrob {
namespace {

TransactionSet Tpcc() {
  StatusOr<Workload> workload = MakeNamedWorkload("tpcc:w=2,d=2");
  EXPECT_TRUE(workload.ok());
  return std::move(workload->txns);
}

TEST(CounterTest, AddAndIncrement) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.Increment();
  counter.Add(41);
  EXPECT_EQ(counter.value(), 42u);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge gauge;
  gauge.Set(10);
  gauge.Add(-3);
  EXPECT_EQ(gauge.value(), 7);
  gauge.Set(-5);
  EXPECT_EQ(gauge.value(), -5);
}

TEST(HistogramTest, PowerOfTwoBuckets) {
  // Bucket 0 = {0}, bucket i = [2^(i-1), 2^i - 1].
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1), 1u);
  EXPECT_EQ(Histogram::BucketIndex(2), 2u);
  EXPECT_EQ(Histogram::BucketIndex(3), 2u);
  EXPECT_EQ(Histogram::BucketIndex(4), 3u);
  EXPECT_EQ(Histogram::BucketIndex(1023), 10u);
  EXPECT_EQ(Histogram::BucketIndex(1024), 11u);
  // The last bucket absorbs everything beyond the fixed range.
  EXPECT_EQ(Histogram::BucketIndex(UINT64_MAX), Histogram::kNumBuckets - 1);
  EXPECT_EQ(Histogram::BucketLowerBound(0), 0u);
  EXPECT_EQ(Histogram::BucketLowerBound(1), 1u);
  EXPECT_EQ(Histogram::BucketLowerBound(4), 8u);
}

TEST(HistogramTest, ObserveTracksCountSumMax) {
  Histogram histogram;
  for (uint64_t v : {0u, 1u, 5u, 5u, 100u}) histogram.Observe(v);
  EXPECT_EQ(histogram.count(), 5u);
  EXPECT_EQ(histogram.sum(), 111u);
  EXPECT_EQ(histogram.max(), 100u);
  EXPECT_DOUBLE_EQ(histogram.Mean(), 111.0 / 5.0);
  EXPECT_EQ(histogram.bucket(0), 1u);                           // {0}
  EXPECT_EQ(histogram.bucket(Histogram::BucketIndex(5)), 2u);   // [4, 7]
  EXPECT_EQ(histogram.bucket(Histogram::BucketIndex(100)), 1u); // [64, 127]
}

TEST(HistogramTest, QuantileEstimatesFromBuckets) {
  Histogram histogram;
  EXPECT_EQ(histogram.Quantile(0.5), 0u);  // Empty.

  // All-zero data: exact at every quantile (bucket 0 is exact).
  for (int i = 0; i < 10; ++i) histogram.Observe(0);
  EXPECT_EQ(histogram.Quantile(0.5), 0u);
  EXPECT_EQ(histogram.Quantile(0.99), 0u);

  // Skewed data: 90 observations of 1, 10 of ~1000. p50 must stay in the
  // low bucket, p99 in the high one; estimates are bucket-resolution
  // (within 2x), and never above the observed max.
  Histogram skewed;
  for (int i = 0; i < 90; ++i) skewed.Observe(1);
  for (int i = 0; i < 10; ++i) skewed.Observe(1000);
  EXPECT_EQ(skewed.Quantile(0.5), 1u);
  uint64_t p99 = skewed.Quantile(0.99);
  EXPECT_GE(p99, 512u);
  EXPECT_LE(p99, 1000u);
  EXPECT_LE(skewed.Quantile(1.0), skewed.max());

  // Monotone in q.
  EXPECT_LE(skewed.Quantile(0.25), skewed.Quantile(0.75));
}

TEST(MetricsRegistryTest, SnapshotJsonCarriesQuantileSummaries) {
  MetricsRegistry registry;
  for (int i = 0; i < 100; ++i) registry.histogram("lat").Observe(8);
  std::string json = registry.SnapshotJson();
  EXPECT_NE(json.find("\"p50\":"), std::string::npos);
  EXPECT_NE(json.find("\"p95\":"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
}

TEST(MetricsRegistryTest, NamedMetricsAreStableSingletons) {
  MetricsRegistry registry;
  Counter& a = registry.counter("x");
  Counter& b = registry.counter("x");
  EXPECT_EQ(&a, &b);
  a.Increment();
  EXPECT_EQ(registry.counter("x").value(), 1u);
  EXPECT_NE(&registry.counter("y"), &a);
}

TEST(MetricsRegistryTest, ConcurrentMutationIsLossless) {
  MetricsRegistry registry;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      for (int i = 0; i < kPerThread; ++i) {
        registry.counter("hits").Increment();
        registry.histogram("values").Observe(static_cast<uint64_t>(i));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(registry.counter("hits").value(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(registry.histogram("values").count(),
            static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(MetricsRegistryTest, SnapshotJsonShape) {
  MetricsRegistry registry;
  registry.counter("b.count").Add(3);
  registry.counter("a.count").Add(1);
  registry.gauge("depth").Set(-2);
  registry.histogram("lat").Observe(5);
  std::string json = registry.SnapshotJson();
  // Deterministic lexicographic key order within each section.
  EXPECT_NE(json.find("\"version\":1"), std::string::npos);
  EXPECT_NE(json.find("\"counters\":{\"a.count\":1,\"b.count\":3}"),
            std::string::npos);
  EXPECT_NE(json.find("\"gauges\":{\"depth\":-2}"), std::string::npos);
  EXPECT_NE(json.find("\"lat\":{\"count\":1,\"sum\":5,\"max\":5"),
            std::string::npos);
  EXPECT_NE(json.find("\"buckets\":[[4,1]]"), std::string::npos);
}

TEST(MetricsRegistryTest, TraceJsonIsChromeTraceFormat) {
  MetricsRegistry registry;
  auto begin = std::chrono::steady_clock::now();
  {
    PhaseTimer timer(&registry, "work");
  }
  registry.RecordSpan("explicit", begin, std::chrono::steady_clock::now());
  std::string json = registry.TraceJson();
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"work\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"explicit\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  // Spans also feed phase duration histograms.
  EXPECT_EQ(registry.histogram("phase.work_us").count(), 1u);
  EXPECT_EQ(registry.histogram("phase.explicit_us").count(), 1u);
}

TEST(PhaseTimerTest, NullRegistryIsANoOp) {
  PhaseTimer timer(nullptr, "nothing");  // Must not crash or allocate names.
}

// The acceptance-criteria contract: the metrics counter equals the audited
// closed-form triples_examined, at any thread count.
TEST(AnalyzerMetricsTest, TriplesExaminedMatchesAuditedCount) {
  TransactionSet txns = Tpcc();
  for (int threads : {1, 4}) {
    MetricsRegistry registry;
    CheckOptions options;
    options.num_threads = threads;
    options.metrics = &registry;
    RobustnessResult result =
        CheckRobustness(txns, Allocation::AllSI(txns.size()), options);
    EXPECT_EQ(result.triples_examined,
              internal::TriplesWhenRobust(txns.size()));
    EXPECT_EQ(registry.counter("analyzer.triples_examined").value(),
              result.triples_examined)
        << "threads=" << threads;
    EXPECT_EQ(registry.counter("analyzer.checks").value(), 1u);
    EXPECT_EQ(registry.counter("analyzer.rows_scanned").value(), txns.size());
    EXPECT_GT(registry.counter("analyzer.bitset_words_scanned").value(), 0u);
    // Phases were timed.
    EXPECT_EQ(
        registry.histogram("phase.analyzer.build_conflict_matrix_us").count(),
        1u);
    EXPECT_EQ(registry.histogram("phase.analyzer.triple_scan_us").count(), 1u);
    // Work-balance histogram accounts for every row exactly once.
    EXPECT_EQ(registry.histogram("analyzer.rows_per_thread").sum(),
              txns.size());
  }
}

TEST(AnalyzerMetricsTest, CounterexampleRunsCountWitnesses) {
  StatusOr<TransactionSet> txns = ParseTransactionSet(
      "T1: R[x] W[y]\n"
      "T2: R[y] W[x]\n");
  ASSERT_TRUE(txns.ok());
  MetricsRegistry registry;
  CheckOptions options;
  options.metrics = &registry;
  RobustnessResult result =
      CheckRobustness(*txns, Allocation::AllSI(txns->size()), options);
  EXPECT_FALSE(result.robust);
  EXPECT_EQ(registry.counter("analyzer.counterexamples_found").value(), 1u);
  EXPECT_EQ(registry.counter("analyzer.triples_examined").value(),
            result.triples_examined);
}

// The triples of the canonical scan order with a member whose level
// differs between `base` and `candidate`, up to and including the
// witness (all of them when robust), counted one by one.
uint64_t FocusTriplesByScan(const Allocation& base, const Allocation& candidate,
                            const RobustnessResult& result) {
  const TxnId n = static_cast<TxnId>(base.size());
  auto changed = [&](TxnId t) { return base.level(t) != candidate.level(t); };
  uint64_t count = 0;
  for (TxnId t1 = 0; t1 < n; ++t1) {
    for (TxnId t2 = 0; t2 < n; ++t2) {
      if (t2 == t1) continue;
      for (TxnId tm = 0; tm < n; ++tm) {
        if (tm == t1) continue;
        if (changed(t1) || changed(t2) || changed(tm)) ++count;
        const std::optional<CounterexampleChain>& w = result.counterexample;
        if (w.has_value() && w->t1 == t1 && w->t2 == t2 && w->tm == tm) {
          return count;
        }
      }
    }
  }
  return count;
}

// A delta check counts as a check and a delta check, with the exact
// number of triples it covers; the audited analyzer.triples_examined
// stays a full-check counter. Witness recovery is timed once per witness.
TEST(AnalyzerMetricsTest, DeltaChecksCountTheirOwnTriples) {
  TransactionSet txns = Tpcc();
  const size_t n = txns.size();
  RobustnessAnalyzer analyzer(txns);
  const Allocation ssi = Allocation::AllSSI(n);
  const Allocation si = Allocation::AllSI(n);
  const std::vector<std::pair<Allocation, Allocation>> pairs = {
      {ssi, ssi.With(0, IsolationLevel::kRC)},
      {ssi, ssi.With(7, IsolationLevel::kSI)},
      {si, si.With(3, IsolationLevel::kRC)},
      {si, si.With(19, IsolationLevel::kRC)},
      {ssi, Allocation::AllRC(n)},
      {si, si},
  };
  int witnesses = 0;
  for (const auto& [base, candidate] : pairs) {
    for (int threads : {1, 4}) {
      MetricsRegistry registry;
      CheckOptions options;
      options.num_threads = threads;
      options.metrics = &registry;
      RobustnessResult result = analyzer.CheckDelta(base, candidate, options);
      RobustnessResult full = analyzer.Check(candidate);
      ASSERT_EQ(result.robust, full.robust);
      EXPECT_EQ(result.triples_examined, full.triples_examined);
      EXPECT_EQ(registry.counter("analyzer.checks").value(), 1u);
      EXPECT_EQ(registry.counter("analyzer.delta_checks").value(), 1u);
      EXPECT_EQ(registry.counter("analyzer.triples_examined").value(), 0u);
      EXPECT_EQ(registry.counter("analyzer.delta_triples_examined").value(),
                FocusTriplesByScan(base, candidate, result))
          << base.ToString(txns) << " -> " << candidate.ToString(txns)
          << " threads=" << threads;
      const uint64_t recoveries =
          registry.histogram("phase.analyzer.witness_recovery_us").count();
      if (result.robust) {
        EXPECT_EQ(recoveries, 0u);
      } else if (threads == 1) {
        EXPECT_EQ(recoveries, 1u);
        ++witnesses;
      } else {
        EXPECT_GE(recoveries, 1u);
      }
    }
  }
  EXPECT_GT(witnesses, 0);  // Both verdicts are covered.
}

// Enumerations count apart from checks: one analyzer.enumerations per
// call and the chains it returned, never the audited triple count.
TEST(AnalyzerMetricsTest, EnumerationsCountTheirWitnesses) {
  const TransactionSet txns = Tpcc();
  const RobustnessAnalyzer analyzer(txns);
  const Allocation all_rc = Allocation::AllRC(txns.size());
  for (int threads : {1, 4}) {
    MetricsRegistry registry;
    CheckOptions options;
    options.num_threads = threads;
    options.metrics = &registry;
    CounterexampleList full = analyzer.FindAll(all_rc, 16, options);
    CounterexampleList delta = analyzer.FindAll(
        Allocation::AllSSI(txns.size()), all_rc.With(0, IsolationLevel::kSI),
        16, options);
    EXPECT_FALSE(full.chains.empty());
    EXPECT_EQ(registry.counter("analyzer.enumerations").value(), 2u);
    EXPECT_EQ(registry.counter("analyzer.witnesses_enumerated").value(),
              full.chains.size() + delta.chains.size());
    EXPECT_EQ(registry.counter("analyzer.checks").value(), 0u);
    EXPECT_EQ(registry.counter("analyzer.triples_examined").value(), 0u);
  }
}

// The sum of phase histogram `phase` in a --stats-json snapshot, or -1
// when the phase is absent.
int64_t PhaseSum(const std::string& snapshot, const std::string& phase) {
  const size_t at = snapshot.find(StrCat("\"phase.", phase, "_us\":{"));
  if (at == std::string::npos) return -1;
  const std::string key = "\"sum\":";
  return std::stoll(snapshot.substr(snapshot.find(key, at) + key.size()));
}

// `promote` times its frontier probes and Algorithm 2 runs, and
// `allocate --explain` its explanation, as phases inside the command's
// own phase.
TEST(CliPhaseTest, PromoteAndExplainPhasesNestInTheCommand) {
  struct Case {
    std::vector<std::string> args;
    std::string parent;
    std::vector<std::string> children;
  };
  const std::string path = ::testing::TempDir() + "/mvrob_phase_stats.json";
  for (const Case& c :
       {Case{{"promote", "--workload", "smallbank:c=4"},
             "cli.promote",
             {"promote.frontier", "promote.evaluate"}},
        Case{{"allocate", "--workload", "smallbank:c=4", "--explain"},
             "cli.allocate",
             {"explain.checks"}}}) {
    SCOPED_TRACE(c.parent);
    std::vector<std::string> args = c.args;
    args.insert(args.end(), {"--stats-json", path});
    std::ostringstream out;
    std::ostringstream err;
    ASSERT_EQ(RunCli(args, out, err), 0) << err.str();
    std::ifstream file(path);
    std::stringstream snapshot;
    snapshot << file.rdbuf();
    const int64_t parent = PhaseSum(snapshot.str(), c.parent);
    ASSERT_GE(parent, 0) << snapshot.str();
    int64_t children = 0;
    for (const std::string& child : c.children) {
      const int64_t sum = PhaseSum(snapshot.str(), child);
      ASSERT_GE(sum, 0) << child << " missing: " << snapshot.str();
      EXPECT_LE(sum, parent) << child;
      children += sum;
    }
    // The children run one after another, never overlapping.
    EXPECT_LE(children, parent);
    std::remove(path.c_str());
  }
}

// The bounded modes of `allocate` run on the loaded check options, so
// their Algorithm 2 and delta-check counters reach --stats-json.
TEST(CliPhaseTest, BoundedAllocateRecordsAlgorithm2Counters) {
  const std::string path = ::testing::TempDir() + "/mvrob_bounded_stats.json";
  for (const std::vector<std::string>& mode :
       {std::vector<std::string>{"--rcsi"},
        std::vector<std::string>{"--pin", "T1=SSI"}}) {
    SCOPED_TRACE(mode.front());
    std::vector<std::string> args = {
        "allocate", "--txns", "T1: R[x] W[x]\nT2: R[x] W[x]\nT3: R[q]",
        "--threads", "4", "--stats-json", path};
    args.insert(args.end(), mode.begin(), mode.end());
    std::ostringstream out;
    std::ostringstream err;
    ASSERT_EQ(RunCli(args, out, err), 0) << err.str();
    std::ifstream file(path);
    std::stringstream snapshot;
    snapshot << file.rdbuf();
    for (const char* counter :
         {"\"allocation.robustness_checks\":", "\"analyzer.delta_checks\":"}) {
      EXPECT_NE(snapshot.str().find(counter), std::string::npos)
          << counter << " missing: " << snapshot.str();
    }
    std::remove(path.c_str());
  }
}

TEST(AllocationMetricsTest, Algorithm2CountersAndUnchangedResult) {
  TransactionSet txns = Tpcc();
  OptimalAllocationResult baseline =
      ComputeOptimalAllocation(txns, CheckOptions{});

  MetricsRegistry registry;
  CheckOptions options;
  options.metrics = &registry;
  OptimalAllocationResult instrumented = ComputeOptimalAllocation(txns, options);

  // Metrics collection never changes the allocation.
  EXPECT_EQ(instrumented.allocation.levels(), baseline.allocation.levels());
  EXPECT_EQ(instrumented.robustness_checks, baseline.robustness_checks);
  EXPECT_EQ(registry.counter("allocation.runs").value(), 1u);
  EXPECT_EQ(registry.counter("allocation.robustness_checks").value(),
            instrumented.robustness_checks);
  EXPECT_EQ(registry.counter("allocation.lattice_levels_tried").value(),
            instrumented.robustness_checks);
  EXPECT_EQ(registry.counter("analyzer.checks").value(),
            instrumented.robustness_checks);
  // Every Algorithm 2 candidate is checked by delta against a robust base.
  EXPECT_EQ(registry.counter("analyzer.delta_checks").value(),
            instrumented.robustness_checks);
  EXPECT_EQ(registry.histogram("phase.allocation.algorithm2_us").count(), 1u);
}

TEST(IncrementalMetricsTest, WarmStartSavingsAreCounted) {
  MetricsRegistry registry;
  IncrementalAllocator allocator;
  CheckOptions options;
  options.metrics = &registry;
  allocator.set_check_options(options);

  // A write-skew pair forces levels above RC, so the next Reoptimize has
  // real warm-start skips to count.
  ObjectId x = allocator.InternObject("x");
  ObjectId y = allocator.InternObject("y");
  ASSERT_TRUE(allocator
                  .AddTransaction("T1", {Operation::Read(x),
                                         Operation::Write(y)})
                  .ok());
  ASSERT_TRUE(allocator
                  .AddTransaction("T2", {Operation::Read(y),
                                         Operation::Write(x)})
                  .ok());
  EXPECT_EQ(registry.counter("incremental.reoptimize_calls").value(), 2u);
  EXPECT_EQ(registry.counter("incremental.checks_performed").value(),
            allocator.checks_performed());

  // Skips expected when adding T3: one per level below each existing
  // transaction's current (lower-bound) level.
  uint64_t expected_skips = 0;
  for (IsolationLevel level : allocator.allocation().levels()) {
    if (level == IsolationLevel::kSI) expected_skips += 1;
    if (level == IsolationLevel::kSSI) expected_skips += 2;
  }
  ASSERT_GT(expected_skips, 0u) << "write-skew pair should not sit at RC";

  uint64_t skips_before =
      registry.counter("incremental.warm_start_skips").value();
  ASSERT_TRUE(
      allocator.AddTransaction("T3", {Operation::Read(x)}).ok());
  EXPECT_EQ(registry.counter("incremental.warm_start_skips").value(),
            skips_before + expected_skips);
  EXPECT_EQ(registry.counter("incremental.checks_performed").value(),
            allocator.checks_performed());
  EXPECT_EQ(registry.counter("incremental.reoptimize_calls").value(), 3u);
}

TEST(EngineMetricsTest, CountersMirrorEngineStats) {
  TransactionSet txns = Tpcc();
  Allocation alloc = Allocation::AllSI(txns.size());

  MetricsRegistry registry;
  EngineOptions engine_options;
  engine_options.metrics = &registry;
  Engine engine(txns.num_objects(), engine_options);
  RandomRunOptions options;
  options.seed = 7;
  options.metrics = &registry;
  DriverReport report = RunRandom(engine, txns, alloc, options);

  const EngineStats& stats = engine.stats();
  EXPECT_EQ(registry.counter("mvcc.begins").value(), stats.begins);
  EXPECT_EQ(registry.counter("mvcc.reads").value(), stats.reads);
  EXPECT_EQ(registry.counter("mvcc.writes").value(), stats.writes);
  EXPECT_EQ(registry.counter("mvcc.commits").value(), stats.commits);
  EXPECT_EQ(registry.counter("mvcc.aborts.write_conflict").value(),
            stats.aborts_write_conflict);
  EXPECT_EQ(registry.counter("mvcc.aborts.ssi").value(), stats.aborts_ssi);
  EXPECT_EQ(registry.counter("mvcc.aborts.user").value(), stats.aborts_user);
  EXPECT_EQ(registry.counter("mvcc.blocked_steps").value(),
            stats.blocked_steps);
  if (stats.commits > 0) {
    EXPECT_GT(registry.histogram("mvcc.version_chain_len").count(), 0u);
  }
  EXPECT_EQ(registry.counter("driver.runs").value(), 1u);
  EXPECT_EQ(registry.counter("driver.committed").value(), report.committed);
  EXPECT_EQ(registry.counter("driver.attempts").value(), report.attempts);
  EXPECT_EQ(registry.histogram("phase.driver.run_random_us").count(), 1u);
}

// A run identical apart from the sink: metrics must not perturb execution.
TEST(EngineMetricsTest, MetricsDoNotChangeExecution) {
  TransactionSet txns = Tpcc();
  Allocation alloc = Allocation::AllSSI(txns.size());

  Engine plain(txns.num_objects());
  RandomRunOptions options;
  options.seed = 11;
  DriverReport baseline = RunRandom(plain, txns, alloc, options);

  MetricsRegistry registry;
  EngineOptions engine_options;
  engine_options.metrics = &registry;
  Engine instrumented(txns.num_objects(), engine_options);
  options.metrics = &registry;
  DriverReport observed = RunRandom(instrumented, txns, alloc, options);

  EXPECT_EQ(observed.committed, baseline.committed);
  EXPECT_EQ(observed.attempts, baseline.attempts);
  EXPECT_EQ(observed.aborted_programs, baseline.aborted_programs);
  EXPECT_EQ(observed.deadlock_victims, baseline.deadlock_victims);
  EXPECT_EQ(instrumented.stats().commits, plain.stats().commits);
  EXPECT_EQ(instrumented.stats().aborts_ssi, plain.stats().aborts_ssi);
}

// `mvrob validate --stats-json` carries the recorded runs' mvcc.* and
// driver.* series at every engine thread count, and the stage-6 replay
// engine adds no commits of its own.
TEST(EngineMetricsTest, ValidateCountsEachRecordedCommitOnce) {
  StatusOr<Workload> workload = MakeNamedWorkload("smallbank:c=4");
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  const Allocation alloc = Allocation::AllSI(workload->txns.size());
  for (int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    MetricsRegistry registry;
    RoundTripOptions options;
    options.runs = 3;
    options.engine_threads = threads;
    options.metrics = &registry;
    StatusOr<RoundTripReport> report =
        ValidateEngineRuns(workload->txns, alloc, options);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->disagreements, 0u);
    const uint64_t committed = registry.counter("driver.committed").value();
    EXPECT_GT(committed, 0u);
    EXPECT_EQ(registry.counter("mvcc.commits").value(), committed);
    EXPECT_EQ(registry.counter("driver.runs").value(), 3u);
  }
}

TEST(PoolMetricsTest, ParallelForRecordsJobs) {
  ThreadPool pool(2);
  MetricsRegistry registry;
  pool.ParallelFor(100, 3, [](size_t) {}, &registry);
  EXPECT_EQ(registry.counter("pool.jobs").value(), 1u);
  EXPECT_EQ(registry.counter("pool.iterations").value(), 100u);
  EXPECT_EQ(registry.histogram("pool.participants_per_job").count(), 1u);
  EXPECT_GE(registry.histogram("pool.participants_per_job").max(), 1u);

  // Inline fallback (single iteration) is counted as an inline job.
  pool.ParallelFor(1, 3, [](size_t) {}, &registry);
  EXPECT_EQ(registry.counter("pool.jobs").value(), 2u);
  EXPECT_EQ(registry.counter("pool.inline_jobs").value(), 1u);
}

// Regression for the census cap: max_interleavings == UINT64_MAX must not
// wrap the internal limit to 0.
TEST(CensusBoundaryTest, UnlimitedCapDoesNotOverflow) {
  StatusOr<TransactionSet> txns = ParseTransactionSet(
      "T1: R[x] W[y]\n"
      "T2: R[y] W[x]\n");
  ASSERT_TRUE(txns.ok());
  Allocation alloc = Allocation::AllSI(txns->size());

  StatusOr<ScheduleCensus> unlimited =
      ComputeScheduleCensus(*txns, alloc, UINT64_MAX);
  ASSERT_TRUE(unlimited.ok());
  EXPECT_EQ(unlimited->interleavings, 20u);  // C(6,3) = 20 interleavings.

  // Exact-cap boundary: 20 interleavings fit a cap of 20, not of 19.
  EXPECT_TRUE(ComputeScheduleCensus(*txns, alloc, 20).ok());
  EXPECT_FALSE(ComputeScheduleCensus(*txns, alloc, 19).ok());
}

// ---------------------------------------------------------------------------
// Sliding-window instruments, driven by a deterministic fake clock.

using std::chrono::seconds;
using std::chrono::steady_clock;

TEST(WindowedCounterTest, TracksTotalAndWindow) {
  WindowedCounter counter(/*window_seconds=*/10);
  const steady_clock::time_point t0 = steady_clock::now();

  counter.Add(5, t0);
  counter.Add(3, t0 + seconds(1));
  EXPECT_EQ(counter.total(), 8u);
  EXPECT_EQ(counter.WindowTotal(t0 + seconds(1)), 8u);

  // Nine seconds later the t0 slot has aged out of the 10s window.
  EXPECT_EQ(counter.WindowTotal(t0 + seconds(10)), 3u);
  // And one more second retires the t0+1 slot too.
  EXPECT_EQ(counter.WindowTotal(t0 + seconds(11)), 0u);
  // The lifetime total never decays.
  EXPECT_EQ(counter.total(), 8u);
}

TEST(WindowedCounterTest, RateDividesByAgeWhileYoung) {
  WindowedCounter counter(/*window_seconds=*/60);
  const steady_clock::time_point t0 = steady_clock::now();
  counter.Add(30, t0);
  // Age 1s: a fresh instrument reports 30/s, not 30/60.
  EXPECT_DOUBLE_EQ(counter.RatePerSecond(t0), 30.0);
  // At age 2s the divisor grows with the age.
  EXPECT_DOUBLE_EQ(counter.RatePerSecond(t0 + seconds(1)), 15.0);
  // Past one full window the divisor is the window length.
  EXPECT_DOUBLE_EQ(counter.RatePerSecond(t0 + seconds(59)), 0.5);
  EXPECT_DOUBLE_EQ(counter.RatePerSecond(t0 + seconds(600)), 0.0);
}

TEST(WindowedCounterTest, SlotsAreReusedAcrossWindows) {
  WindowedCounter counter(/*window_seconds=*/3);
  const steady_clock::time_point t0 = steady_clock::now();
  // Write the same ring slot (sec % 3) in two different windows; the old
  // content must be discarded, not accumulated.
  counter.Add(7, t0);
  counter.Add(2, t0 + seconds(3));
  EXPECT_EQ(counter.WindowTotal(t0 + seconds(3)), 2u);
  EXPECT_EQ(counter.total(), 9u);
}

TEST(WindowedHistogramTest, QuantilesDecayWithTheWindow) {
  WindowedHistogram histogram(/*window_seconds=*/10);
  const steady_clock::time_point t0 = steady_clock::now();

  // A slow burst at t0, then fast observations five seconds later.
  for (int i = 0; i < 100; ++i) histogram.Observe(1000, t0);
  for (int i = 0; i < 100; ++i) histogram.Observe(1, t0 + seconds(5));

  WindowedHistogramStats both = histogram.WindowStats(t0 + seconds(5));
  EXPECT_EQ(both.count, 200u);
  EXPECT_EQ(both.max, 1000u);
  EXPECT_GE(both.p95, 512u);  // The slow burst still dominates the tail.

  // Eleven seconds after t0 the slow burst has aged out: only the fast
  // observations remain, and the quantiles collapse accordingly.
  WindowedHistogramStats fast_only = histogram.WindowStats(t0 + seconds(11));
  EXPECT_EQ(fast_only.count, 100u);
  EXPECT_EQ(fast_only.max, 1u);
  EXPECT_LE(fast_only.p99, 1u);
  EXPECT_EQ(fast_only.sum, 100u);

  // And once everything is stale the window reads empty — but the
  // lifetime totals stay monotonic: they feed the Prometheus _sum/_count
  // companions, which must never move backwards.
  WindowedHistogramStats empty = histogram.WindowStats(t0 + seconds(60));
  EXPECT_EQ(empty.count, 0u);
  EXPECT_EQ(empty.p50, 0u);
  EXPECT_EQ(histogram.total_count(), 200u);
  EXPECT_EQ(histogram.total_sum(), 100u * 1000u + 100u * 1u);
}

TEST(WindowedRegistryTest, SnapshotCarriesWindowedSections) {
  MetricsRegistry registry;
  const steady_clock::time_point t0 = steady_clock::now();
  registry.windowed_counter("live.commits{level=SI}", 60).Add(10, t0);
  registry.windowed_histogram("live.latency{level=SI}", 60).Observe(50, t0);

  MetricsSnapshot snapshot = registry.Snapshot(t0);
  ASSERT_EQ(snapshot.windowed_counters.size(), 1u);
  EXPECT_EQ(snapshot.windowed_counters[0].first, "live.commits{level=SI}");
  EXPECT_EQ(snapshot.windowed_counters[0].second.total, 10u);
  EXPECT_EQ(snapshot.windowed_counters[0].second.window_total, 10u);
  EXPECT_EQ(snapshot.windowed_counters[0].second.window_seconds, 60u);
  ASSERT_EQ(snapshot.windowed_histograms.size(), 1u);
  EXPECT_EQ(snapshot.windowed_histograms[0].second.total_count, 1u);
  EXPECT_EQ(snapshot.windowed_histograms[0].second.total_sum, 50u);
  EXPECT_EQ(snapshot.windowed_histograms[0].second.window.max, 50u);

  // The JSON snapshot keeps the legacy sections and adds the windowed
  // ones (additive: version stays 1 for existing consumers).
  const std::string json = registry.SnapshotJson();
  EXPECT_NE(json.find("\"version\":1"), std::string::npos);
  EXPECT_NE(json.find("\"windowed_counters\""), std::string::npos);
  EXPECT_NE(json.find("\"windowed_histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"total_sum\":50"), std::string::npos);
}

TEST(LiveTelemetryTest, DriverRecordsPerLevelCommits) {
  TransactionSet txns = Tpcc();
  Allocation alloc = Allocation::AllSI(txns.size());
  MetricsRegistry registry;
  LiveTelemetry live = MakeLiveTelemetry(registry, /*window_seconds=*/60);

  Engine engine(txns.num_objects());
  RandomRunOptions options;
  options.seed = 3;
  options.live = &live;
  DriverReport report = RunRandom(engine, txns, alloc, options);
  ASSERT_GT(report.committed, 0u);

  // Every commit ran at SI, so the SI series carries the full count and
  // the commit-latency summary saw one observation per commit.
  WindowedCounter& si_commits =
      registry.windowed_counter("mvcc.live.commits{level=SI}");
  EXPECT_EQ(si_commits.total(), report.committed);
  EXPECT_EQ(registry.windowed_counter("mvcc.live.commits{level=RC}").total(),
            0u);
  EXPECT_EQ(
      registry.windowed_histogram("mvcc.live.commit_latency_us{level=SI}")
          .total_count(),
      report.committed);
}

TEST(LiveTelemetryTest, AttachingLiveSeriesDoesNotChangeTheRun) {
  TransactionSet txns = Tpcc();
  Allocation alloc = Allocation::AllSSI(txns.size());

  Engine plain(txns.num_objects());
  RandomRunOptions options;
  options.seed = 11;
  DriverReport baseline = RunRandom(plain, txns, alloc, options);

  MetricsRegistry registry;
  LiveTelemetry live = MakeLiveTelemetry(registry);
  Engine instrumented(txns.num_objects());
  options.live = &live;
  DriverReport observed = RunRandom(instrumented, txns, alloc, options);

  EXPECT_EQ(observed.committed, baseline.committed);
  EXPECT_EQ(observed.attempts, baseline.attempts);
  EXPECT_EQ(observed.aborted_programs, baseline.aborted_programs);
  EXPECT_EQ(observed.deadlock_victims, baseline.deadlock_victims);
  EXPECT_EQ(instrumented.stats().commits, plain.stats().commits);
}

TEST(LiveTelemetryTest, StopFlagEndsTheRunEarly) {
  TransactionSet txns = Tpcc();
  Allocation alloc = Allocation::AllSI(txns.size());
  std::atomic<bool> stop{true};  // Raised before the first step.

  Engine engine(txns.num_objects());
  RandomRunOptions options;
  options.stop = &stop;
  DriverReport report = RunRandom(engine, txns, alloc, options);
  EXPECT_EQ(report.committed, 0u);
  EXPECT_EQ(report.attempts, 0u);
}

TEST(LiveTelemetryTest, ContinuousModeRunsUntilStepBudget) {
  TransactionSet txns = Tpcc();
  Allocation alloc = Allocation::AllSI(txns.size());

  // A batch run of this workload ends after every program committed; a
  // continuous run keeps re-enqueueing programs until the step budget.
  Engine batch_engine(txns.num_objects());
  RandomRunOptions batch;
  batch.seed = 5;
  DriverReport batch_report = RunRandom(batch_engine, txns, alloc, batch);

  Engine cont_engine(txns.num_objects());
  RandomRunOptions continuous = batch;
  continuous.continuous = true;
  continuous.max_steps = 50'000;
  DriverReport cont_report =
      RunRandom(cont_engine, txns, alloc, continuous);
  EXPECT_GT(cont_report.committed, batch_report.committed);
}

}  // namespace
}  // namespace mvrob
