#include <gtest/gtest.h>

#include <string>

#include "common/metrics.h"
#include "core/robustness.h"
#include "core/split_schedule.h"
#include "iso/allowed.h"
#include "mvcc/driver.h"
#include "mvcc/recorder.h"
#include "mvcc/trace.h"
#include "mvcc/txn_trace.h"
#include "oracle/reference_checker.h"
#include "schedule/serializability.h"
#include "txn/parser.h"
#include "workloads/registry.h"
#include "workloads/smallbank.h"

namespace mvrob {
namespace {

TransactionSet Parse(const char* text) {
  StatusOr<TransactionSet> txns = ParseTransactionSet(text);
  EXPECT_TRUE(txns.ok()) << txns.status();
  return std::move(txns).value();
}

TEST(VersionStoreTest, InitialVersionAndInstall) {
  VersionStore store(2);
  EXPECT_EQ(store.num_objects(), 2u);
  EXPECT_EQ(store.Latest(0).commit_ts, 0u);
  EXPECT_EQ(store.Latest(0).writer, kInvalidSessionId);

  store.Install(0, StoredVersion{42, 7, 3});
  EXPECT_EQ(store.Latest(0).value, 42);
  EXPECT_EQ(store.SnapshotRead(0, 2).commit_ts, 0u);   // Before install.
  EXPECT_EQ(store.SnapshotRead(0, 3).value, 42);       // At install.
  EXPECT_TRUE(store.HasVersionAfter(0, 2));
  EXPECT_FALSE(store.HasVersionAfter(0, 3));
  EXPECT_EQ(store.ChainOf(0).size(), 2u);
  EXPECT_EQ(store.ChainOf(1).size(), 1u);
}

TEST(EngineTest, RcReadsSeeLatestCommitAtReadTime) {
  Engine engine(1);
  SessionId writer = engine.Begin(IsolationLevel::kRC);
  SessionId reader = engine.Begin(IsolationLevel::kRC);
  EXPECT_EQ(engine.Read(reader, 0).value, 0);  // Initial version.
  ASSERT_EQ(engine.Write(writer, 0, 5).status, StepStatus::kOk);
  // Uncommitted: still invisible.
  EXPECT_EQ(engine.Read(reader, 0).value, 0);
  ASSERT_EQ(engine.Commit(writer).status, StepStatus::kOk);
  // RC sees it immediately after commit.
  EXPECT_EQ(engine.Read(reader, 0).value, 5);
}

TEST(EngineTest, SiReadsSeeSnapshotAtBegin) {
  Engine engine(1);
  SessionId reader = engine.Begin(IsolationLevel::kSI);
  SessionId writer = engine.Begin(IsolationLevel::kRC);
  ASSERT_EQ(engine.Write(writer, 0, 5).status, StepStatus::kOk);
  ASSERT_EQ(engine.Commit(writer).status, StepStatus::kOk);
  // The snapshot was taken before the writer committed.
  ReadResult read = engine.Read(reader, 0);
  EXPECT_EQ(read.value, 0);
  EXPECT_EQ(read.version_writer, kInvalidSessionId);
}

TEST(EngineTest, ReadYourOwnWrites) {
  Engine engine(1);
  SessionId session = engine.Begin(IsolationLevel::kSI);
  ASSERT_EQ(engine.Write(session, 0, 9).status, StepStatus::kOk);
  ReadResult read = engine.Read(session, 0);
  EXPECT_EQ(read.value, 9);
  EXPECT_TRUE(read.own_write);
}

TEST(EngineTest, RowLockBlocksSecondWriter) {
  Engine engine(1);
  SessionId first = engine.Begin(IsolationLevel::kRC);
  SessionId second = engine.Begin(IsolationLevel::kRC);
  ASSERT_EQ(engine.Write(first, 0, 1).status, StepStatus::kOk);
  WriteResult blocked = engine.Write(second, 0, 2);
  EXPECT_EQ(blocked.status, StepStatus::kBlocked);
  EXPECT_EQ(blocked.blocker, first);
  // After the blocker commits, an RC writer proceeds.
  ASSERT_EQ(engine.Commit(first).status, StepStatus::kOk);
  EXPECT_EQ(engine.Write(second, 0, 2).status, StepStatus::kOk);
  EXPECT_EQ(engine.Commit(second).status, StepStatus::kOk);
  // Version order follows commit order.
  EXPECT_EQ(engine.store().Latest(0).value, 2);
}

TEST(EngineTest, FirstUpdaterWinsAbortsSiWriter) {
  Engine engine(1);
  SessionId si = engine.Begin(IsolationLevel::kSI);
  (void)engine.Read(si, 0);  // Establish the session.
  SessionId other = engine.Begin(IsolationLevel::kRC);
  ASSERT_EQ(engine.Write(other, 0, 1).status, StepStatus::kOk);
  ASSERT_EQ(engine.Commit(other).status, StepStatus::kOk);
  // A version committed after si's snapshot: concurrent write, forbidden.
  WriteResult result = engine.Write(si, 0, 2);
  EXPECT_EQ(result.status, StepStatus::kAborted);
  EXPECT_EQ(result.abort_reason, AbortReason::kWriteConflict);
  EXPECT_EQ(engine.session(si).state, TxnState::kAborted);
  EXPECT_EQ(engine.stats().aborts_write_conflict, 1u);
}

TEST(EngineTest, RcWriterToleratesCommittedConcurrentWrite) {
  Engine engine(1);
  SessionId rc = engine.Begin(IsolationLevel::kRC);
  (void)engine.Read(rc, 0);
  SessionId other = engine.Begin(IsolationLevel::kRC);
  ASSERT_EQ(engine.Write(other, 0, 1).status, StepStatus::kOk);
  ASSERT_EQ(engine.Commit(other).status, StepStatus::kOk);
  // RC permits the concurrent (committed) write: lost update is possible.
  EXPECT_EQ(engine.Write(rc, 0, 2).status, StepStatus::kOk);
  EXPECT_EQ(engine.Commit(rc).status, StepStatus::kOk);
}

TEST(EngineTest, SsiAbortsWriteSkew) {
  // T1: R[x] W[y]; T2: R[y] W[x], fully interleaved, both SSI: the second
  // commit completes a dangerous structure and must abort.
  Engine engine(2);
  SessionId t1 = engine.Begin(IsolationLevel::kSSI);
  SessionId t2 = engine.Begin(IsolationLevel::kSSI);
  (void)engine.Read(t1, 0);
  (void)engine.Read(t2, 1);
  ASSERT_EQ(engine.Write(t1, 1, 1).status, StepStatus::kOk);
  ASSERT_EQ(engine.Write(t2, 0, 2).status, StepStatus::kOk);
  ASSERT_EQ(engine.Commit(t1).status, StepStatus::kOk);
  CommitResult second = engine.Commit(t2);
  EXPECT_EQ(second.status, StepStatus::kAborted);
  EXPECT_EQ(second.abort_reason, AbortReason::kSsiDangerousStructure);
  EXPECT_EQ(engine.stats().aborts_ssi, 1u);
}

TEST(EngineTest, SiAllowsWriteSkewToCommit) {
  // The same interleaving under SI commits on both sides — the anomaly the
  // paper's allocations must guard against.
  Engine engine(2);
  SessionId t1 = engine.Begin(IsolationLevel::kSI);
  SessionId t2 = engine.Begin(IsolationLevel::kSI);
  (void)engine.Read(t1, 0);
  (void)engine.Read(t2, 1);
  ASSERT_EQ(engine.Write(t1, 1, 1).status, StepStatus::kOk);
  ASSERT_EQ(engine.Write(t2, 0, 2).status, StepStatus::kOk);
  EXPECT_EQ(engine.Commit(t1).status, StepStatus::kOk);
  EXPECT_EQ(engine.Commit(t2).status, StepStatus::kOk);
}

TEST(EngineTest, SsiReadOnlyObserverTriggersAbortOnlyWhenDangerous) {
  // Dangerous structures require the full commit-order condition; a plain
  // rw-antidependency chain without it commits fine.
  Engine engine(2);
  SessionId t1 = engine.Begin(IsolationLevel::kSSI);
  (void)engine.Read(t1, 0);
  ASSERT_EQ(engine.Commit(t1).status, StepStatus::kOk);
  SessionId t2 = engine.Begin(IsolationLevel::kSSI);
  ASSERT_EQ(engine.Write(t2, 0, 1).status, StepStatus::kOk);
  EXPECT_EQ(engine.Commit(t2).status, StepStatus::kOk);
}

// ---------------------------------------------------------------------------
// Exact replay of robustness counterexamples.
// ---------------------------------------------------------------------------

TEST(ReplayTest, WriteSkewCounterexampleRunsAndIsNotSerializable) {
  TransactionSet programs = Parse(R"(
    T1: R[x] W[y]
    T2: R[y] W[x]
  )");
  Allocation alloc = Allocation::AllSI(2);
  RobustnessResult robustness = CheckRobustness(programs, alloc);
  ASSERT_FALSE(robustness.robust);

  std::vector<OpRef> order =
      BuildSplitOrder(programs, *robustness.counterexample);
  Engine engine(programs.num_objects());
  StatusOr<DriverReport> report =
      RunExactInterleaving(engine, programs, alloc, order);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->committed, 2u);

  // The committed trace maps to a formal schedule that is allowed under
  // the allocation but NOT conflict serializable: the anomaly is real.
  StatusOr<ExportedRun> run = ExportCommittedRun(engine, programs);
  ASSERT_TRUE(run.ok()) << run.status();
  StatusOr<Schedule> schedule = run->BuildSchedule();
  ASSERT_TRUE(schedule.ok()) << schedule.status();
  EXPECT_TRUE(AllowedUnder(*schedule, run->allocation));
  EXPECT_FALSE(IsConflictSerializable(*schedule));
}

TEST(ReplayTest, SsiAllocationRefusesTheSameInterleaving) {
  // The identical operation order under A_SSI cannot commit everything:
  // the engine aborts to protect serializability.
  TransactionSet programs = Parse(R"(
    T1: R[x] W[y]
    T2: R[y] W[x]
  )");
  Allocation si = Allocation::AllSI(2);
  std::vector<OpRef> order =
      BuildSplitOrder(programs, *CheckRobustness(programs, si).counterexample);
  Engine engine(programs.num_objects());
  StatusOr<DriverReport> report = RunExactInterleaving(
      engine, programs, Allocation::AllSSI(2), order);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(engine.stats().aborts_ssi, 1u);
}

TEST(ReplayTest, RcCounterexampleLostUpdate) {
  TransactionSet programs = Parse(R"(
    T1: R[x] W[x]
    T2: R[x] W[x]
  )");
  Allocation alloc = Allocation::AllRC(2);
  RobustnessResult robustness = CheckRobustness(programs, alloc);
  ASSERT_FALSE(robustness.robust);
  Engine engine(programs.num_objects());
  StatusOr<DriverReport> report = RunExactInterleaving(
      engine, programs, alloc,
      BuildSplitOrder(programs, *robustness.counterexample));
  ASSERT_TRUE(report.ok()) << report.status();
  StatusOr<ExportedRun> run = ExportCommittedRun(engine, programs);
  ASSERT_TRUE(run.ok());
  StatusOr<Schedule> schedule = run->BuildSchedule();
  ASSERT_TRUE(schedule.ok());
  EXPECT_TRUE(AllowedUnder(*schedule, run->allocation));
  EXPECT_FALSE(IsConflictSerializable(*schedule));
  // Under A_SI the same order aborts (first-updater-wins).
  Engine si_engine(programs.num_objects());
  EXPECT_FALSE(RunExactInterleaving(
                   si_engine, programs, Allocation::AllSI(2),
                   BuildSplitOrder(programs, *robustness.counterexample))
                   .ok());
}

// ---------------------------------------------------------------------------
// Random execution.
// ---------------------------------------------------------------------------

TEST(DriverTest, DeadlockIsResolvedAndAllCommit) {
  TransactionSet programs = Parse(R"(
    T1: W[a] W[b]
    T2: W[b] W[a]
  )");
  Engine engine(programs.num_objects());
  RandomRunOptions options;
  options.concurrency = 2;
  options.seed = 1;
  DriverReport report =
      RunRandom(engine, programs, Allocation::AllRC(2), options);
  EXPECT_EQ(report.committed, 2u);
  EXPECT_EQ(report.aborted_programs, 0u);
}

TEST(DriverTest, AllProgramsCommitOnDisjointObjects) {
  TransactionSet programs = Parse(R"(
    T1: R[a] W[a]
    T2: R[b] W[b]
    T3: R[c] W[c]
    T4: R[d] W[d]
  )");
  for (IsolationLevel level : kAllIsolationLevels) {
    Engine engine(programs.num_objects());
    RandomRunOptions options;
    options.seed = 7;
    DriverReport report =
        RunRandom(engine, programs, Allocation(4, level), options);
    EXPECT_EQ(report.committed, 4u);
    EXPECT_EQ(engine.stats().aborts_write_conflict, 0u);
    EXPECT_EQ(engine.stats().aborts_ssi, 0u);
  }
}

TEST(DriverTest, HotspotContentionAbortsUnderSiButNotRc) {
  StatusOr<TransactionSet> programs = ParseTransactionSet(R"(
    T1: R[h] W[h]
    T2: R[h] W[h]
    T3: R[h] W[h]
    T4: R[h] W[h]
  )");
  ASSERT_TRUE(programs.ok());
  uint64_t rc_commits = 0;
  uint64_t si_commits = 0;
  uint64_t si_aborts = 0;
  for (uint64_t seed = 0; seed < 10; ++seed) {
    RandomRunOptions options;
    options.concurrency = 4;
    options.max_retries = 0;  // No retries: measure raw success rate.
    options.seed = seed;
    Engine rc_engine(programs->num_objects());
    rc_commits += RunRandom(rc_engine, *programs,
                            Allocation::AllRC(4), options)
                      .committed;
    Engine si_engine(programs->num_objects());
    si_commits += RunRandom(si_engine, *programs,
                            Allocation::AllSI(4), options)
                      .committed;
    si_aborts += si_engine.stats().aborts_write_conflict;
  }
  // RC never aborts on this workload; SI loses transactions to
  // first-updater-wins (footnote 1 of the paper: RC outperforms SI under
  // contention).
  EXPECT_EQ(rc_commits, 40u);
  EXPECT_LT(si_commits, 40u);
  EXPECT_GT(si_aborts, 0u);
}


// ---------------------------------------------------------------------------
// SSI mode ablation: exact Definition 2.4 vs conservative pivot flags.
// ---------------------------------------------------------------------------

TEST(SsiModeTest, ConservativeAbortsWriteSkewToo) {
  Engine engine(2, EngineOptions{{}, SsiMode::kConservative});
  SessionId t1 = engine.Begin(IsolationLevel::kSSI);
  SessionId t2 = engine.Begin(IsolationLevel::kSSI);
  (void)engine.Read(t1, 0);
  (void)engine.Read(t2, 1);
  ASSERT_EQ(engine.Write(t1, 1, 1).status, StepStatus::kOk);
  ASSERT_EQ(engine.Write(t2, 0, 2).status, StepStatus::kOk);
  // The conservative mode may refuse even the FIRST commit (the pivot
  // flags are already set); at most one of the two commits may succeed.
  int commits = 0;
  if (engine.Commit(t1).status == StepStatus::kOk) ++commits;
  if (engine.session(t2).state == TxnState::kActive &&
      engine.Commit(t2).status == StepStatus::kOk) {
    ++commits;
  }
  EXPECT_LE(commits, 1);
  EXPECT_GE(engine.stats().aborts_ssi, 1u);
}

TEST(SsiModeTest, ConservativeHasFalsePositives) {
  // T1: R[x]; T2: R[y] W[x]; T3: W[y], committing in the order
  // C1 C2 C3. The pivot T2 has an incoming (T1) and an outgoing (T3)
  // antidependency, but T3 commits LAST, so no dangerous structure exists
  // (the commit-order optimization of [15]/Postgres): the exact mode
  // commits everything, the conservative mode aborts.
  auto run = [](SsiMode mode) {
    Engine engine(2, EngineOptions{{}, mode});
    SessionId t1 = engine.Begin(IsolationLevel::kSSI);
    SessionId t2 = engine.Begin(IsolationLevel::kSSI);
    SessionId t3 = engine.Begin(IsolationLevel::kSSI);
    (void)engine.Read(t1, 0);       // R1[x].
    (void)engine.Read(t2, 1);       // R2[y].
    EXPECT_EQ(engine.Write(t2, 0, 1).status, StepStatus::kOk);  // W2[x].
    EXPECT_EQ(engine.Write(t3, 1, 2).status, StepStatus::kOk);  // W3[y].
    int commits = 0;
    for (SessionId s : {t1, t2, t3}) {
      if (engine.session(s).state == TxnState::kActive &&
          engine.Commit(s).status == StepStatus::kOk) {
        ++commits;
      }
    }
    return commits;
  };
  EXPECT_EQ(run(SsiMode::kExact), 3);
  EXPECT_LT(run(SsiMode::kConservative), 3);
}

TEST(SsiModeTest, ConservativeTracesStayAllowedAndSerializable) {
  Workload bank = MakeSmallBank(SmallBankParams{});
  for (uint64_t seed = 0; seed < 8; ++seed) {
    Engine engine(bank.txns.num_objects(),
                  EngineOptions{{}, SsiMode::kConservative});
    RandomRunOptions options;
    options.concurrency = 4;
    options.seed = seed;
    RunRandom(engine, bank.txns, Allocation::AllSSI(bank.txns.size()),
              options);
    StatusOr<ExportedRun> run = ExportCommittedRun(engine, bank.txns);
    ASSERT_TRUE(run.ok());
    StatusOr<Schedule> schedule = run->BuildSchedule();
    ASSERT_TRUE(schedule.ok());
    EXPECT_TRUE(AllowedUnder(*schedule, run->allocation));
    EXPECT_TRUE(IsConflictSerializable(*schedule));
  }
}

TEST(SsiModeTest, ConservativeNeverAbortsLess) {
  // Across seeds, conservative SSI aborts at least as many transactions as
  // the exact mode on the same workload (superset property).
  Workload bank = MakeSmallBank(SmallBankParams{});
  for (uint64_t seed = 0; seed < 10; ++seed) {
    RandomRunOptions options;
    options.concurrency = 6;
    options.max_retries = 0;
    options.seed = seed;
    Engine exact(bank.txns.num_objects());
    Engine conservative(bank.txns.num_objects(),
                        EngineOptions{{}, SsiMode::kConservative});
    DriverReport exact_report = RunRandom(
        exact, bank.txns, Allocation::AllSSI(bank.txns.size()), options);
    DriverReport conservative_report =
        RunRandom(conservative, bank.txns,
                  Allocation::AllSSI(bank.txns.size()), options);
    // Identical seeds do not guarantee identical interleavings once aborts
    // diverge, so compare aggregate commits, not per-run traces.
    EXPECT_LE(conservative_report.committed, exact_report.committed + 2)
        << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// The one run path: RunWorkload at one engine thread is exactly a
// hand-built Engine driven by RunRandom with the same seed and sinks.

struct RunPathCase {
  const char* name;
  const char* spec;
  const char* levels;  // "RC", "SI", "SSI" or "mixed".
};

Allocation AllocationFor(const std::string& levels, size_t n) {
  if (levels == "RC") return Allocation::AllRC(n);
  if (levels == "SI") return Allocation::AllSI(n);
  if (levels == "SSI") return Allocation::AllSSI(n);
  std::vector<IsolationLevel> mixed(n);
  for (size_t i = 0; i < n; ++i) {
    mixed[i] = kAllIsolationLevels[i % kAllIsolationLevels.size()];
  }
  return Allocation(std::move(mixed));
}

uint64_t ZeroClock() { return 0; }

// What one run leaves in its sinks, rendered for exact comparison.
struct SinkOutput {
  std::string recording;
  std::string trace;
  uint64_t mvcc_commits = 0;
  uint64_t driver_committed = 0;
};

class RunWorkloadTest : public ::testing::TestWithParam<RunPathCase> {};

TEST_P(RunWorkloadTest, SingleThreadMatchesHandBuiltEngine) {
  const RunPathCase& c = GetParam();
  StatusOr<Workload> workload = MakeNamedWorkload(c.spec);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  const TransactionSet& txns = workload->txns;
  const Allocation alloc = AllocationFor(c.levels, txns.size());

  for (uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    auto run_with_sinks = [&](auto&& run) {
      MetricsRegistry metrics;
      ScheduleRecorder recorder;
      TxnTracerOptions tracer_options;
      tracer_options.clock_us = &ZeroClock;
      TxnTracer tracer(tracer_options);
      RandomRunOptions options;
      options.seed = seed;
      options.metrics = &metrics;
      options.recorder = &recorder;
      options.tracer = &tracer;
      run(options);
      return SinkOutput{recorder.ToText(txns), tracer.StatusJson(),
                        metrics.counter("mvcc.commits").value(),
                        metrics.counter("driver.committed").value()};
    };

    DriverReport hand_report;
    EngineStats hand_stats;
    StatusOr<ExportedRun> hand_export = Status::Internal("not run");
    const SinkOutput hand = run_with_sinks([&](const RandomRunOptions& o) {
      EngineOptions engine_options;
      engine_options.metrics = o.metrics;
      engine_options.recorder = o.recorder;
      engine_options.tracer = o.tracer;
      Engine engine(txns.num_objects(), engine_options);
      hand_report = RunRandom(engine, txns, alloc, o);
      hand_stats = engine.stats();
      hand_export = ExportCommittedRun(engine, txns);
    });

    DriverReport path_report;
    EngineStats path_stats;
    StatusOr<ExportedRun> path_export = Status::Internal("not run");
    const SinkOutput path = run_with_sinks([&](const RandomRunOptions& o) {
      const WorkloadRun run = RunWorkload(txns, alloc, o);
      path_report = run.report();
      path_stats = run.stats();
      path_export = run.Export(txns);
    });

    EXPECT_GT(hand_report.committed, 0u);
    EXPECT_EQ(path_report, hand_report);
    EXPECT_EQ(path_stats, hand_stats);
    EXPECT_EQ(path.recording, hand.recording);
    EXPECT_EQ(path.trace, hand.trace);
    EXPECT_EQ(path.mvcc_commits, hand.mvcc_commits);
    EXPECT_EQ(path.driver_committed, hand.driver_committed);
    EXPECT_EQ(path.mvcc_commits, path.driver_committed);
    ASSERT_EQ(path_export.ok(), hand_export.ok());
    if (path_export.ok()) {
      EXPECT_EQ(path_export->order, hand_export->order);
      EXPECT_EQ(path_export->versions, hand_export->versions);
      EXPECT_EQ(path_export->version_order, hand_export->version_order);
      EXPECT_EQ(path_export->allocation, hand_export->allocation);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, RunWorkloadTest,
    ::testing::Values(
        RunPathCase{"smallbank_RC", "smallbank:c=3", "RC"},
        RunPathCase{"smallbank_SI", "smallbank:c=3", "SI"},
        RunPathCase{"smallbank_SSI", "smallbank:c=3", "SSI"},
        RunPathCase{"smallbank_mixed", "smallbank:c=3", "mixed"},
        RunPathCase{"tpcc_RC", "tpcc", "RC"},
        RunPathCase{"tpcc_SI", "tpcc", "SI"},
        RunPathCase{"tpcc_SSI", "tpcc", "SSI"},
        RunPathCase{"tpcc_mixed", "tpcc", "mixed"},
        RunPathCase{"ycsb_RC", "ycsb:a,n=16,k=8,theta=0.99", "RC"},
        RunPathCase{"ycsb_SI", "ycsb:a,n=16,k=8,theta=0.99", "SI"},
        RunPathCase{"ycsb_SSI", "ycsb:a,n=16,k=8,theta=0.99", "SSI"},
        RunPathCase{"ycsb_mixed", "ycsb:a,n=16,k=8,theta=0.99", "mixed"}),
    [](const ::testing::TestParamInfo<RunPathCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace mvrob
