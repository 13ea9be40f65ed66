// End-to-end conformance between the MVCC engine and the formal model:
// every committed trace of the engine, exported as a multiversion
// schedule, must be allowed (Definition 2.4) under the allocation it ran
// with; and when the allocation is robust (Algorithm 1), the trace must be
// conflict serializable (Definition 2.7) — the paper's guarantee realized
// on the executable substrate.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/robustness.h"
#include "iso/allowed.h"
#include "iso/materialize.h"
#include "mvcc/driver.h"
#include "oracle/interleavings.h"
#include "mvcc/trace.h"
#include "oracle/reference_checker.h"
#include "schedule/serializability.h"
#include "core/optimal_allocation.h"
#include "workloads/registry.h"
#include "workloads/smallbank.h"
#include "workloads/synthetic.h"
#include "workloads/tpcc.h"

namespace mvrob {
namespace {

Allocation RandomAllocation(size_t n, uint64_t seed) {
  Rng rng(seed * 104729 + 7);
  std::vector<IsolationLevel> levels(n);
  for (size_t i = 0; i < n; ++i) {
    levels[i] = kAllIsolationLevels[rng.Index(3)];
  }
  return Allocation(std::move(levels));
}

// Runs the programs under the allocation with a random interleaving and
// checks the exported trace against the formal model.
void CheckConformance(const TransactionSet& programs,
                      const Allocation& alloc, uint64_t seed,
                      int concurrency) {
  SCOPED_TRACE(programs.ToString() + "alloc: " + alloc.ToString(programs) +
               " seed: " + std::to_string(seed));
  Engine engine(programs.num_objects());
  RandomRunOptions options;
  options.concurrency = concurrency;
  options.seed = seed;
  DriverReport report = RunRandom(engine, programs, alloc, options);
  ASSERT_GT(report.committed, 0u);

  StatusOr<ExportedRun> run = ExportCommittedRun(engine, programs);
  ASSERT_TRUE(run.ok()) << run.status();
  StatusOr<Schedule> schedule = run->BuildSchedule();
  ASSERT_TRUE(schedule.ok()) << schedule.status();

  AllowedCheckResult allowed = CheckAllowedUnder(*schedule, run->allocation);
  EXPECT_TRUE(allowed.allowed)
      << "engine produced a disallowed trace: "
      << (allowed.violations.empty() ? "" : allowed.violations[0]);

  // The paper's guarantee: robust allocation => serializable execution.
  // (The committed sessions are a subset of the programs with the same
  // levels; robustness is inherited by subsets.)
  if (CheckRobustness(programs, alloc).robust) {
    EXPECT_TRUE(IsConflictSerializable(*schedule));
  }
}

class ConformancePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ConformancePropertyTest, SyntheticWorkloads) {
  SyntheticParams params;
  params.num_txns = 6;
  params.num_objects = 4;
  params.min_ops = 1;
  params.max_ops = 4;
  params.write_fraction = 0.5;
  params.hotspot_fraction = 0.5;
  params.num_hotspots = 2;
  params.reads_precede_writes = true;  // Formal model: no read-your-writes.
  params.seed = GetParam();
  TransactionSet programs = GenerateSynthetic(params);

  CheckConformance(programs, Allocation::AllRC(programs.size()),
                   GetParam() * 3 + 0, 3);
  CheckConformance(programs, Allocation::AllSI(programs.size()),
                   GetParam() * 3 + 1, 3);
  CheckConformance(programs, Allocation::AllSSI(programs.size()),
                   GetParam() * 3 + 2, 3);
  CheckConformance(programs, RandomAllocation(programs.size(), GetParam()),
                   GetParam() * 3 + 3, 4);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ConformancePropertyTest,
                         ::testing::Range<uint64_t>(0, 35));

// The exact two-way correspondence between the engine and the formal
// model, exhaustively at small scale:
//  - completeness: EVERY interleaving whose materialization is allowed
//    under the allocation replays through the engine without blocking or
//    aborting (allowed-ness rules out dirty writes -> no lock waits,
//    concurrent writes -> no first-updater aborts, dangerous structures ->
//    no SSI aborts), and
//  - exactness: the exported trace is conflict EQUIVALENT to the
//    materialized schedule — same dependencies, same serializability.
class EngineCompletenessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EngineCompletenessTest, AllowedInterleavingsReplayExactly) {
  SyntheticParams params;
  params.num_txns = 3;
  params.num_objects = 3;
  params.min_ops = 1;
  params.max_ops = 3;
  params.write_fraction = 0.5;
  params.hotspot_fraction = 0.5;
  params.num_hotspots = 2;
  params.reads_precede_writes = true;
  params.seed = GetParam();
  TransactionSet programs = GenerateSynthetic(params);

  for (IsolationLevel level : kAllIsolationLevels) {
    Allocation alloc(programs.size(), level);
    uint64_t allowed_count = 0;
    ForEachInterleaving(programs, [&](const std::vector<OpRef>& order) {
      StatusOr<Schedule> formal =
          MaterializeSchedule(&programs, order, alloc);
      EXPECT_TRUE(formal.ok());
      if (!AllowedUnder(*formal, alloc)) return true;
      ++allowed_count;

      Engine engine(programs.num_objects());
      StatusOr<DriverReport> report =
          RunExactInterleaving(engine, programs, alloc, order);
      EXPECT_TRUE(report.ok())
          << report.status() << "\n"
          << programs.ToString() << formal->ToString();
      if (!report.ok()) return false;

      StatusOr<ExportedRun> run = ExportCommittedRun(engine, programs);
      EXPECT_TRUE(run.ok());
      StatusOr<Schedule> exported = run->BuildSchedule();
      EXPECT_TRUE(exported.ok());
      // Same dependency structure (transaction ids may be renamed by the
      // exporter, but the order of first operations preserves them here).
      EXPECT_EQ(ComputeDependencies(*exported).size(),
                ComputeDependencies(*formal).size());
      EXPECT_EQ(IsConflictSerializable(*exported),
                IsConflictSerializable(*formal));
      EXPECT_TRUE(AllowedUnder(*exported, run->allocation));
      return true;
    });
    EXPECT_GT(allowed_count, 0u);  // Serial orders are always allowed.
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, EngineCompletenessTest,
                         ::testing::Range<uint64_t>(0, 10));

TEST(ConformanceWorkloadTest, TpccUnderItsOptimalAllocation) {
  Workload tpcc = MakeTpcc(TpccParams{});
  // TPC-C's optimum is A_SI (see workloads_test); execution under it must
  // be serializable.
  for (uint64_t seed = 0; seed < 5; ++seed) {
    CheckConformance(tpcc.txns, Allocation::AllSI(tpcc.txns.size()), seed, 5);
  }
}

TEST(ConformanceWorkloadTest, SmallBankUnderSsi) {
  Workload bank = MakeSmallBank(SmallBankParams{});
  for (uint64_t seed = 0; seed < 5; ++seed) {
    CheckConformance(bank.txns, Allocation::AllSSI(bank.txns.size()), seed,
                     4);
  }
}

TEST(ConformanceWorkloadTest, VoterAndYcsbUnderTheirOptima) {
  for (const char* spec : {"voter:c=3,p=2", "ycsb:a,n=16,seed=4"}) {
    StatusOr<Workload> workload = MakeNamedWorkload(spec);
    ASSERT_TRUE(workload.ok()) << workload.status();
    Allocation optimal =
        ComputeOptimalAllocation(workload->txns).allocation;
    for (uint64_t seed = 0; seed < 4; ++seed) {
      CheckConformance(workload->txns, optimal, seed, 4);
    }
  }
}

TEST(ConformanceWorkloadTest, SmallBankUnderSiCanProduceAnomalies) {
  // Not a flake test: across many seeds, at least one SI run of SmallBank
  // must exhibit a non-serializable committed trace (the workload is not
  // robust against A_SI).
  Workload bank = MakeSmallBank(SmallBankParams{});
  Allocation alloc = Allocation::AllSI(bank.txns.size());
  bool found_anomaly = false;
  for (uint64_t seed = 0; seed < 60 && !found_anomaly; ++seed) {
    Engine engine(bank.txns.num_objects());
    RandomRunOptions options;
    options.concurrency = 6;
    options.seed = seed;
    RunRandom(engine, bank.txns, alloc, options);
    StatusOr<ExportedRun> run = ExportCommittedRun(engine, bank.txns);
    ASSERT_TRUE(run.ok());
    StatusOr<Schedule> schedule = run->BuildSchedule();
    ASSERT_TRUE(schedule.ok());
    EXPECT_TRUE(AllowedUnder(*schedule, run->allocation));
    if (!IsConflictSerializable(*schedule)) found_anomaly = true;
  }
  EXPECT_TRUE(found_anomaly)
      << "SmallBank under A_SI never produced a write-skew anomaly in 60 "
         "random runs; expected at least one";
}

}  // namespace
}  // namespace mvrob
