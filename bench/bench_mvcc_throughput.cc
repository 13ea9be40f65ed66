// MVCC execution study (DESIGN.md E11): the practical payoff of mixed
// allocations, on the engine substrate.
//
// Part 1 — footnote 1 of the paper: under contention, RC outperforms SI
// (first-updater-wins aborts cost SI commits/retries on hotspot RMW
// workloads).
//
// Part 2 — the allocation payoff on SmallBank: A_RC and A_SI are cheap but
// admit non-serializable executions; A_SSI is safe but pays dangerous-
// structure aborts for every transaction; the *optimal mixed* allocation
// (Algorithm 2) is exactly as safe with fewer aborts and retries.
#include <chrono>
#include <cstdio>

#include "core/optimal_allocation.h"
#include "iso/allowed.h"
#include "mvcc/driver.h"
#include "mvcc/trace.h"
#include "schedule/serializability.h"
#include "workloads/smallbank.h"
#include "workloads/synthetic.h"
#include "workloads/ycsb.h"

namespace mvrob {
namespace {

struct RunOutcome {
  uint64_t committed = 0;
  uint64_t gave_up = 0;
  uint64_t attempts = 0;
  uint64_t fuw_aborts = 0;   // First-updater-wins.
  uint64_t ssi_aborts = 0;
  uint64_t blocked = 0;
  uint64_t serializable_runs = 0;
  uint64_t runs = 0;
  double wall_ms = 0;
};

RunOutcome Measure(const TransactionSet& programs, const Allocation& alloc,
                   int concurrency, int repetitions,
                   SsiMode ssi_mode = SsiMode::kExact) {
  RunOutcome outcome;
  for (int rep = 0; rep < repetitions; ++rep) {
    Engine engine(programs.num_objects(), EngineOptions{{}, ssi_mode});
    RandomRunOptions options;
    options.concurrency = concurrency;
    options.max_retries = 5;
    options.seed = static_cast<uint64_t>(rep) * 31 + 5;
    auto start = std::chrono::steady_clock::now();
    DriverReport report = RunRandom(engine, programs, alloc, options);
    auto end = std::chrono::steady_clock::now();
    outcome.wall_ms +=
        std::chrono::duration<double, std::milli>(end - start).count();
    outcome.committed += report.committed;
    outcome.gave_up += report.aborted_programs;
    outcome.attempts += report.attempts;
    outcome.fuw_aborts += engine.stats().aborts_write_conflict;
    outcome.ssi_aborts += engine.stats().aborts_ssi;
    outcome.blocked += report.blocked_steps;
    ++outcome.runs;
    StatusOr<ExportedRun> run = ExportCommittedRun(engine, programs);
    if (run.ok()) {
      StatusOr<Schedule> schedule = run->BuildSchedule();
      if (schedule.ok() && IsConflictSerializable(*schedule)) {
        ++outcome.serializable_runs;
      }
    }
  }
  return outcome;
}

void PrintRow(const char* label, const RunOutcome& o) {
  std::printf(
      "  %-14s commits=%-5llu retries=%-4llu fuw_aborts=%-4llu "
      "ssi_aborts=%-4llu blocked=%-4llu serializable=%llu/%llu "
      "wall=%.1fms\n",
      label, static_cast<unsigned long long>(o.committed),
      static_cast<unsigned long long>(o.attempts - o.committed - o.gave_up),
      static_cast<unsigned long long>(o.fuw_aborts),
      static_cast<unsigned long long>(o.ssi_aborts),
      static_cast<unsigned long long>(o.blocked),
      static_cast<unsigned long long>(o.serializable_runs),
      static_cast<unsigned long long>(o.runs), o.wall_ms);
}

void ContentionSweep() {
  std::printf("\nPart 1: RC vs SI vs SSI on hotspot read-modify-writes\n");
  std::printf("(paper footnote 1: under contention RC outperforms SI)\n");
  for (double hotspot : {0.1, 0.5, 0.9}) {
    SyntheticParams params;
    params.num_txns = 40;
    params.num_objects = 16;
    params.min_ops = 2;
    params.max_ops = 4;
    params.write_fraction = 0.5;
    params.hotspot_fraction = hotspot;
    params.num_hotspots = 2;
    params.reads_precede_writes = true;
    params.seed = 12;
    TransactionSet programs = GenerateSynthetic(params);
    std::printf("hotspot fraction %.1f:\n", hotspot);
    PrintRow("A_RC",
             Measure(programs, Allocation::AllRC(programs.size()), 8, 10));
    PrintRow("A_SI",
             Measure(programs, Allocation::AllSI(programs.size()), 8, 10));
    PrintRow("A_SSI",
             Measure(programs, Allocation::AllSSI(programs.size()), 8, 10));
  }
}

void SmallBankAllocationPayoff() {
  std::printf("\nPart 2: allocation payoff on SmallBank\n");
  SmallBankParams params;
  params.customers = 4;
  params.rounds = 3;
  Workload bank = MakeSmallBank(params);
  const TransactionSet& programs = bank.txns;
  Allocation optimal = ComputeOptimalAllocation(programs).allocation;
  std::printf("programs: %zu; optimal allocation: RC=%zu SI=%zu SSI=%zu\n",
              programs.size(), optimal.CountAt(IsolationLevel::kRC),
              optimal.CountAt(IsolationLevel::kSI),
              optimal.CountAt(IsolationLevel::kSSI));
  PrintRow("A_RC (unsafe)",
           Measure(programs, Allocation::AllRC(programs.size()), 8, 10));
  PrintRow("A_SI (unsafe)",
           Measure(programs, Allocation::AllSI(programs.size()), 8, 10));
  PrintRow("A_SSI", Measure(programs, Allocation::AllSSI(programs.size()),
                            8, 10));
  PrintRow("optimal mixed", Measure(programs, optimal, 8, 10));
  std::printf(
      "expected shape: the unsafe allocations may yield non-serializable\n"
      "runs; A_SSI and the optimal mixed allocation are always\n"
      "serializable, with the mixed allocation paying fewer aborts.\n");
}

void YcsbMixes() {
  std::printf("\nPart 3: YCSB mixes under their optimal allocations\n");
  struct Mix {
    const char* name;
    YcsbParams params;
  } mixes[] = {
      {"YCSB-A (50/50)", YcsbParams::MixA()},
      {"YCSB-B (95/5) ", YcsbParams::MixB()},
      {"YCSB-C (reads)", YcsbParams::MixC()},
      {"YCSB-F (RMW)  ", YcsbParams::MixF()},
  };
  for (Mix& mix : mixes) {
    mix.params.num_txns = 40;
    mix.params.seed = 9;
    Workload workload = MakeYcsb(mix.params);
    Allocation optimal = ComputeOptimalAllocation(workload.txns).allocation;
    std::printf("%s optimal: RC=%zu SI=%zu SSI=%zu\n", mix.name,
                optimal.CountAt(IsolationLevel::kRC),
                optimal.CountAt(IsolationLevel::kSI),
                optimal.CountAt(IsolationLevel::kSSI));
    PrintRow("  optimal", Measure(workload.txns, optimal, 8, 5));
    PrintRow("  A_SSI",
             Measure(workload.txns,
                     Allocation::AllSSI(workload.txns.size()), 8, 5));
  }
}

void SsiModeAblation() {
  std::printf("\nPart 4: exact vs conservative SSI detection (ablation)\n");
  std::printf("(DESIGN.md: the engine defaults to the exact Definition 2.4\n");
  std::printf(" check; Postgres-style pivot flags are cheaper per commit\n");
  std::printf(" but abort on false positives)\n");
  SmallBankParams params;
  params.customers = 4;
  params.rounds = 3;
  Workload bank = MakeSmallBank(params);
  Allocation all_ssi = Allocation::AllSSI(bank.txns.size());
  PrintRow("SSI exact", Measure(bank.txns, all_ssi, 8, 10, SsiMode::kExact));
  PrintRow("SSI conserv.",
           Measure(bank.txns, all_ssi, 8, 10, SsiMode::kConservative));
}

}  // namespace
}  // namespace mvrob

int main() {
  std::printf("MVCC throughput & safety study\n");
  std::printf("==============================\n");
  mvrob::ContentionSweep();
  mvrob::SmallBankAllocationPayoff();
  mvrob::YcsbMixes();
  mvrob::SsiModeAblation();
  return 0;
}
