#ifndef MVROB_MVCC_DRIVER_H_
#define MVROB_MVCC_DRIVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "iso/allocation.h"
#include "mvcc/concurrent_engine.h"
#include "mvcc/engine.h"
#include "mvcc/trace.h"
#include "txn/transaction_set.h"

namespace mvrob {

class WindowedCounter;
class WindowedHistogram;

/// Sliding-window instruments the drivers update per commit/abort,
/// keyed by the transaction's isolation level — the live per-level
/// throughput / abort-rate / latency series behind `mvrob serve`. All
/// pointers may be null (that series is simply skipped); resolve a full
/// set from a registry with MakeLiveTelemetry. Latency is wall time from
/// the attempt's Begin to its successful Commit, in microseconds.
struct LiveTelemetry {
  struct PerLevel {
    WindowedCounter* commits = nullptr;
    WindowedCounter* aborts_write_conflict = nullptr;
    WindowedCounter* aborts_ssi = nullptr;
    WindowedCounter* aborts_deadlock = nullptr;
    WindowedHistogram* commit_latency_us = nullptr;
  };
  /// Indexed by static_cast<size_t>(IsolationLevel).
  PerLevel per_level[kAllIsolationLevels.size()];
};

/// Resolves the full per-level instrument set on `registry` using the
/// labeled-name convention consumed by the Prometheus renderer
/// (e.g. "mvcc.live.commits{level=SI}").
LiveTelemetry MakeLiveTelemetry(MetricsRegistry& registry,
                                uint32_t window_seconds = 60);

/// Summary of a driver run.
struct DriverReport {
  uint64_t committed = 0;
  uint64_t aborted_programs = 0;  // Programs that exhausted their retries.
  uint64_t attempts = 0;          // Sessions started (retries included).
  uint64_t blocked_steps = 0;
  uint64_t deadlock_victims = 0;
  /// For exact runs: the session executing each program transaction.
  std::vector<SessionId> session_of_program;

  friend bool operator==(const DriverReport&, const DriverReport&) = default;
};

/// Replays an exact operation interleaving (an order over `programs` as
/// accepted by Schedule::Create) against the engine, one engine call per
/// operation. Each program transaction starts its session at its first
/// operation, so SI/SSI snapshots anchor at first(T) exactly as in the
/// formal model.
///
/// Fails with FailedPrecondition if any step blocks or aborts — callers
/// replay schedules (e.g. Algorithm 1 counterexamples) that are expected to
/// run clean, and a refusal is itself meaningful signal.
StatusOr<DriverReport> RunExactInterleaving(Engine& engine,
                                            const TransactionSet& programs,
                                            const Allocation& alloc,
                                            const std::vector<OpRef>& order);

/// Options for a randomized run. The inherited sinks (EngineSinks) are set
/// once here: RunWorkload hands them to the engine it builds, and the
/// drivers report to them too — metrics gets the driver.* counters and the
/// driver's phase span, the tracer one flow per logical program execution
/// with one attempt span per engine session (plus attribution of the
/// driver's own aborts), and the watchdog a heartbeat scope per driving
/// thread. RunRandom and RunConcurrent on a hand-built engine leave the
/// engine's sinks as it was built. Attaching any sink never changes
/// scheduling: runs stay bit-identical.
struct RandomRunOptions : EngineSinks {
  /// Programs concurrently in flight (single-threaded engine; the
  /// many-core engine runs one session per worker).
  int concurrency = 4;
  /// Retries per program after engine-initiated aborts.
  int max_retries = 5;
  uint64_t seed = 0;
  /// Hard stop (steps across all sessions) against livelock.
  uint64_t max_steps = 10'000'000;
  /// Cooperative cancellation: when non-null, checked between steps, and
  /// the run returns as soon as it is set. Required for serve mode, where
  /// the loop otherwise never ends.
  const std::atomic<bool>* stop = nullptr;
  /// Continuous (serve) mode: a program that commits or exhausts its
  /// retries is reset and re-enqueued, so the run ends only via `stop` or
  /// `max_steps`. Version GC runs every kCommitsPerEpoch commits to keep
  /// the version store bounded. Scheduling stays deterministic for a fixed
  /// seed and step budget.
  bool continuous = false;
  /// Live windowed per-isolation-level instruments (serve mode). Null
  /// disables; like the sinks, attaching it never changes the run.
  const LiveTelemetry* live = nullptr;
  /// Engine worker threads for RunWorkload: 1 builds the deterministic
  /// single-threaded Engine and runs RunRandom; > 1 builds the many-core
  /// ConcurrentEngine and runs RunConcurrent on that many OS threads.
  int engine_threads = 1;
  /// Key-space shards of the many-core engine (0 = auto). Only meaningful
  /// with engine_threads > 1: the single-threaded engine is unsharded, and
  /// the CLI and ValidateEngineRuns reject a shard count without threads.
  size_t engine_shards = 0;
};

/// Executes every program of `programs` once (plus retries) under the
/// allocation, interleaving up to `concurrency` sessions uniformly at
/// random. Blocked sessions wait for their blocker; deadlocks are broken by
/// aborting the youngest session, which then retries. The throughput
/// benchmarks measure commits against engine steps and wall time.
DriverReport RunRandom(Engine& engine, const TransactionSet& programs,
                       const Allocation& alloc,
                       const RandomRunOptions& options);

/// The many-core counterpart of RunRandom: executes `programs` under
/// `alloc` on engine.num_workers() OS threads, each worker driving its own
/// round-robin share of the programs through the sharded engine.
///
/// Differences from the deterministic driver:
///
///  - scheduling is the OS scheduler, not a seeded shuffle, so runs are
///    NOT reproducible step for step (the seed still fixes each worker's
///    program order and value stream). Correctness is checked after the
///    fact: the recorded run must round-trip through the validator and be
///    equivalent to a deterministic interleaving (mvcc/roundtrip.h);
///  - no-wait locking: a write that hits a foreign row lock aborts the
///    attempt and retries after a yield instead of waiting, so there are
///    no cross-thread wait cycles to detect. Lock-conflict aborts are
///    counted in DriverReport::deadlock_victims (and on the live
///    "deadlock" abort series) and do not consume the program's retry
///    budget — only engine-initiated aborts (first-updater-wins, SSI) do.
///
/// max_steps is honored approximately (the budget is checked in small
/// batches per worker); the effective concurrency is the engine's worker
/// count. session_of_program is left empty.
DriverReport RunConcurrent(ConcurrentEngine& engine,
                           const TransactionSet& programs,
                           const Allocation& alloc,
                           const RandomRunOptions& options);

/// What RunWorkload did: the driver's report, the engine's counters, and
/// the engine itself, kept so the committed run can be exported.
class WorkloadRun {
 public:
  const DriverReport& report() const { return report_; }
  const EngineStats& stats() const { return stats_; }
  /// The committed sessions as a formal multiversion schedule; fails like
  /// ExportCommittedRun (a session that wrote an object twice).
  StatusOr<ExportedRun> Export(const TransactionSet& object_names) const;

 private:
  friend WorkloadRun RunWorkload(const TransactionSet&, const Allocation&,
                                 const RandomRunOptions&);

  DriverReport report_;
  EngineStats stats_;
  std::unique_ptr<Engine> engine_;
  std::unique_ptr<ConcurrentEngine> concurrent_engine_;
};

/// The one run path: builds the single-threaded Engine when
/// options.engine_threads == 1 and the many-core ConcurrentEngine
/// otherwise, hands it the options' sinks (and shard count), and runs
/// RunRandom or RunConcurrent on it.
WorkloadRun RunWorkload(const TransactionSet& programs,
                        const Allocation& alloc,
                        const RandomRunOptions& options);

}  // namespace mvrob

#endif  // MVROB_MVCC_DRIVER_H_
