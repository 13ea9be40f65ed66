#ifndef MVROB_MVCC_ENGINE_H_
#define MVROB_MVCC_ENGINE_H_

#include <deque>
#include <map>
#include <optional>
#include <vector>

#include "iso/isolation_level.h"
#include "mvcc/ssi_tracker.h"
#include "mvcc/version_store.h"

namespace mvrob {

class Counter;
class Gauge;
class Histogram;
class MetricsRegistry;
class ScheduleRecorder;
class TxnTracer;
class Watchdog;

/// Lifecycle of an engine session.
enum class TxnState : uint8_t { kActive, kCommitted, kAborted };

/// Outcome of a single engine step.
enum class StepStatus : uint8_t {
  kOk,
  /// The step must wait (another active session holds the row lock). The
  /// session is unchanged; retry after the blocker finishes.
  kBlocked,
  /// The session was aborted by the engine (first-updater-wins or SSI
  /// dangerous structure). All its effects are discarded.
  kAborted,
};

/// Why the engine aborted a session.
enum class AbortReason : uint8_t {
  kNone,
  /// SI/SSI write to an object with a version committed after the
  /// session's snapshot (first-updater-wins).
  kWriteConflict,
  /// Committing would complete a dangerous structure among SSI sessions
  /// (Definition 2.4 / Cahill et al.).
  kSsiDangerousStructure,
  /// Aborted by the caller (e.g. deadlock victim).
  kUser,
};

struct ReadResult {
  StepStatus status = StepStatus::kOk;
  Value value = 0;
  /// Who wrote the observed version: a session id, kInvalidSessionId for
  /// the initial version, or the reader itself for own-buffer reads.
  SessionId version_writer = kInvalidSessionId;
  /// True if the value came from the session's own uncommitted buffer.
  bool own_write = false;
};

struct WriteResult {
  StepStatus status = StepStatus::kOk;
  /// When blocked: the active session holding the row lock (for deadlock
  /// detection by the driver).
  SessionId blocker = kInvalidSessionId;
  AbortReason abort_reason = AbortReason::kNone;
};

struct CommitResult {
  StepStatus status = StepStatus::kOk;
  AbortReason abort_reason = AbortReason::kNone;
  Timestamp commit_ts = 0;
};

/// Aggregate counters exposed to the benchmarks.
struct EngineStats {
  uint64_t begins = 0;
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t commits = 0;
  uint64_t aborts_write_conflict = 0;
  uint64_t aborts_ssi = 0;
  uint64_t aborts_user = 0;
  uint64_t blocked_steps = 0;

  friend bool operator==(const EngineStats&, const EngineStats&) = default;
};

/// Read/write record kept per session for SSI tracking and trace export.
struct SessionReadRecord {
  ObjectId object;
  Timestamp version_ts;     // Commit timestamp of the observed version.
  SessionId version_writer; // kInvalidSessionId for the initial version.
  uint64_t step;            // Global step at which the read happened.
};
struct SessionWriteRecord {
  ObjectId object;
  uint64_t step;
};

/// Everything the engine knows about one session; exposed (const) to the
/// SSI registry and the trace exporter.
struct SessionRecord {
  IsolationLevel level = IsolationLevel::kRC;
  TxnState state = TxnState::kActive;
  AbortReason abort_reason = AbortReason::kNone;
  Timestamp snapshot_ts = 0;  // Snapshot for SI/SSI reads and FUW checks.
  Timestamp commit_ts = 0;
  uint64_t first_step = 0;    // Step of the first read/write; 0 if none.
  uint64_t commit_step = 0;
  std::map<ObjectId, Value> write_buffer;
  std::vector<SessionReadRecord> reads;
  std::vector<SessionWriteRecord> writes;
};

/// How the engine detects SSI dangerous structures.
enum class SsiMode : uint8_t {
  /// Exact Definition 2.4: abort a commit iff it completes a dangerous
  /// structure among committed SSI sessions (no false positives).
  kExact,
  /// Postgres/Cahill-style conservative flags: abort a committing SSI
  /// session if any SSI pivot then has both an incoming and an outgoing
  /// rw-antidependency, ignoring the commit-order conditions and counting
  /// still-active sessions. Strictly more aborts (false positives), much
  /// cheaper bookkeeping in a real system; the ablation benchmark
  /// quantifies the gap.
  kConservative,
};

/// Commits per version-reclamation epoch, shared by both engines:
/// a continuous RunRandom vacuums the single-threaded engine every
/// kCommitsPerEpoch commits, and the many-core engine sweeps itself every
/// kCommitsPerEpoch writer commits (ConcurrentEngineOptions's default).
inline constexpr uint64_t kCommitsPerEpoch = 4096;

/// The observability sinks an engine run reports to, set once on the run
/// options (RandomRunOptions) and passed to whichever engine runs. Every
/// pointer is nullable; a null sink costs one null test per hook, and an
/// attached one never changes a run.
struct EngineSinks {
  /// mvcc.* counters, gauges and histograms (common/metrics.h). With
  /// Engine's kConservative SSI mode the engine also runs the exact
  /// Definition 2.4 check on every conservative abort and counts the
  /// disagreements as mvcc.ssi_false_positives.
  MetricsRegistry* metrics = nullptr;
  /// Schedule recorder (mvcc/recorder.h): every begin/read/write/commit/
  /// abort (and blocked write) as an EngineEvent, exportable as a
  /// replayable schedule file or a Chrome trace.
  ScheduleRecorder* recorder = nullptr;
  /// Transaction tracer (mvcc/txn_trace.h): the causal attribution of
  /// each abort the engine initiates — first-updater-wins (the
  /// conflicting version's writer) and SSI dangerous structure (the
  /// rw-edge neighbor). The tracer never influences engine decisions.
  TxnTracer* tracer = nullptr;
  /// Stall watchdog (common/watchdog.h): version GC sweeps run under a
  /// monitored scope, so a wedged sweep produces a symbolized stall dump.
  Watchdog* watchdog = nullptr;
};

/// The single-threaded engine's sinks plus its SSI detection mode.
struct EngineOptions : EngineSinks {
  SsiMode ssi_mode = SsiMode::kExact;
};

/// The sink core both engines share: the tracer plus the mvcc.* handles
/// resolved once at construction (all null without a registry), so every
/// instrumented step costs one relaxed atomic add, or one null test when
/// detached. The engine supplies the step, key or version; nothing here
/// depends on which engine calls it.
struct EngineHooks {
  explicit EngineHooks(const EngineSinks& sinks);

  /// Counts an abort into `stats` and its mvcc.aborts.* counter.
  void CountAbort(EngineStats& stats, AbortReason reason) const;
  /// Tracer attribution of a first-updater-wins abort of `victim`:
  /// `conflicting` is the newest version of `object`, the one committed
  /// after the victim's snapshot.
  void AttributeWriteConflict(SessionId victim, ObjectId object,
                              const StoredVersion& conflicting) const;
  /// Tracer attribution of an SSI dangerous-structure abort of `victim`.
  void AttributeSsi(SessionId victim, const SsiConflictDetail& detail) const;
  /// mvcc.ssi.graph_size after an SSI commit.
  void SetSsiGraphSize(size_t size) const;
  /// One version-reclamation epoch: mvcc.gc.epochs, mvcc.gc.reclaimed and
  /// the mvcc.gc.horizon gauge (looked up by name, as epochs are rare),
  /// plus one structured mvcc.gc log line.
  void RecordGcEpoch(uint64_t epoch, Timestamp horizon,
                     size_t reclaimed) const;

  MetricsRegistry* metrics = nullptr;
  TxnTracer* tracer = nullptr;
  Counter* begins = nullptr;
  Counter* reads = nullptr;
  Counter* writes = nullptr;
  Counter* commits = nullptr;
  Counter* aborts_write_conflict = nullptr;
  Counter* aborts_ssi = nullptr;
  Counter* aborts_user = nullptr;
  Counter* blocked_steps = nullptr;
  /// Conservative SSI aborts the exact check would not take (Engine's
  /// kConservative mode only; the many-core engine is always exact).
  Counter* ssi_false_positives = nullptr;
  Gauge* ssi_graph_size = nullptr;
  Histogram* version_chain_len = nullptr;
};

/// An in-memory multiversion engine executing transactions under
/// per-session isolation levels {RC, SI, SSI} — the executable form of the
/// paper's Definitions 2.3/2.4, modeled on Postgres:
///
///  - writes are buffered and installed at commit in commit order
///    (writes respect the commit order);
///  - RC reads observe the newest committed version at the *read*;
///    SI/SSI reads observe the newest version committed before the
///    session's snapshot (read-last-committed relative to first(T));
///  - row locks serialize concurrent writers (no dirty writes): a write to
///    a row locked by another active session blocks;
///  - SI/SSI writers abort when a version was committed after their
///    snapshot (first-updater-wins: no concurrent writes);
///  - SSI sessions are monitored for dangerous structures (exactly the
///    condition of Definition 2.4, including the commit-order
///    optimization); a commit that would complete one aborts instead.
///
/// Single-threaded by design: callers (the Driver) interleave sessions
/// step by step, which makes anomalies reproducible and lets tests replay
/// the exact counterexample schedules produced by the robustness checker.
class Engine {
 public:
  explicit Engine(size_t num_objects, EngineOptions options = {});

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Starts a session at `level`. The snapshot is taken at Begin.
  SessionId Begin(IsolationLevel level);

  /// Reads `object`. Never blocks (MVCC readers don't block).
  ReadResult Read(SessionId session, ObjectId object);

  /// Writes `object` (buffered until commit).
  WriteResult Write(SessionId session, ObjectId object, Value value);

  /// Commits the session, installing its writes.
  CommitResult Commit(SessionId session);

  /// Aborts the session (driver-initiated, e.g. deadlock victim).
  void Abort(SessionId session);

  /// Garbage-collects versions unreachable by every active snapshot
  /// (VACUUM). Safe to call at any time; returns versions dropped. Costs
  /// O(active sessions + versions), not O(sessions ever begun).
  size_t Vacuum();

  /// One garbage-collection epoch, as a continuous RunRandom runs every
  /// kCommitsPerEpoch commits: Vacuum under a "mvcc.gc" watchdog scope,
  /// reported through EngineHooks::RecordGcEpoch. Returns versions dropped.
  size_t RunEpochGc();

  const SessionRecord& session(SessionId id) const { return sessions_[id]; }
  size_t num_sessions() const { return sessions_.size(); }
  const VersionStore& store() const { return store_; }
  const EngineStats& stats() const { return stats_; }
  /// Global step counter (each read/write/commit is one step).
  uint64_t current_step() const { return step_; }

 private:
  void AbortInternal(SessionId session, AbortReason reason);
  /// Drops a committed or aborted session from active_.
  void RemoveActive(SessionId session);
  /// Lower bound on the first step of every active and future SSI session.
  uint64_t SsiHorizon() const;
  /// Oldest snapshot an active session can still read at.
  Timestamp VacuumHorizon() const;

  EngineOptions options_;
  EngineHooks hooks_;
  VersionStore store_;
  /// Every session ever begun, indexed by id; the deque keeps record
  /// addresses stable for the SSI registry.
  std::deque<SessionRecord> sessions_;
  /// Sessions begun and not yet committed or aborted.
  std::vector<SessionId> active_;
  SsiRegistry ssi_;
  /// Row locks: object -> active writing session.
  std::map<ObjectId, SessionId> row_locks_;
  Timestamp clock_ = 0;
  uint64_t step_ = 0;
  uint64_t gc_epochs_ = 0;
  EngineStats stats_;
};

}  // namespace mvrob

#endif  // MVROB_MVCC_ENGINE_H_
