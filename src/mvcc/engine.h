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

struct EngineOptions {
  SsiMode ssi_mode = SsiMode::kExact;
  /// Optional observability sink (common/metrics.h). Null disables all
  /// instrumentation. The gauge mvcc.ssi.graph_size holds the SSI
  /// registry's size after each SSI commit. With kConservative SSI mode and
  /// a sink attached, the engine additionally runs the exact Definition 2.4
  /// check on every conservative abort and counts the disagreements as
  /// mvcc.ssi_false_positives (conservative aborts the exact check would
  /// not have taken).
  MetricsRegistry* metrics = nullptr;
  /// Optional schedule recorder (mvcc/recorder.h). When attached, the
  /// engine logs every begin/read/write/commit/abort (and blocked write)
  /// as an EngineEvent; the log can be exported as a replayable schedule
  /// file or a Chrome trace, and fed back through the formal checker by
  /// the round-trip validator. Null disables recording.
  ScheduleRecorder* recorder = nullptr;
  /// Optional transaction tracer (mvcc/txn_trace.h). When attached, the
  /// engine reports a causal attribution at each abort it initiates —
  /// first-updater-wins (the conflicting version's writer) and SSI
  /// dangerous structure (the rw-edge neighbor) — to the tracer's
  /// conflict table and to the victim's sampled attempt span. Same
  /// zero-cost contract as the other sinks: null disables every call
  /// site, and the tracer never influences engine decisions.
  TxnTracer* tracer = nullptr;
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

  EngineOptions options_;
  // Metric handles resolved once at construction (one relaxed atomic add
  // per instrumented step); all null when options_.metrics is null.
  Counter* m_begins_ = nullptr;
  Counter* m_reads_ = nullptr;
  Counter* m_writes_ = nullptr;
  Counter* m_commits_ = nullptr;
  Counter* m_aborts_write_conflict_ = nullptr;
  Counter* m_aborts_ssi_ = nullptr;
  Counter* m_aborts_user_ = nullptr;
  Counter* m_blocked_steps_ = nullptr;
  Counter* m_ssi_false_positives_ = nullptr;
  Gauge* m_ssi_graph_size_ = nullptr;
  Histogram* m_version_chain_len_ = nullptr;
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
  EngineStats stats_;
};

}  // namespace mvrob

#endif  // MVROB_MVCC_ENGINE_H_
