#ifndef MVROB_MVCC_TXN_TRACE_H_
#define MVROB_MVCC_TXN_TRACE_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "mvcc/engine.h"
#include "txn/transaction_set.h"

namespace mvrob {

class Counter;
class JsonWriter;
class MetricsRegistry;

/// Conflict-edge type of an attributed abort, matching the formal edge
/// vocabulary of the checker (ww/wr/rw of core/conflict.h). A FUW abort is
/// a ww conflict (two concurrent writers of one object); an SSI abort is
/// attributed along an rw-antidependency of the dangerous structure.
enum class ConflictType : uint8_t { kWW, kWR, kRW };

const char* ConflictTypeToString(ConflictType type);

/// Why an attributed abort happened, in mechanism terms (finer than
/// AbortReason: driver-initiated kUser aborts split into deadlock victims
/// and no-wait lock conflicts).
enum class TraceAbortCause : uint8_t {
  kFirstUpdaterWins,
  kSsiDangerousStructure,
  kDeadlockVictim,
  kNoWaitLockConflict,
};

const char* TraceAbortCauseToString(TraceAbortCause cause);

/// Causal attribution of one abort (or block): which concurrent session
/// the victim conflicted with, on which object/version, and how. Producers
/// (the engines and drivers) fill session-level facts; the tracer resolves
/// the conflicting session to its program name and level at record time,
/// so attributions stay meaningful after the session retires.
struct ConflictAttribution {
  SessionId conflicting_session = kInvalidSessionId;
  ObjectId object = kInvalidObjectId;
  /// Commit timestamp of the conflicting version (FUW) — 0 when the
  /// conflict is not version-mediated (lock conflicts, SSI edges on
  /// uncommitted writes).
  Timestamp version_ts = 0;
  ConflictType type = ConflictType::kWW;
  TraceAbortCause cause = TraceAbortCause::kFirstUpdaterWins;
};

/// One operation of a sampled attempt (bounded per attempt; overflow is
/// counted, not stored).
enum class TraceOpKind : uint8_t { kRead, kWrite, kBlocked };

struct TraceOp {
  TraceOpKind kind = TraceOpKind::kRead;
  ObjectId object = kInvalidObjectId;
  /// kBlocked: the session holding the row lock.
  SessionId blocker = kInvalidSessionId;
};

/// One execution attempt (engine session) of a sampled logical
/// transaction: begin -> ops -> commit/abort, with the abort's causal
/// attribution when the engine or driver supplied one.
struct TxnAttempt {
  SessionId session = kInvalidSessionId;
  /// Dense thread id (MetricsRegistry::CurrentThreadId) of the executing
  /// worker — the Chrome trace track.
  uint32_t tid = 0;
  uint64_t begin_us = 0;
  uint64_t end_us = 0;
  bool committed = false;
  AbortReason abort_reason = AbortReason::kNone;
  std::vector<TraceOp> ops;
  uint32_t ops_dropped = 0;
  bool attributed = false;
  ConflictAttribution attribution;
  /// Resolved at attribution time from the tracer's session table.
  std::string conflicting_txn;
  IsolationLevel conflicting_level = IsolationLevel::kRC;
};

/// The full trace of one sampled logical transaction: every attempt
/// (retries included) linked under one flow id. Flow ids are process-wide
/// unique and become Chrome flow-event ids, so retries render as one
/// connected arrow chain across worker tracks.
struct TxnTrace {
  uint64_t flow_id = 0;
  TxnId txn = kInvalidTxnId;
  std::string name;
  IsolationLevel level = IsolationLevel::kRC;
  bool committed = false;
  std::vector<TxnAttempt> attempts;
  uint32_t attempts_dropped = 0;
};

/// One row of the aggregated conflict-attribution table: every attributed
/// abort (sampled or not) counts here, keyed by the (victim level,
/// conflicting level) pair, the conflict type/cause, and the transaction
/// templates involved.
struct TraceConflictRow {
  std::string victim;
  IsolationLevel victim_level = IsolationLevel::kRC;
  std::string conflicting;
  IsolationLevel conflicting_level = IsolationLevel::kRC;
  ConflictType type = ConflictType::kWW;
  TraceAbortCause cause = TraceAbortCause::kFirstUpdaterWins;
  uint64_t count = 0;
};

struct TxnTracerOptions {
  /// Head-based deterministic sampling: logical transaction instance k
  /// (0-based, in StartFlow order) is sampled iff k % sample_every_n == 0.
  /// On the deterministic driver the instance order is a pure function of
  /// the seed, so the sampled set is reproducible.
  uint64_t sample_every_n = 1;
  /// Completed sampled traces retained (oldest dropped, drop counted).
  size_t ring_capacity = 256;
  /// Ops recorded per attempt / attempts per flow before counting drops.
  size_t max_ops_per_attempt = 64;
  size_t max_attempts_per_flow = 32;
  /// Optional sink for the trace.* counter family (trace.flows_started,
  /// trace.flows_sampled, trace.attempts_sampled,
  /// trace.aborts_attributed{type=...}, trace.completed_dropped). Null
  /// disables the counters; the tracer itself still records.
  MetricsRegistry* metrics = nullptr;
  /// Test hook: overrides the span clock (default: microseconds since the
  /// tracer's construction on the steady clock), so golden exports are
  /// deterministic. Timestamps never influence engine behavior.
  uint64_t (*clock_us)() = nullptr;
};

/// A sampled, thread-safe recorder of per-transaction lifecycle spans
/// with causal abort attribution — the runtime mirror of the checker's
/// counterexample edges. Drivers own the flow lifecycle (StartFlow /
/// BeginAttempt / OnRead / OnWrite / OnBlocked / EndAttempt / EndFlow);
/// engines report attributions at their abort sites (AttributeAbort).
///
/// Cost contract, same discipline as the metrics sink: a null TxnTracer*
/// in EngineSinks (set once on RandomRunOptions) disables every call site,
/// and the tracer only observes — attaching one never changes a run's
/// results.
/// Unsampled flows (flow id 0) skip all per-op recording; their aborts
/// still feed the aggregated conflict table, which costs one mutexed map
/// bump per abort.
///
/// All state sits behind one mutex: only sampled flows record ops, and
/// abort/attribution events are rare relative to engine steps, so the
/// lock is uncontended in practice and the type is trivially TSan-clean.
class TxnTracer {
 public:
  explicit TxnTracer(TxnTracerOptions options = {});
  TxnTracer(const TxnTracer&) = delete;
  TxnTracer& operator=(const TxnTracer&) = delete;

  /// Resets the per-run session table and caches the workload's
  /// transaction/object names for attribution rendering. Drivers call it
  /// once per engine instance (session ids restart with each engine);
  /// completed traces and the conflict table persist across runs.
  void BeginRun(const TransactionSet& txns);

  /// Registers one logical transaction instance; returns its flow id when
  /// sampled, 0 otherwise. Flow ids start at 1.
  uint64_t StartFlow(TxnId txn, IsolationLevel level);

  /// Registers `session` as executing `txn` at `level` (all sessions, so
  /// conflicting sessions can be named), and opens an attempt span on the
  /// flow when `flow_id` != 0.
  void BeginAttempt(uint64_t flow_id, SessionId session, TxnId txn,
                    IsolationLevel level);

  /// Per-op records on a sampled flow; no-ops when flow_id == 0.
  void OnRead(uint64_t flow_id, ObjectId object);
  void OnWrite(uint64_t flow_id, ObjectId object);
  void OnBlocked(uint64_t flow_id, ObjectId object, SessionId blocker);

  /// Closes the current attempt span; consumes any pending attribution
  /// recorded by AttributeAbort since BeginAttempt.
  void EndAttempt(uint64_t flow_id, bool committed, AbortReason reason);

  /// Completes the flow and moves it into the bounded ring of finished
  /// traces. Idempotent; no-op when flow_id == 0.
  void EndFlow(uint64_t flow_id, bool committed);

  /// Records the causal attribution of an abort of `victim` (engine abort
  /// sites and the drivers' deadlock/no-wait aborts). Always feeds the
  /// aggregated conflict table; additionally attaches to the victim's
  /// current attempt when its flow is sampled. Call before EndAttempt.
  void AttributeAbort(SessionId victim, const ConflictAttribution& attribution);

  uint64_t sample_every_n() const { return options_.sample_every_n; }
  uint64_t flows_started() const;
  uint64_t flows_sampled() const;
  uint64_t aborts_attributed() const;

  /// Completed traces, oldest first (ring copy).
  std::vector<TxnTrace> CompletedTraces() const;

  /// The conflict table's top `k` rows by count (ties broken by key
  /// order — deterministic).
  std::vector<TraceConflictRow> TopConflicts(size_t k) const;

  /// The /trace payload (schema v1, docs/formats.md): sampling config,
  /// lifetime totals, the aggregated conflict table, and the recent
  /// completed traces.
  std::string StatusJson() const;

  /// Appends Chrome trace_event objects (one "X" span per attempt plus
  /// "s"/"t"/"f" flow events linking retries) into an already-open
  /// traceEvents array on `json`. Timestamps share the tracer's epoch.
  void WriteChromeEvents(JsonWriter& json) const;

 private:
  struct SessionInfo {
    TxnId txn = kInvalidTxnId;
    IsolationLevel level = IsolationLevel::kRC;
    uint64_t flow = 0;  // 0 = unsampled.
  };
  /// Conflict-table key; operator< gives the deterministic render order.
  struct ConflictKey {
    std::string victim;
    std::string conflicting;
    IsolationLevel victim_level;
    IsolationLevel conflicting_level;
    ConflictType type;
    TraceAbortCause cause;
    bool operator<(const ConflictKey& other) const;
  };

  uint64_t NowUs() const;
  std::string TxnNameLocked(TxnId txn) const;
  std::string ObjectNameLocked(ObjectId object) const;
  void WriteAttemptJsonLocked(const TxnAttempt& attempt,
                              JsonWriter& json) const;

  const TxnTracerOptions options_;
  const std::chrono::steady_clock::time_point epoch_;

  // Counter handles resolved once at construction; null without a sink.
  Counter* m_flows_started_ = nullptr;
  Counter* m_flows_sampled_ = nullptr;
  Counter* m_attempts_ = nullptr;
  Counter* m_attributed_[3] = {nullptr, nullptr, nullptr};  // By ConflictType.
  Counter* m_dropped_ = nullptr;

  mutable std::mutex mu_;
  std::vector<std::string> txn_names_;
  std::vector<std::string> object_names_;
  std::vector<SessionInfo> sessions_;  // Indexed by SessionId, per run.
  uint64_t instances_ = 0;             // StartFlow calls (sampling base).
  uint64_t next_flow_id_ = 0;
  uint64_t flows_sampled_ = 0;
  uint64_t aborts_attributed_ = 0;
  uint64_t completed_dropped_ = 0;
  std::map<uint64_t, TxnTrace> live_;  // Sampled in-flight flows.
  std::deque<TxnTrace> completed_;     // Bounded ring, oldest first.
  std::map<ConflictKey, uint64_t> conflicts_;
};

}  // namespace mvrob

#endif  // MVROB_MVCC_TXN_TRACE_H_
