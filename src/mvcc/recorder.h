#ifndef MVROB_MVCC_RECORDER_H_
#define MVROB_MVCC_RECORDER_H_

#include <string>
#include <string_view>
#include <vector>

#include "mvcc/engine.h"
#include "mvcc/trace.h"

namespace mvrob {

/// What happened at one engine step. Every event carries the session and
/// the engine's global step counter at the moment it was recorded, so the
/// log is a total order over the execution.
enum class EngineEventKind : uint8_t {
  kBegin,    // Session started (level, snapshot timestamp).
  kRead,     // Read with the observed version's writer + commit timestamp.
  kWrite,    // Buffered write (value recorded for replay).
  kBlocked,  // Write blocked on a row lock (blocker in version_writer).
  kCommit,   // Commit with its commit timestamp.
  kAbort,    // Abort with its reason (engine- or user-initiated).
};

const char* EngineEventKindToString(EngineEventKind kind);
const char* AbortReasonToString(AbortReason reason);

/// One recorded engine event. Fields are kind-dependent; unused fields
/// keep their zero values so events compare bitwise for the round-trip
/// tests.
struct EngineEvent {
  EngineEventKind kind = EngineEventKind::kBegin;
  SessionId session = kInvalidSessionId;
  /// Engine step counter when the event was recorded. Begin and blocked
  /// writes do not advance the counter; they carry the current value.
  uint64_t step = 0;
  IsolationLevel level = IsolationLevel::kRC;  // kBegin.
  ObjectId object = kInvalidObjectId;  // kRead / kWrite / kBlocked.
  Value value = 0;                     // kRead / kWrite.
  /// kRead: session that wrote the observed version (kInvalidSessionId =
  /// initial version). kBlocked: the lock-holding session.
  SessionId version_writer = kInvalidSessionId;
  /// kRead: commit timestamp of the observed version. kBegin: the
  /// session's snapshot timestamp.
  Timestamp version_ts = 0;
  bool own_write = false;                    // kRead from the own buffer.
  AbortReason reason = AbortReason::kNone;   // kAbort.
  Timestamp commit_ts = 0;                   // kCommit.

  // One builder per kind, shared by both engines; the engine supplies the
  // step (Engine's counter or ConcurrentEngine's key).
  static EngineEvent Begin(SessionId session, uint64_t step,
                           IsolationLevel level, Timestamp snapshot_ts) {
    return {.kind = EngineEventKind::kBegin, .session = session,
            .step = step, .level = level, .version_ts = snapshot_ts};
  }
  /// `version_ts` is the observed version's commit timestamp (0 for an
  /// own-buffer read).
  static EngineEvent Read(SessionId session, uint64_t step, ObjectId object,
                          const ReadResult& result, Timestamp version_ts) {
    return {.kind = EngineEventKind::kRead, .session = session,
            .step = step, .object = object, .value = result.value,
            .version_writer = result.version_writer,
            .version_ts = version_ts, .own_write = result.own_write};
  }
  static EngineEvent Write(SessionId session, uint64_t step, ObjectId object,
                           Value value) {
    return {.kind = EngineEventKind::kWrite, .session = session,
            .step = step, .object = object, .value = value};
  }
  static EngineEvent Blocked(SessionId session, uint64_t step,
                             ObjectId object, SessionId blocker) {
    return {.kind = EngineEventKind::kBlocked, .session = session,
            .step = step, .object = object, .version_writer = blocker};
  }
  static EngineEvent Commit(SessionId session, uint64_t step,
                            Timestamp commit_ts) {
    return {.kind = EngineEventKind::kCommit, .session = session,
            .step = step, .commit_ts = commit_ts};
  }
  static EngineEvent Abort(SessionId session, uint64_t step,
                           AbortReason reason) {
    return {.kind = EngineEventKind::kAbort, .session = session,
            .step = step, .reason = reason};
  }

  friend bool operator==(const EngineEvent&, const EngineEvent&) = default;
};

/// A ring-buffered event log for the MVCC engines: attach via
/// EngineSinks::recorder and the engine records every
/// begin/read/write/commit/abort (and blocked write) as it executes. The
/// buffer keeps the most recent `capacity` events; older events are
/// dropped and counted, so recording long runs is safe at fixed memory.
///
/// Exports:
///  - ToText(): a replayable schedule file (see docs/formats.md) that
///    ParseRecordedSchedule() reads back verbatim — the round-trip the
///    validator relies on;
///  - ToChromeTrace(): a trace_event timeline (chrome://tracing,
///    Perfetto) with one track per session, steps as timestamps.
class ScheduleRecorder {
 public:
  static constexpr size_t kDefaultCapacity = size_t{1} << 16;

  explicit ScheduleRecorder(size_t capacity = kDefaultCapacity);

  void Record(const EngineEvent& event);

  /// Events in recording order (oldest surviving first).
  std::vector<EngineEvent> Events() const;

  uint64_t total_recorded() const { return total_; }
  /// Events lost to the ring bound. A faithful replay requires 0.
  uint64_t dropped() const {
    return total_ > buffer_.size() ? total_ - buffer_.size() : 0;
  }
  size_t capacity() const { return capacity_; }
  void Clear();

  /// The replayable schedule file: header, one line per event, and
  /// trailing version-order comments. `object_names` supplies display
  /// names (ids must match the engine's).
  std::string ToText(const TransactionSet& object_names) const;

  /// Chrome trace_event JSON: per-session lifetime spans plus one slice
  /// per operation, with the engine step counter as the timebase.
  std::string ToChromeTrace(const TransactionSet& object_names) const;

 private:
  size_t capacity_;
  std::vector<EngineEvent> buffer_;  // Ring; start_ is the oldest index.
  size_t start_ = 0;
  uint64_t total_ = 0;
};

/// Parses a recorded schedule file back into events. Object names resolve
/// against `object_names` (unknown objects are an error); comment lines
/// (`#`) and the version-order trailer are skipped. Round-trip contract:
/// ParseRecordedSchedule(recorder.ToText(t), t) == recorder.Events()
/// whenever nothing was dropped.
StatusOr<std::vector<EngineEvent>> ParseRecordedSchedule(
    std::string_view text, const TransactionSet& object_names);

/// Rebuilds the formal image of the committed sessions from a recorded
/// event log alone — no engine needed. This is the recorded-schedule half
/// of the round-trip validator: engine log -> text -> events -> formal
/// schedule -> checker. Fails when the log is incomplete (a session
/// commits without a begin, a read observes a version from a session that
/// never committed in the log, ...).
StatusOr<ExportedRun> BuildRunFromRecording(
    const std::vector<EngineEvent>& events,
    const TransactionSet& object_names);

}  // namespace mvrob

#endif  // MVROB_MVCC_RECORDER_H_
