#include "mvcc/engine.h"

#include <algorithm>
#include <cassert>
#include <chrono>

#include "common/log.h"
#include "common/metrics.h"
#include "common/watchdog.h"
#include "mvcc/recorder.h"
#include "mvcc/txn_trace.h"

namespace mvrob {

EngineHooks::EngineHooks(const EngineSinks& sinks)
    : metrics(sinks.metrics), tracer(sinks.tracer) {
  if (metrics != nullptr) {
    begins = &metrics->counter("mvcc.begins");
    reads = &metrics->counter("mvcc.reads");
    writes = &metrics->counter("mvcc.writes");
    commits = &metrics->counter("mvcc.commits");
    aborts_write_conflict = &metrics->counter("mvcc.aborts.write_conflict");
    aborts_ssi = &metrics->counter("mvcc.aborts.ssi");
    aborts_user = &metrics->counter("mvcc.aborts.user");
    blocked_steps = &metrics->counter("mvcc.blocked_steps");
    ssi_false_positives = &metrics->counter("mvcc.ssi_false_positives");
    ssi_graph_size = &metrics->gauge("mvcc.ssi.graph_size");
    version_chain_len = &metrics->histogram("mvcc.version_chain_len");
  }
}

void EngineHooks::CountAbort(EngineStats& stats, AbortReason reason) const {
  Counter* counter;
  switch (reason) {
    case AbortReason::kWriteConflict:
      ++stats.aborts_write_conflict;
      counter = aborts_write_conflict;
      break;
    case AbortReason::kSsiDangerousStructure:
      ++stats.aborts_ssi;
      counter = aborts_ssi;
      break;
    default:
      ++stats.aborts_user;
      counter = aborts_user;
      break;
  }
  if (counter != nullptr) counter->Increment();
}

void EngineHooks::AttributeWriteConflict(
    SessionId victim, ObjectId object, const StoredVersion& conflicting) const {
  if (tracer == nullptr) return;
  ConflictAttribution attribution;
  attribution.conflicting_session = conflicting.writer;
  attribution.object = object;
  attribution.version_ts = conflicting.commit_ts;
  attribution.type = ConflictType::kWW;
  attribution.cause = TraceAbortCause::kFirstUpdaterWins;
  tracer->AttributeAbort(victim, attribution);
}

void EngineHooks::AttributeSsi(SessionId victim,
                               const SsiConflictDetail& detail) const {
  if (tracer == nullptr) return;
  ConflictAttribution attribution;
  attribution.conflicting_session = detail.peer;
  attribution.object = detail.object;
  attribution.version_ts = detail.version_ts;
  attribution.type = ConflictType::kRW;
  attribution.cause = TraceAbortCause::kSsiDangerousStructure;
  tracer->AttributeAbort(victim, attribution);
}

void EngineHooks::SetSsiGraphSize(size_t size) const {
  if (ssi_graph_size != nullptr) {
    ssi_graph_size->Set(static_cast<int64_t>(size));
  }
}

void EngineHooks::RecordGcEpoch(uint64_t epoch, Timestamp horizon,
                                size_t reclaimed) const {
  if (metrics != nullptr) {
    metrics->counter("mvcc.gc.epochs").Increment();
    metrics->counter("mvcc.gc.reclaimed").Add(reclaimed);
    metrics->gauge("mvcc.gc.horizon").Set(static_cast<int64_t>(horizon));
  }
  Logger& logger = GlobalLogger();
  if (logger.enabled(LogLevel::kInfo)) {
    logger.Log(LogLevel::kInfo, "mvcc.gc", "epoch reclamation",
               {{"epoch", epoch},
                {"horizon", horizon},
                {"reclaimed", static_cast<uint64_t>(reclaimed)}});
  }
}

Engine::Engine(size_t num_objects, EngineOptions options)
    : options_(options), hooks_(options), store_(num_objects) {}

SessionId Engine::Begin(IsolationLevel level) {
  SessionRecord record;
  record.level = level;
  record.state = TxnState::kActive;
  // The snapshot is taken at Begin; RC ignores it and re-reads the clock at
  // every read.
  record.snapshot_ts = clock_;
  sessions_.push_back(std::move(record));
  ++stats_.begins;
  if (hooks_.begins != nullptr) hooks_.begins->Increment();
  SessionId id = static_cast<SessionId>(sessions_.size() - 1);
  active_.push_back(id);
  if (options_.recorder != nullptr) {
    options_.recorder->Record(EngineEvent::Begin(id, step_, level, clock_));
  }
  return id;
}

ReadResult Engine::Read(SessionId session, ObjectId object) {
  SessionRecord& record = sessions_[session];
  assert(record.state == TxnState::kActive);
  ++step_;
  ++stats_.reads;
  if (hooks_.reads != nullptr) hooks_.reads->Increment();
  if (record.first_step == 0) record.first_step = step_;

  ReadResult result;
  Timestamp version_ts = 0;
  // Read-your-own-writes: the buffered value wins.
  auto own = record.write_buffer.find(object);
  if (own != record.write_buffer.end()) {
    result.value = own->second;
    result.version_writer = session;
    result.own_write = true;
  } else {
    Timestamp read_ts =
        record.level == IsolationLevel::kRC ? clock_ : record.snapshot_ts;
    const StoredVersion& version = store_.SnapshotRead(object, read_ts);
    result.value = version.value;
    result.version_writer = version.writer;
    version_ts = version.commit_ts;
  }
  record.reads.push_back(
      SessionReadRecord{object, version_ts, result.version_writer, step_});
  if (options_.recorder != nullptr) {
    options_.recorder->Record(
        EngineEvent::Read(session, step_, object, result, version_ts));
  }
  return result;
}

WriteResult Engine::Write(SessionId session, ObjectId object, Value value) {
  SessionRecord& record = sessions_[session];
  assert(record.state == TxnState::kActive);
  WriteResult result;

  // Row lock: concurrent active writers block (prevents dirty writes).
  auto lock = row_locks_.find(object);
  if (lock != row_locks_.end() && lock->second != session) {
    ++stats_.blocked_steps;
    if (hooks_.blocked_steps != nullptr) hooks_.blocked_steps->Increment();
    result.status = StepStatus::kBlocked;
    result.blocker = lock->second;
    if (options_.recorder != nullptr) {
      options_.recorder->Record(
          EngineEvent::Blocked(session, step_, object, lock->second));
    }
    return result;
  }
  // First-updater-wins for snapshot levels: a version committed after the
  // snapshot means a concurrent write — forbidden under SI/SSI
  // (Definition 2.3).
  if (record.level != IsolationLevel::kRC &&
      store_.HasVersionAfter(object, record.snapshot_ts)) {
    // The conflicting version is the newest one: HasVersionAfter tests
    // exactly its commit timestamp against the snapshot.
    hooks_.AttributeWriteConflict(session, object, store_.Latest(object));
    AbortInternal(session, AbortReason::kWriteConflict);
    result.status = StepStatus::kAborted;
    result.abort_reason = AbortReason::kWriteConflict;
    return result;
  }
  ++step_;
  ++stats_.writes;
  if (hooks_.writes != nullptr) hooks_.writes->Increment();
  if (record.first_step == 0) record.first_step = step_;
  row_locks_[object] = session;
  record.write_buffer[object] = value;
  record.writes.push_back(SessionWriteRecord{object, step_});
  if (options_.recorder != nullptr) {
    options_.recorder->Record(
        EngineEvent::Write(session, step_, object, value));
  }
  return result;
}

CommitResult Engine::Commit(SessionId session) {
  SessionRecord& record = sessions_[session];
  assert(record.state == TxnState::kActive);
  CommitResult result;

  const SsiMember candidate{session, &record};
  SsiConflictDetail detail;
  bool ssi_abort = false;
  if (record.level == IsolationLevel::kSSI) {
    if (options_.ssi_mode == SsiMode::kExact) {
      ssi_abort = ssi_.WouldCompleteDangerousStructure(
          candidate, clock_ + 1, step_ + 1,
          options_.tracer != nullptr ? &detail : nullptr);
    } else {
      std::vector<SsiMember> active;
      for (SessionId id : active_) {
        if (sessions_[id].level == IsolationLevel::kSSI) {
          active.push_back(SsiMember{id, &sessions_[id]});
        }
      }
      ssi_abort =
          ssi_.WouldCreatePivot(active, candidate, clock_ + 1, step_ + 1);
      if (ssi_abort &&
          (hooks_.ssi_false_positives != nullptr ||
           options_.tracer != nullptr)) {
        // Conservative abort the exact check disagrees with = false
        // positive. Only evaluated when someone is watching; the verdict
        // is unchanged.
        const bool exact = ssi_.WouldCompleteDangerousStructure(
            candidate, clock_ + 1, step_ + 1, &detail);
        if (!exact && hooks_.ssi_false_positives != nullptr) {
          hooks_.ssi_false_positives->Increment();
        }
      }
    }
  }
  if (ssi_abort) {
    hooks_.AttributeSsi(session, detail);
    AbortInternal(session, AbortReason::kSsiDangerousStructure);
    result.status = StepStatus::kAborted;
    result.abort_reason = AbortReason::kSsiDangerousStructure;
    return result;
  }

  ++step_;
  Timestamp commit_ts = ++clock_;
  record.commit_ts = commit_ts;
  record.commit_step = step_;
  record.state = TxnState::kCommitted;
  for (const auto& [object, value] : record.write_buffer) {
    store_.Install(object, StoredVersion{value, session, commit_ts});
    row_locks_.erase(object);
    if (hooks_.version_chain_len != nullptr) {
      hooks_.version_chain_len->Observe(store_.ChainOf(object).size());
    }
  }
  RemoveActive(session);
  if (record.level == IsolationLevel::kSSI) {
    ssi_.Add(candidate, SsiHorizon());
    hooks_.SetSsiGraphSize(ssi_.size());
  }
  ++stats_.commits;
  if (hooks_.commits != nullptr) hooks_.commits->Increment();
  result.commit_ts = commit_ts;
  if (options_.recorder != nullptr) {
    options_.recorder->Record(EngineEvent::Commit(session, step_, commit_ts));
  }
  return result;
}

void Engine::Abort(SessionId session) {
  AbortInternal(session, AbortReason::kUser);
}

size_t Engine::Vacuum() { return store_.Vacuum(VacuumHorizon()); }

size_t Engine::RunEpochGc() {
  WatchdogScope watch(options_.watchdog, "mvcc.gc", std::chrono::seconds(10));
  const Timestamp horizon = VacuumHorizon();
  const size_t reclaimed = store_.Vacuum(horizon);
  hooks_.RecordGcEpoch(++gc_epochs_, horizon, reclaimed);
  return reclaimed;
}

Timestamp Engine::VacuumHorizon() const {
  // RC sessions always read the newest committed version, so only snapshot
  // sessions pin history.
  Timestamp horizon = clock_;
  for (SessionId id : active_) {
    if (sessions_[id].level != IsolationLevel::kRC) {
      horizon = std::min(horizon, sessions_[id].snapshot_ts);
    }
  }
  return horizon;
}

void Engine::RemoveActive(SessionId session) {
  auto it = std::find(active_.begin(), active_.end(), session);
  assert(it != active_.end());
  *it = active_.back();
  active_.pop_back();
}

uint64_t Engine::SsiHorizon() const {
  // A session's first operation is a later step than every step so far.
  uint64_t horizon = step_ + 1;
  for (SessionId id : active_) {
    const SessionRecord& record = sessions_[id];
    if (record.level == IsolationLevel::kSSI && record.first_step != 0) {
      horizon = std::min(horizon, record.first_step);
    }
  }
  return horizon;
}

void Engine::AbortInternal(SessionId session, AbortReason reason) {
  SessionRecord& record = sessions_[session];
  assert(record.state == TxnState::kActive);
  record.state = TxnState::kAborted;
  record.abort_reason = reason;
  RemoveActive(session);
  for (const auto& [object, value] : record.write_buffer) {
    (void)value;
    auto lock = row_locks_.find(object);
    if (lock != row_locks_.end() && lock->second == session) {
      row_locks_.erase(lock);
    }
  }
  if (options_.recorder != nullptr) {
    options_.recorder->Record(EngineEvent::Abort(session, step_, reason));
  }
  hooks_.CountAbort(stats_, reason);
}

}  // namespace mvrob
