#include "mvcc/engine.h"

#include <algorithm>
#include <cassert>

#include "common/metrics.h"
#include "mvcc/recorder.h"
#include "mvcc/txn_trace.h"

namespace mvrob {

Engine::Engine(size_t num_objects, EngineOptions options)
    : options_(options), store_(num_objects) {
  if (MetricsRegistry* metrics = options_.metrics; metrics != nullptr) {
    m_begins_ = &metrics->counter("mvcc.begins");
    m_reads_ = &metrics->counter("mvcc.reads");
    m_writes_ = &metrics->counter("mvcc.writes");
    m_commits_ = &metrics->counter("mvcc.commits");
    m_aborts_write_conflict_ = &metrics->counter("mvcc.aborts.write_conflict");
    m_aborts_ssi_ = &metrics->counter("mvcc.aborts.ssi");
    m_aborts_user_ = &metrics->counter("mvcc.aborts.user");
    m_blocked_steps_ = &metrics->counter("mvcc.blocked_steps");
    m_ssi_false_positives_ = &metrics->counter("mvcc.ssi_false_positives");
    m_ssi_graph_size_ = &metrics->gauge("mvcc.ssi.graph_size");
    m_version_chain_len_ = &metrics->histogram("mvcc.version_chain_len");
  }
}

SessionId Engine::Begin(IsolationLevel level) {
  SessionRecord record;
  record.level = level;
  record.state = TxnState::kActive;
  // The snapshot is taken at Begin; RC ignores it and re-reads the clock at
  // every read.
  record.snapshot_ts = clock_;
  sessions_.push_back(std::move(record));
  ++stats_.begins;
  if (m_begins_ != nullptr) m_begins_->Increment();
  SessionId id = static_cast<SessionId>(sessions_.size() - 1);
  active_.push_back(id);
  if (options_.recorder != nullptr) {
    EngineEvent event;
    event.kind = EngineEventKind::kBegin;
    event.session = id;
    event.step = step_;
    event.level = level;
    event.version_ts = sessions_[id].snapshot_ts;
    options_.recorder->Record(event);
  }
  return id;
}

ReadResult Engine::Read(SessionId session, ObjectId object) {
  SessionRecord& record = sessions_[session];
  assert(record.state == TxnState::kActive);
  ++step_;
  ++stats_.reads;
  if (m_reads_ != nullptr) m_reads_->Increment();
  if (record.first_step == 0) record.first_step = step_;

  ReadResult result;
  // Read-your-own-writes: the buffered value wins.
  auto own = record.write_buffer.find(object);
  if (own != record.write_buffer.end()) {
    result.value = own->second;
    result.version_writer = session;
    result.own_write = true;
    record.reads.push_back(SessionReadRecord{object, /*version_ts=*/0,
                                             session, step_});
    if (options_.recorder != nullptr) {
      EngineEvent event;
      event.kind = EngineEventKind::kRead;
      event.session = session;
      event.step = step_;
      event.object = object;
      event.value = result.value;
      event.version_writer = session;
      event.own_write = true;
      options_.recorder->Record(event);
    }
    return result;
  }
  Timestamp read_ts =
      record.level == IsolationLevel::kRC ? clock_ : record.snapshot_ts;
  const StoredVersion& version = store_.SnapshotRead(object, read_ts);
  result.value = version.value;
  result.version_writer = version.writer;
  record.reads.push_back(
      SessionReadRecord{object, version.commit_ts, version.writer, step_});
  if (options_.recorder != nullptr) {
    EngineEvent event;
    event.kind = EngineEventKind::kRead;
    event.session = session;
    event.step = step_;
    event.object = object;
    event.value = result.value;
    event.version_writer = version.writer;
    event.version_ts = version.commit_ts;
    options_.recorder->Record(event);
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
    if (m_blocked_steps_ != nullptr) m_blocked_steps_->Increment();
    result.status = StepStatus::kBlocked;
    result.blocker = lock->second;
    if (options_.recorder != nullptr) {
      EngineEvent event;
      event.kind = EngineEventKind::kBlocked;
      event.session = session;
      event.step = step_;
      event.object = object;
      event.version_writer = lock->second;
      options_.recorder->Record(event);
    }
    return result;
  }
  // First-updater-wins for snapshot levels: a version committed after the
  // snapshot means a concurrent write — forbidden under SI/SSI
  // (Definition 2.3).
  if (record.level != IsolationLevel::kRC &&
      store_.HasVersionAfter(object, record.snapshot_ts)) {
    if (options_.tracer != nullptr) {
      // The conflicting version is the newest one: HasVersionAfter tests
      // exactly its commit timestamp against the snapshot.
      const StoredVersion& conflicting = store_.Latest(object);
      ConflictAttribution attribution;
      attribution.conflicting_session = conflicting.writer;
      attribution.object = object;
      attribution.version_ts = conflicting.commit_ts;
      attribution.type = ConflictType::kWW;
      attribution.cause = TraceAbortCause::kFirstUpdaterWins;
      options_.tracer->AttributeAbort(session, attribution);
    }
    AbortInternal(session, AbortReason::kWriteConflict);
    result.status = StepStatus::kAborted;
    result.abort_reason = AbortReason::kWriteConflict;
    return result;
  }
  ++step_;
  ++stats_.writes;
  if (m_writes_ != nullptr) m_writes_->Increment();
  if (record.first_step == 0) record.first_step = step_;
  row_locks_[object] = session;
  record.write_buffer[object] = value;
  record.writes.push_back(SessionWriteRecord{object, step_});
  if (options_.recorder != nullptr) {
    EngineEvent event;
    event.kind = EngineEventKind::kWrite;
    event.session = session;
    event.step = step_;
    event.object = object;
    event.value = value;
    options_.recorder->Record(event);
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
          (m_ssi_false_positives_ != nullptr || options_.tracer != nullptr)) {
        // Conservative abort the exact check disagrees with = false
        // positive. Only evaluated when someone is watching; the verdict
        // is unchanged.
        const bool exact = ssi_.WouldCompleteDangerousStructure(
            candidate, clock_ + 1, step_ + 1, &detail);
        if (!exact && m_ssi_false_positives_ != nullptr) {
          m_ssi_false_positives_->Increment();
        }
      }
    }
  }
  if (ssi_abort) {
    if (options_.tracer != nullptr) {
      ConflictAttribution attribution;
      attribution.conflicting_session = detail.peer;
      attribution.object = detail.object;
      attribution.version_ts = detail.version_ts;
      attribution.type = ConflictType::kRW;
      attribution.cause = TraceAbortCause::kSsiDangerousStructure;
      options_.tracer->AttributeAbort(session, attribution);
    }
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
    if (m_version_chain_len_ != nullptr) {
      m_version_chain_len_->Observe(store_.ChainOf(object).size());
    }
  }
  RemoveActive(session);
  if (record.level == IsolationLevel::kSSI) {
    ssi_.Add(candidate, SsiHorizon());
    if (m_ssi_graph_size_ != nullptr) {
      m_ssi_graph_size_->Set(static_cast<int64_t>(ssi_.size()));
    }
  }
  ++stats_.commits;
  if (m_commits_ != nullptr) m_commits_->Increment();
  result.commit_ts = commit_ts;
  if (options_.recorder != nullptr) {
    EngineEvent event;
    event.kind = EngineEventKind::kCommit;
    event.session = session;
    event.step = step_;
    event.commit_ts = commit_ts;
    options_.recorder->Record(event);
  }
  return result;
}

void Engine::Abort(SessionId session) {
  AbortInternal(session, AbortReason::kUser);
}

size_t Engine::Vacuum() {
  // RC sessions always read the newest committed version, so only snapshot
  // sessions pin history.
  Timestamp horizon = clock_;
  for (SessionId id : active_) {
    if (sessions_[id].level != IsolationLevel::kRC) {
      horizon = std::min(horizon, sessions_[id].snapshot_ts);
    }
  }
  return store_.Vacuum(horizon);
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
    EngineEvent event;
    event.kind = EngineEventKind::kAbort;
    event.session = session;
    event.step = step_;
    event.reason = reason;
    options_.recorder->Record(event);
  }
  switch (reason) {
    case AbortReason::kWriteConflict:
      ++stats_.aborts_write_conflict;
      if (m_aborts_write_conflict_ != nullptr) {
        m_aborts_write_conflict_->Increment();
      }
      break;
    case AbortReason::kSsiDangerousStructure:
      ++stats_.aborts_ssi;
      if (m_aborts_ssi_ != nullptr) m_aborts_ssi_->Increment();
      break;
    default:
      ++stats_.aborts_user;
      if (m_aborts_user_ != nullptr) m_aborts_user_->Increment();
      break;
  }
}

}  // namespace mvrob
