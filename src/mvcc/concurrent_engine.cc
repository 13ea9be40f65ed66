#include "mvcc/concurrent_engine.h"

#include <algorithm>
#include <cassert>
#include <chrono>

#include "common/metrics.h"
#include "common/string_util.h"
#include "common/watchdog.h"
#include "mvcc/recorder.h"

namespace mvrob {
namespace {

/// Published-snapshot slot value while a worker has no snapshot pinned.
constexpr Timestamp kNoSnapshot = ~Timestamp{0};

}  // namespace

struct alignas(64) ConcurrentEngine::WorkerSlot {
  SessionRecord* record = nullptr;
  SessionId id = kInvalidSessionId;
  /// Snapshot pinned by the worker's active session, read by the epoch
  /// GC to compute the reclamation horizon. Publish-before-sample: the
  /// worker stores a clock value *before* sampling its snapshot, so a GC
  /// pass that misses the store computed its horizon from a clock the
  /// snapshot is guaranteed to be at or above.
  std::atomic<Timestamp> snapshot{kNoSnapshot};
  EngineStats stats;
};

struct ConcurrentEngine::Shard {
  std::mutex mu;
  /// Row locks for objects this shard owns: object -> active writer.
  std::map<ObjectId, SessionId> row_locks;
  /// Stored versions across the shard's chains (guarded by mu).
  size_t versions = 0;
  Gauge* m_versions = nullptr;
  Counter* m_lock_wait_us = nullptr;
};

ConcurrentEngine::ConcurrentEngine(size_t num_objects, size_t num_workers,
                                   ConcurrentEngineOptions options)
    : options_(options),
      num_workers_(std::max<size_t>(1, num_workers)),
      num_shards_(options.num_shards != 0
                      ? options.num_shards
                      : std::max<size_t>(16, 4 * std::max<size_t>(1, num_workers))),
      store_(num_objects),
      shards_(new Shard[num_shards_]),
      workers_(new WorkerSlot[num_workers_]),
      hooks_(options) {
  for (size_t s = 0; s < num_shards_; ++s) {
    // Initial versions (timestamp 0) owned by this shard.
    shards_[s].versions =
        num_objects / num_shards_ + (s < num_objects % num_shards_ ? 1 : 0);
  }
  if (MetricsRegistry* metrics = options_.metrics; metrics != nullptr) {
    for (size_t s = 0; s < num_shards_; ++s) {
      shards_[s].m_versions =
          &metrics->gauge(StrCat("mvcc.shard.versions{shard=", s, "}"));
      shards_[s].m_versions->Set(static_cast<int64_t>(shards_[s].versions));
      shards_[s].m_lock_wait_us =
          &metrics->counter(StrCat("mvcc.shard.lock_wait_us{shard=", s, "}"));
    }
  }
}

ConcurrentEngine::~ConcurrentEngine() = default;

size_t ConcurrentEngine::num_objects() const { return store_.num_objects(); }

ConcurrentEngine::Shard& ConcurrentEngine::ShardOf(ObjectId object) {
  return shards_[object % num_shards_];
}

void ConcurrentEngine::LockShard(Shard& shard) {
  if (shard.m_lock_wait_us == nullptr) {
    shard.mu.lock();
    return;
  }
  if (shard.mu.try_lock()) return;
  auto start = std::chrono::steady_clock::now();
  shard.mu.lock();
  auto waited = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - start);
  shard.m_lock_wait_us->Add(static_cast<uint64_t>(waited.count()));
}

Timestamp ConcurrentEngine::SampleClock(WorkerSlot& slot,
                                        SessionRecord& record) {
  if (record.level == IsolationLevel::kRC || record.first_step != 0) {
    return clock_.load(std::memory_order_seq_cst);
  }
  // Lazy snapshot at first(T): publish a conservative bound for the epoch
  // GC *before* sampling, then sample. The sample is both the snapshot and
  // the clock component of this operation's step key, so the exported
  // position of first(T) matches its visibility.
  slot.snapshot.store(clock_.load(std::memory_order_seq_cst),
                      std::memory_order_seq_cst);
  const Timestamp c = clock_.load(std::memory_order_seq_cst);
  record.snapshot_ts = c;
  slot.snapshot.store(c, std::memory_order_seq_cst);
  return c;
}

void ConcurrentEngine::RecordEvent(const EngineEvent& event) {
  std::lock_guard<std::mutex> lock(record_mu_);
  options_.recorder->Record(event);
}

SessionId ConcurrentEngine::Begin(size_t worker, IsolationLevel level) {
  WorkerSlot& slot = workers_[worker];
  assert(slot.record == nullptr || slot.record->state != TxnState::kActive);
  SessionRecord record;
  record.level = level;
  record.state = TxnState::kActive;
  // SI/SSI snapshots are taken at the session's first operation; until
  // then the session pins nothing. With a recorder, the begin event must
  // be recorded before any later-allocated session's begin:
  // BuildRunFromRecording requires begins in id order, so allocation and
  // recording are one critical section.
  std::unique_lock<std::mutex> rec_lock(record_mu_, std::defer_lock);
  if (options_.recorder != nullptr) rec_lock.lock();
  SessionId id;
  {
    std::lock_guard<std::mutex> lock(session_mu_);
    sessions_.push_back(std::move(record));
    id = static_cast<SessionId>(sessions_.size() - 1);
    slot.record = &sessions_.back();
  }
  if (options_.recorder != nullptr) {
    options_.recorder->Record(EngineEvent::Begin(
        id, CurrentKey(), level, clock_.load(std::memory_order_relaxed)));
  }
  slot.id = id;
  ++slot.stats.begins;
  if (hooks_.begins != nullptr) hooks_.begins->Increment();
  return id;
}

ReadResult ConcurrentEngine::Read(size_t worker, ObjectId object) {
  WorkerSlot& slot = workers_[worker];
  SessionRecord& record = *slot.record;
  assert(record.state == TxnState::kActive);
  ++slot.stats.reads;
  if (hooks_.reads != nullptr) hooks_.reads->Increment();

  ReadResult result;
  // Read-your-own-writes: the buffered value wins; no shard state is
  // touched (an own write implies the session already has a first step
  // and, for SI/SSI, a snapshot).
  auto own = record.write_buffer.find(object);
  if (own != record.write_buffer.end()) {
    uint64_t key = NextKey(clock_.load(std::memory_order_seq_cst));
    result.value = own->second;
    result.version_writer = slot.id;
    result.own_write = true;
    record.reads.push_back(
        SessionReadRecord{object, /*version_ts=*/0, slot.id, key});
    if (options_.recorder != nullptr) {
      RecordEvent(EngineEvent::Read(slot.id, key, object, result, 0));
    }
    return result;
  }

  Shard& shard = ShardOf(object);
  LockShard(shard);
  const Timestamp c = SampleClock(slot, record);
  Timestamp read_ts =
      record.level == IsolationLevel::kRC ? c : record.snapshot_ts;
  const StoredVersion version = store_.SnapshotRead(object, read_ts);
  shard.mu.unlock();

  uint64_t key = NextKey(c);
  if (record.first_step == 0) record.first_step = key;
  result.value = version.value;
  result.version_writer = version.writer;
  record.reads.push_back(
      SessionReadRecord{object, version.commit_ts, version.writer, key});
  if (options_.recorder != nullptr) {
    RecordEvent(
        EngineEvent::Read(slot.id, key, object, result, version.commit_ts));
  }
  return result;
}

WriteResult ConcurrentEngine::Write(size_t worker, ObjectId object,
                                    Value value) {
  WorkerSlot& slot = workers_[worker];
  SessionRecord& record = *slot.record;
  assert(record.state == TxnState::kActive);
  WriteResult result;

  Shard& shard = ShardOf(object);
  LockShard(shard);
  // No-wait row locking: a foreign lock means kBlocked immediately; the
  // driver aborts and retries instead of waiting, so no cross-thread
  // deadlock detection is needed. The entry may linger briefly after the
  // holder commits (locks are released after the clock is published),
  // which only costs a spurious retry.
  auto lock_it = shard.row_locks.find(object);
  if (lock_it != shard.row_locks.end() && lock_it->second != slot.id) {
    SessionId blocker = lock_it->second;
    shard.mu.unlock();
    ++slot.stats.blocked_steps;
    if (hooks_.blocked_steps != nullptr) hooks_.blocked_steps->Increment();
    result.status = StepStatus::kBlocked;
    result.blocker = blocker;
    if (options_.recorder != nullptr) {
      RecordEvent(EngineEvent::Blocked(slot.id, CurrentKey(), object, blocker));
    }
    return result;
  }

  const Timestamp c = SampleClock(slot, record);
  // First-updater-wins for snapshot levels (Definition 2.3). The chain
  // can contain a version whose commit is not yet clock-published; such a
  // version is certain to commit (it is being installed under the commit
  // mutex), so aborting on it is still a true conflict.
  if (record.level != IsolationLevel::kRC &&
      store_.HasVersionAfter(object, record.snapshot_ts)) {
    // Capture the conflicting version (the newest one) while the shard
    // latch still pins the chain; attribute after unlock.
    StoredVersion conflicting{};
    if (options_.tracer != nullptr) conflicting = store_.Latest(object);
    shard.mu.unlock();
    hooks_.AttributeWriteConflict(slot.id, object, conflicting);
    AbortInternal(slot, AbortReason::kWriteConflict);
    result.status = StepStatus::kAborted;
    result.abort_reason = AbortReason::kWriteConflict;
    return result;
  }
  uint64_t key = NextKey(c);
  if (record.first_step == 0) record.first_step = key;
  shard.row_locks[object] = slot.id;
  shard.mu.unlock();

  record.write_buffer[object] = value;
  record.writes.push_back(SessionWriteRecord{object, key});
  ++slot.stats.writes;
  if (hooks_.writes != nullptr) hooks_.writes->Increment();
  if (options_.recorder != nullptr) {
    RecordEvent(EngineEvent::Write(slot.id, key, object, value));
  }
  return result;
}

CommitResult ConcurrentEngine::Commit(size_t worker) {
  WorkerSlot& slot = workers_[worker];
  SessionRecord& record = *slot.record;
  assert(record.state == TxnState::kActive);
  CommitResult result;
  const bool has_writes = !record.write_buffer.empty();

  if (record.level == IsolationLevel::kSSI || has_writes) {
    // Version-installing commits (and every SSI commit, so SSI commit
    // timestamps stay unique) serialize on the commit mutex.
    std::unique_lock<std::mutex> commit_lock(commit_mu_);
    Timestamp ts = clock_.load(std::memory_order_relaxed) + 1;
    uint64_t commit_step = ts << 32;
    // The registry is only mutated under the commit mutex, so the
    // attribution is filled in before unlocking.
    SsiConflictDetail detail;
    if (record.level == IsolationLevel::kSSI &&
        ssi_.WouldCompleteDangerousStructure(
            SsiMember{slot.id, &record}, ts, commit_step,
            options_.tracer != nullptr ? &detail : nullptr)) {
      commit_lock.unlock();
      hooks_.AttributeSsi(slot.id, detail);
      AbortInternal(slot, AbortReason::kSsiDangerousStructure);
      result.status = StepStatus::kAborted;
      result.abort_reason = AbortReason::kSsiDangerousStructure;
      return result;
    }
    record.commit_ts = ts;
    record.commit_step = commit_step;
    record.state = TxnState::kCommitted;
    for (const auto& [object, value] : record.write_buffer) {
      Shard& shard = ShardOf(object);
      LockShard(shard);
      store_.Install(object, StoredVersion{value, slot.id, ts});
      ++shard.versions;
      if (shard.m_versions != nullptr) {
        shard.m_versions->Set(static_cast<int64_t>(shard.versions));
      }
      if (hooks_.version_chain_len != nullptr) {
        hooks_.version_chain_len->Observe(store_.ChainOf(object).size());
      }
      shard.mu.unlock();
    }
    // Publish only after every version is installed: a reader that
    // samples clock >= ts is guaranteed to see all of this commit's
    // versions in the chains.
    clock_.store(ts, std::memory_order_seq_cst);
    if (record.level == IsolationLevel::kSSI) {
      // Every active and future SSI session takes its first step key
      // from a clock at or above its worker's published snapshot, or
      // the current clock when none is published yet.
      Timestamp min_ts = ts;
      for (size_t w = 0; w < num_workers_; ++w) {
        if (w == worker) continue;
        min_ts = std::min(
            min_ts, workers_[w].snapshot.load(std::memory_order_seq_cst));
      }
      ssi_.Add(SsiMember{slot.id, &record}, min_ts << 32);
      hooks_.SetSsiGraphSize(ssi_.size());
    }
    commit_lock.unlock();
    // Release row locks only after the clock publish: a writer that finds
    // the lock gone then samples a clock >= ts, so its step key follows
    // this commit's key (no formal dirty write).
    ReleaseRowLocks(record, slot.id);
    result.commit_ts = ts;
  } else {
    // Read-only RC/SI fast path: nothing to install, no clock bump, no
    // commit mutex. The commit key carries the current clock plus a fresh
    // tie-break, placing it after every operation of the session.
    Timestamp c = clock_.load(std::memory_order_seq_cst);
    record.commit_ts = c;
    record.commit_step = NextKey(c);
    record.state = TxnState::kCommitted;
    result.commit_ts = c;
  }

  slot.snapshot.store(kNoSnapshot, std::memory_order_seq_cst);
  ++slot.stats.commits;
  if (hooks_.commits != nullptr) hooks_.commits->Increment();
  if (options_.recorder != nullptr) {
    RecordEvent(
        EngineEvent::Commit(slot.id, record.commit_step, record.commit_ts));
  }
  if (has_writes && options_.commits_per_epoch != 0) {
    uint64_t n = writer_commits_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (n % options_.commits_per_epoch == 0) RunEpochGc();
  }
  return result;
}

void ConcurrentEngine::Abort(size_t worker) {
  AbortInternal(workers_[worker], AbortReason::kUser);
}

void ConcurrentEngine::AbortInternal(WorkerSlot& slot, AbortReason reason) {
  SessionRecord& record = *slot.record;
  assert(record.state == TxnState::kActive);
  record.state = TxnState::kAborted;
  record.abort_reason = reason;
  ReleaseRowLocks(record, slot.id);
  slot.snapshot.store(kNoSnapshot, std::memory_order_seq_cst);
  if (options_.recorder != nullptr) {
    RecordEvent(EngineEvent::Abort(slot.id, CurrentKey(), reason));
  }
  hooks_.CountAbort(slot.stats, reason);
}

void ConcurrentEngine::ReleaseRowLocks(const SessionRecord& record,
                                       SessionId id) {
  for (const auto& [object, value] : record.write_buffer) {
    (void)value;
    Shard& shard = ShardOf(object);
    LockShard(shard);
    auto it = shard.row_locks.find(object);
    if (it != shard.row_locks.end() && it->second == id) {
      shard.row_locks.erase(it);
    }
    shard.mu.unlock();
  }
}

size_t ConcurrentEngine::RunEpochGc() {
  // Single sweeper at a time; a colliding trigger simply skips (the next
  // epoch boundary retries).
  bool expected = false;
  if (!gc_running_.compare_exchange_strong(expected, true)) return 0;

  // Per-shard heartbeats: a sweep wedged on one shard latch stalls out.
  WatchdogScope watch(options_.watchdog, "mvcc.gc", std::chrono::seconds(10));

  // Horizon: the clock first, then the published slots. A worker whose
  // snapshot publish we miss here sampled its snapshot after our clock
  // read, so its snapshot is >= this horizon and stays readable.
  Timestamp horizon = clock_.load(std::memory_order_seq_cst);
  for (size_t w = 0; w < num_workers_; ++w) {
    horizon =
        std::min(horizon, workers_[w].snapshot.load(std::memory_order_seq_cst));
  }

  size_t reclaimed = 0;
  const size_t objects = store_.num_objects();
  for (size_t s = 0; s < num_shards_; ++s) {
    watch.Heartbeat();
    Shard& shard = shards_[s];
    size_t shard_reclaimed = 0;
    LockShard(shard);
    for (size_t object = s; object < objects; object += num_shards_) {
      shard_reclaimed +=
          store_.VacuumObject(static_cast<ObjectId>(object), horizon);
    }
    shard.versions -= shard_reclaimed;
    if (shard.m_versions != nullptr) {
      shard.m_versions->Set(static_cast<int64_t>(shard.versions));
    }
    shard.mu.unlock();
    reclaimed += shard_reclaimed;
  }

  uint64_t epoch = gc_epochs_.fetch_add(1, std::memory_order_relaxed) + 1;
  gc_reclaimed_.fetch_add(reclaimed, std::memory_order_relaxed);
  hooks_.RecordGcEpoch(epoch, horizon, reclaimed);
  gc_running_.store(false, std::memory_order_seq_cst);
  return reclaimed;
}

std::vector<SessionRecord> ConcurrentEngine::SessionSnapshot() const {
  std::lock_guard<std::mutex> lock(session_mu_);
  return std::vector<SessionRecord>(sessions_.begin(), sessions_.end());
}

EngineStats ConcurrentEngine::stats() const {
  EngineStats total;
  for (size_t w = 0; w < num_workers_; ++w) {
    const EngineStats& s = workers_[w].stats;
    total.begins += s.begins;
    total.reads += s.reads;
    total.writes += s.writes;
    total.commits += s.commits;
    total.aborts_write_conflict += s.aborts_write_conflict;
    total.aborts_ssi += s.aborts_ssi;
    total.aborts_user += s.aborts_user;
    total.blocked_steps += s.blocked_steps;
  }
  return total;
}

size_t ConcurrentEngine::TotalVersions() const {
  return store_.TotalVersions();
}

size_t ConcurrentEngine::num_sessions() const {
  std::lock_guard<std::mutex> lock(session_mu_);
  return sessions_.size();
}

}  // namespace mvrob
