#include "mvcc/driver.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <mutex>
#include <thread>

#include "common/metrics.h"
#include "common/profiler.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/watchdog.h"
#include "mvcc/txn_trace.h"

namespace mvrob {

StatusOr<DriverReport> RunExactInterleaving(Engine& engine,
                                            const TransactionSet& programs,
                                            const Allocation& alloc,
                                            const std::vector<OpRef>& order) {
  DriverReport report;
  report.session_of_program.assign(programs.size(), kInvalidSessionId);

  Value next_value = 1;
  for (const OpRef& ref : order) {
    if (ref.IsOp0() || !programs.IsValidRef(ref)) {
      return Status::InvalidArgument("invalid operation reference in order");
    }
    SessionId& session = report.session_of_program[ref.txn];
    if (session == kInvalidSessionId) {
      session = engine.Begin(alloc.level(ref.txn));
      ++report.attempts;
    }
    const Operation& op = programs.op(ref);
    if (op.IsRead()) {
      ReadResult result = engine.Read(session, op.object);
      if (result.status != StepStatus::kOk) {
        return Status::FailedPrecondition(
            StrCat("read of ", programs.FormatOp(ref), " did not succeed"));
      }
    } else if (op.IsWrite()) {
      WriteResult result = engine.Write(session, op.object, next_value++);
      if (result.status == StepStatus::kBlocked) {
        return Status::FailedPrecondition(
            StrCat(programs.FormatOp(ref), " blocked on session ",
                   result.blocker));
      }
      if (result.status == StepStatus::kAborted) {
        return Status::FailedPrecondition(
            StrCat(programs.FormatOp(ref), " aborted"));
      }
    } else {
      CommitResult result = engine.Commit(session);
      if (result.status != StepStatus::kOk) {
        return Status::FailedPrecondition(
            StrCat("commit of ", programs.txn(ref.txn).name(), " aborted"));
      }
      ++report.committed;
    }
  }
  return report;
}

LiveTelemetry MakeLiveTelemetry(MetricsRegistry& registry,
                                uint32_t window_seconds) {
  LiveTelemetry live;
  for (IsolationLevel level : kAllIsolationLevels) {
    const char* name = IsolationLevelToString(level);
    LiveTelemetry::PerLevel& slot =
        live.per_level[static_cast<size_t>(level)];
    slot.commits = &registry.windowed_counter(
        StrCat("mvcc.live.commits{level=", name, "}"), window_seconds);
    slot.aborts_write_conflict = &registry.windowed_counter(
        StrCat("mvcc.live.aborts{level=", name, ",reason=write_conflict}"),
        window_seconds);
    slot.aborts_ssi = &registry.windowed_counter(
        StrCat("mvcc.live.aborts{level=", name, ",reason=ssi}"),
        window_seconds);
    slot.aborts_deadlock = &registry.windowed_counter(
        StrCat("mvcc.live.aborts{level=", name, ",reason=deadlock}"),
        window_seconds);
    slot.commit_latency_us = &registry.windowed_histogram(
        StrCat("mvcc.live.commit_latency_us{level=", name, "}"),
        window_seconds);
  }
  return live;
}


namespace {

// One logical execution of a program as the drivers account for it: its
// tracing flow (opened at the first attempt and kept across retries) and
// the wall-clock start of the current attempt (read only with live
// telemetry attached).
struct Execution {
  TxnId txn = 0;
  bool flow_started = false;
  uint64_t flow = 0;
  std::chrono::steady_clock::time_point attempt_start{};
};

// The per-attempt bookkeeping both driver loops share: the tracer's flow
// and attempt lifecycle, the live per-level series, and the DriverReport
// tallies behind the driver.* counters. The loops keep their scheduling
// policies (seeded interleaving with waits and deadlock victims, versus
// no-wait retry per thread) and call in here at each attempt event.
class AttemptBook {
 public:
  AttemptBook(const RandomRunOptions& options, const Allocation& alloc,
              DriverReport& report)
      : tracer_(options.tracer),
        live_(options.live),
        alloc_(alloc),
        report_(report) {}

  // A new engine session for `t`; the first one opens the tracing flow.
  void Began(Execution& e, TxnId t, SessionId session) {
    const IsolationLevel level = alloc_.level(t);
    e.txn = t;
    ++report_.attempts;
    if (tracer_ != nullptr) {
      if (!e.flow_started) {
        e.flow = tracer_->StartFlow(t, level);
        e.flow_started = true;
      }
      tracer_->BeginAttempt(e.flow, session, t, level);
    }
    if (live_ != nullptr) e.attempt_start = std::chrono::steady_clock::now();
  }
  void Read(const Execution& e, ObjectId object) {
    if (tracer_ != nullptr) tracer_->OnRead(e.flow, object);
  }
  void Wrote(const Execution& e, ObjectId object) {
    if (tracer_ != nullptr) tracer_->OnWrite(e.flow, object);
  }
  void Blocked(const Execution& e, ObjectId object, SessionId blocker) {
    ++report_.blocked_steps;
    if (tracer_ != nullptr) tracer_->OnBlocked(e.flow, object, blocker);
  }
  // Attribution of a driver-initiated abort of `victim`, which waits for
  // `holder`'s row lock on `object`; called before the engine aborts it.
  void AttributeLockAbort(SessionId victim, SessionId holder, ObjectId object,
                          TraceAbortCause cause) {
    if (tracer_ == nullptr) return;
    ConflictAttribution attribution;
    attribution.conflicting_session = holder;
    attribution.object = object;
    attribution.type = ConflictType::kWW;
    attribution.cause = cause;
    tracer_->AttributeAbort(victim, attribution);
  }
  void Committed(const Execution& e) {
    ++report_.committed;
    if (tracer_ != nullptr) {
      tracer_->EndAttempt(e.flow, true, AbortReason::kNone);
      tracer_->EndFlow(e.flow, true);
    }
    if (live_ == nullptr) return;
    const LiveTelemetry::PerLevel& slot = live_level(e);
    if (slot.commits != nullptr) slot.commits->Increment();
    if (slot.commit_latency_us != nullptr) {
      const auto now = std::chrono::steady_clock::now();
      slot.commit_latency_us->Observe(
          static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::microseconds>(
                  now - e.attempt_start)
                  .count()),
          now);
    }
  }
  // An aborted attempt. kUser is the driver's own lock abort (deadlock
  // victim or no-wait conflict), counted as a deadlock victim.
  void Aborted(const Execution& e, AbortReason reason) {
    if (reason == AbortReason::kUser) ++report_.deadlock_victims;
    if (tracer_ != nullptr) tracer_->EndAttempt(e.flow, false, reason);
    if (live_ == nullptr) return;
    const LiveTelemetry::PerLevel& slot = live_level(e);
    WindowedCounter* counter = nullptr;
    switch (reason) {
      case AbortReason::kWriteConflict:
        counter = slot.aborts_write_conflict;
        break;
      case AbortReason::kSsiDangerousStructure:
        counter = slot.aborts_ssi;
        break;
      case AbortReason::kUser:
        counter = slot.aborts_deadlock;
        break;
      case AbortReason::kNone:
        break;
    }
    if (counter != nullptr) counter->Increment();
  }
  // The program exhausted its retries.
  void GaveUp(const Execution& e) {
    ++report_.aborted_programs;
    if (tracer_ != nullptr) tracer_->EndFlow(e.flow, false);
  }
  // The run stopped with the execution in flight (EndFlow is idempotent).
  void Stopped(const Execution& e) {
    if (tracer_ != nullptr && e.flow_started) tracer_->EndFlow(e.flow, false);
  }

 private:
  const LiveTelemetry::PerLevel& live_level(const Execution& e) const {
    return live_->per_level[static_cast<size_t>(alloc_.level(e.txn))];
  }

  TxnTracer* tracer_;
  const LiveTelemetry* live_;
  const Allocation& alloc_;
  DriverReport& report_;
};

// The driver.* counters, once per run.
void FlushDriverCounters(MetricsRegistry* metrics, const DriverReport& report) {
  if (metrics == nullptr) return;
  metrics->counter("driver.runs").Increment();
  metrics->counter("driver.committed").Add(report.committed);
  metrics->counter("driver.attempts").Add(report.attempts);
  metrics->counter("driver.aborted_programs").Add(report.aborted_programs);
  metrics->counter("driver.deadlock_victims").Add(report.deadlock_victims);
  metrics->counter("driver.blocked_steps").Add(report.blocked_steps);
}

// Execution state of one program transaction in the random driver.
struct ProgramState {
  SessionId session = kInvalidSessionId;
  int next_op = 0;
  int retries_left = 0;
  SessionId waiting_on = kInvalidSessionId;
  bool done = false;
  bool gave_up = false;
  Execution execution;
};

/// Workers of the concurrent driver settle their local step count against
/// the shared budget in batches, so the hot loop does not contend on one
/// atomic per operation.
constexpr uint64_t kStepBatch = 256;

/// Decorrelates per-worker rng streams derived from one seed
/// (splitmix64 finalizer).
uint64_t MixSeed(uint64_t seed, uint64_t worker) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (worker + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

DriverReport RunRandom(Engine& engine, const TransactionSet& programs,
                       const Allocation& alloc,
                       const RandomRunOptions& options) {
  PhaseTimer timer(options.metrics, "driver.run_random");
  DriverReport report;
  AttemptBook book(options, alloc, report);
  Rng rng(options.seed);
  Value next_value = 1;

  if (options.tracer != nullptr) options.tracer->BeginRun(programs);

  std::vector<ProgramState> states(programs.size());
  for (ProgramState& state : states) {
    state.retries_left = options.max_retries;
  }
  // Programs not yet admitted to the concurrent window, in random order.
  std::vector<TxnId> pending(programs.size());
  for (TxnId t = 0; t < programs.size(); ++t) pending[t] = t;
  std::shuffle(pending.begin(), pending.end(), rng.engine());
  std::deque<TxnId> queue(pending.begin(), pending.end());

  std::vector<TxnId> window;
  uint64_t steps = 0;
  uint64_t commits_at_last_gc = 0;

  auto admit = [&]() {
    while (window.size() < static_cast<size_t>(options.concurrency) &&
           !queue.empty()) {
      window.push_back(queue.front());
      queue.pop_front();
    }
  };
  // Removes a finished program from the window; in continuous mode it is
  // reset and re-enqueued so the workload runs forever.
  auto retire = [&](TxnId t) {
    window.erase(std::find(window.begin(), window.end(), t));
    if (options.continuous) {
      states[t] = ProgramState{};
      states[t].retries_left = options.max_retries;
      queue.push_back(t);
    }
  };
  auto is_runnable = [&](TxnId t) {
    ProgramState& state = states[t];
    if (state.done || state.gave_up) return false;
    if (state.waiting_on == kInvalidSessionId) return true;
    // Re-runnable once the blocker finished.
    if (engine.session(state.waiting_on).state != TxnState::kActive) {
      state.waiting_on = kInvalidSessionId;
      return true;
    }
    return false;
  };
  auto handle_abort = [&](TxnId t, AbortReason reason) {
    ProgramState& state = states[t];
    book.Aborted(state.execution, reason);
    state.session = kInvalidSessionId;
    state.next_op = 0;
    state.waiting_on = kInvalidSessionId;
    if (state.retries_left-- <= 0) {
      state.gave_up = true;
      book.GaveUp(state.execution);
      retire(t);
    }
  };
  auto stop_requested = [&]() {
    return options.stop != nullptr &&
           options.stop->load(std::memory_order_relaxed);
  };

  // Stall monitoring: one scope for the whole run, re-armed every few
  // hundred retired steps. A healthy driver beats many times per second;
  // a wedged engine call leaves the deadline to expire.
  WatchdogScope watch(options.watchdog, "driver.run_random",
                      std::chrono::seconds(10));

  admit();
  while (!window.empty() && steps < options.max_steps && !stop_requested()) {
    if ((steps & 0xFF) == 0) watch.Heartbeat();
    // Pick a runnable program uniformly at random.
    std::vector<TxnId> runnable;
    for (TxnId t : window) {
      if (is_runnable(t)) runnable.push_back(t);
    }
    if (runnable.empty()) {
      // Every in-flight program waits on an active session: deadlock (or a
      // wait chain). Abort the youngest session as victim.
      TxnId victim = window.front();
      uint64_t youngest = 0;
      for (TxnId t : window) {
        const ProgramState& state = states[t];
        if (state.session == kInvalidSessionId) continue;
        uint64_t first = engine.session(state.session).first_step;
        if (first >= youngest) {
          youngest = first;
          victim = t;
        }
      }
      // The victim was waiting on `waiting_on` for its next write.
      const ProgramState& state = states[victim];
      book.AttributeLockAbort(state.session, state.waiting_on,
                              programs.txn(victim).op(state.next_op).object,
                              TraceAbortCause::kDeadlockVictim);
      engine.Abort(state.session);
      handle_abort(victim, AbortReason::kUser);
      admit();
      continue;
    }
    TxnId t = runnable[rng.Index(runnable.size())];
    ProgramState& state = states[t];
    if (state.session == kInvalidSessionId) {
      state.session = engine.Begin(alloc.level(t));
      book.Began(state.execution, t, state.session);
    }
    const Transaction& program = programs.txn(t);
    const Operation& op = program.op(state.next_op);
    ++steps;
    if (op.IsRead()) {
      engine.Read(state.session, op.object);
      book.Read(state.execution, op.object);
      ++state.next_op;
    } else if (op.IsWrite()) {
      WriteResult result = engine.Write(state.session, op.object,
                                        next_value++);
      if (result.status == StepStatus::kOk) {
        book.Wrote(state.execution, op.object);
        ++state.next_op;
      } else if (result.status == StepStatus::kBlocked) {
        book.Blocked(state.execution, op.object, result.blocker);
        state.waiting_on = result.blocker;
      } else {
        handle_abort(t, result.abort_reason);
      }
    } else {
      CommitResult result = engine.Commit(state.session);
      if (result.status == StepStatus::kOk) {
        state.done = true;
        book.Committed(state.execution);
        retire(t);
      } else {
        handle_abort(t, result.abort_reason);
      }
      admit();
    }
    // Epoch-driven version reclamation in continuous mode: one sweep per
    // kCommitsPerEpoch commits (not per elapsed steps, so an idle or
    // conflict-heavy serve does not churn the store).
    if (options.continuous &&
        report.committed - commits_at_last_gc >= kCommitsPerEpoch) {
      commits_at_last_gc = report.committed;
      engine.RunEpochGc();
    }
  }
  FlushDriverCounters(options.metrics, report);
  return report;
}

DriverReport RunConcurrent(ConcurrentEngine& engine,
                           const TransactionSet& programs,
                           const Allocation& alloc,
                           const RandomRunOptions& options) {
  PhaseTimer timer(options.metrics, "driver.run_concurrent");
  const size_t workers = engine.num_workers();
  if (options.tracer != nullptr) options.tracer->BeginRun(programs);

  std::atomic<uint64_t> shared_steps{0};
  std::atomic<bool> out_of_budget{false};
  auto stop_requested = [&]() {
    return out_of_budget.load(std::memory_order_relaxed) ||
           (options.stop != nullptr &&
            options.stop->load(std::memory_order_relaxed));
  };

  std::mutex report_mu;
  DriverReport report;

  auto worker_fn = [&](size_t w) {
    // Visible to the sampling profiler / stack dumps under a stable role,
    // and stall-monitored: the scope is re-armed every settled step batch,
    // so a worker wedged inside the engine (latch cycle, stuck commit)
    // trips the watchdog with this thread's stack.
    ProfiledThreadScope profile_scope(StrCat("engine.worker.", w));
    WatchdogScope watch(options.watchdog, "engine.worker",
                        std::chrono::seconds(10));
    Rng rng(MixSeed(options.seed, w));
    std::vector<TxnId> mine;
    for (TxnId t = static_cast<TxnId>(w); t < programs.size();
         t += static_cast<TxnId>(workers)) {
      mine.push_back(t);
    }
    std::shuffle(mine.begin(), mine.end(), rng.engine());

    DriverReport local;
    AttemptBook book(options, alloc, local);
    uint64_t local_steps = 0;
    // Disjoint per-worker value streams keep written values unique
    // process-wide without sharing a counter.
    Value next_value = (static_cast<Value>(w) << 40) + 1;

    auto count_step = [&]() {
      if (++local_steps < kStepBatch) return;
      uint64_t total =
          shared_steps.fetch_add(local_steps, std::memory_order_relaxed) +
          local_steps;
      local_steps = 0;
      watch.Heartbeat();
      if (total >= options.max_steps) {
        out_of_budget.store(true, std::memory_order_relaxed);
      }
    };

    // Runs one program to commit (or until it gives up / the run stops).
    auto run_program = [&](TxnId t) {
      const Transaction& program = programs.txn(t);
      int retries_left = options.max_retries;
      Execution execution;
      while (!stop_requested()) {
        SessionId session = engine.Begin(w, alloc.level(t));
        book.Began(execution, t, session);
        bool committed = false;
        AbortReason reason = AbortReason::kNone;
        for (int i = 0; reason == AbortReason::kNone && !committed; ++i) {
          const Operation& op = program.op(i);
          count_step();
          if (op.IsRead()) {
            engine.Read(w, op.object);
            book.Read(execution, op.object);
          } else if (op.IsWrite()) {
            WriteResult result = engine.Write(w, op.object, next_value++);
            if (result.status == StepStatus::kBlocked) {
              // No-wait: abort this attempt and retry after a yield. Does
              // not consume the retry budget (the deterministic driver
              // would have waited here, not aborted).
              book.Blocked(execution, op.object, result.blocker);
              book.AttributeLockAbort(session, result.blocker, op.object,
                                      TraceAbortCause::kNoWaitLockConflict);
              engine.Abort(w);
              reason = AbortReason::kUser;
            } else if (result.status == StepStatus::kAborted) {
              reason = result.abort_reason;
            } else {
              book.Wrote(execution, op.object);
            }
          } else {
            CommitResult result = engine.Commit(w);
            if (result.status == StepStatus::kOk) {
              committed = true;
            } else {
              reason = result.abort_reason;
            }
          }
        }
        if (committed) {
          book.Committed(execution);
          return;
        }
        book.Aborted(execution, reason);
        if (reason == AbortReason::kUser) {
          std::this_thread::yield();
          continue;
        }
        if (retries_left-- <= 0) {
          book.GaveUp(execution);
          return;
        }
      }
      book.Stopped(execution);
    };

    do {
      for (TxnId t : mine) {
        if (stop_requested()) break;
        run_program(t);
      }
    } while (options.continuous && !stop_requested() && !mine.empty());

    // Flush the step remainder and merge the worker's tallies.
    shared_steps.fetch_add(local_steps, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(report_mu);
    report.committed += local.committed;
    report.aborted_programs += local.aborted_programs;
    report.attempts += local.attempts;
    report.blocked_steps += local.blocked_steps;
    report.deadlock_victims += local.deadlock_victims;
  };

  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    threads.emplace_back(worker_fn, w);
  }
  for (std::thread& thread : threads) thread.join();

  FlushDriverCounters(options.metrics, report);
  return report;
}

StatusOr<ExportedRun> WorkloadRun::Export(
    const TransactionSet& object_names) const {
  if (engine_ != nullptr) return ExportCommittedRun(*engine_, object_names);
  return ExportCommittedSessions(concurrent_engine_->SessionSnapshot(),
                                 object_names);
}

WorkloadRun RunWorkload(const TransactionSet& programs,
                        const Allocation& alloc,
                        const RandomRunOptions& options) {
  WorkloadRun run;
  if (options.engine_threads > 1) {
    ConcurrentEngineOptions engine_options;
    static_cast<EngineSinks&>(engine_options) = options;
    engine_options.num_shards = options.engine_shards;
    run.concurrent_engine_ = std::make_unique<ConcurrentEngine>(
        programs.num_objects(), static_cast<size_t>(options.engine_threads),
        engine_options);
    run.report_ = RunConcurrent(*run.concurrent_engine_, programs, alloc,
                                options);
    run.stats_ = run.concurrent_engine_->stats();
  } else {
    EngineOptions engine_options;
    static_cast<EngineSinks&>(engine_options) = options;
    run.engine_ =
        std::make_unique<Engine>(programs.num_objects(), engine_options);
    run.report_ = RunRandom(*run.engine_, programs, alloc, options);
    run.stats_ = run.engine_->stats();
  }
  return run;
}

}  // namespace mvrob
