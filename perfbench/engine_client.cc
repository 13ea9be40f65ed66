#include "engine_client.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <memory>
#include <thread>
#include <type_traits>

#include "common/rng.h"
#include "mvcc/concurrent_engine.h"
#include "span_trace.h"

namespace perfbench {

using mvrob::AbortReason;
using mvrob::Allocation;
using mvrob::CommitResult;
using mvrob::ConcurrentEngine;
using mvrob::Engine;
using mvrob::IsolationLevel;
using mvrob::ObjectId;
using mvrob::Operation;
using mvrob::ReadResult;
using mvrob::SessionId;
using mvrob::StepStatus;
using mvrob::TransactionSet;
using mvrob::TxnId;
using mvrob::Value;
using mvrob::WriteResult;

void CallStats::Record(Call call, int64_t ns) {
  const size_t i = static_cast<size_t>(call);
  ++count[i];
  total_ns[i] += static_cast<uint64_t>(ns);
  if (call == Call::kCommitSSI) {
    ssi_commit_ns.push_back(static_cast<uint32_t>(
        std::min<int64_t>(ns, std::numeric_limits<uint32_t>::max())));
  }
}

void CallStats::Merge(const CallStats& other) {
  for (size_t i = 0; i < kNumCalls; ++i) {
    count[i] += other.count[i];
    total_ns[i] += other.total_ns[i];
  }
  ssi_commit_ns.insert(ssi_commit_ns.end(), other.ssi_commit_ns.begin(),
                       other.ssi_commit_ns.end());
}

namespace {

// The drivers' rules (RandomRunOptions defaults): programs in flight on
// the single-threaded engine, retries after engine-initiated aborts, and
// commits between vacuums.
constexpr size_t kConcurrency = 4;
constexpr int kMaxRetries = 5;
constexpr uint64_t kCommitsPerVacuum = 4096;

// Every engine call of the harness goes through this adapter, so a change
// to the engine API touches one place. `handle` is what the engine
// addresses a session by: the session id for Engine, the worker index for
// ConcurrentEngine. With a non-null `stats` every call is timed.
template <typename EngineT>
class EngineCalls {
 public:
  static constexpr bool kSingle = std::is_same_v<EngineT, Engine>;

  EngineCalls(EngineT& engine, CallStats* stats)
      : engine_(engine), stats_(stats) {}

  SessionId Begin(size_t handle, IsolationLevel level) {
    return Timed(Call::kBegin, [&] {
      if constexpr (kSingle) {
        (void)handle;
        return engine_.Begin(level);
      } else {
        return engine_.Begin(handle, level);
      }
    });
  }
  ReadResult Read(size_t handle, ObjectId object) {
    return Timed(Call::kRead, [&] { return engine_.Read(handle, object); });
  }
  WriteResult Write(size_t handle, ObjectId object, Value value) {
    return Timed(Call::kWrite,
                 [&] { return engine_.Write(handle, object, value); });
  }
  CommitResult Commit(size_t handle, IsolationLevel level) {
    static constexpr Call kByLevel[] = {Call::kCommitRC, Call::kCommitSI,
                                        Call::kCommitSSI};
    return Timed(kByLevel[static_cast<size_t>(level)],
                 [&] { return engine_.Commit(handle); });
  }
  void Abort(size_t handle) {
    Timed(Call::kAbort, [&] {
      engine_.Abort(handle);
      return 0;
    });
  }
  size_t Vacuum() {
    return Timed(Call::kVacuum, [&] { return engine_.Vacuum(); });
  }
  // Single-threaded engine only: the waits-for and deadlock-victim rules.
  bool IsActive(SessionId session) const {
    return engine_.session(session).state == mvrob::TxnState::kActive;
  }
  uint64_t FirstStep(SessionId session) const {
    return engine_.session(session).first_step;
  }

 private:
  template <typename Fn>
  auto Timed(Call call, Fn&& fn) {
    if (stats_ == nullptr) return fn();
    const int64_t start = NowNs();
    auto result = fn();
    stats_->Record(call, NowNs() - start);
    return result;
  }

  EngineT& engine_;
  CallStats* stats_;
};

void CountAbort(AbortReason reason, ClientReport& report) {
  switch (reason) {
    case AbortReason::kWriteConflict:
      ++report.aborts_write_conflict;
      break;
    case AbortReason::kSsiDangerousStructure:
      ++report.aborts_ssi;
      break;
    case AbortReason::kUser:
    case AbortReason::kNone:
      ++report.aborts_lock;
      break;
  }
}

}  // namespace

ClientReport RunSingleEngine(const TransactionSet& programs,
                             const Allocation& alloc,
                             const ClientOptions& options) {
  ClientReport report;
  report.construct_span_ns[0] = NowNs();
  auto engine = std::make_unique<Engine>(programs.num_objects());
  report.construct_span_ns[1] = NowNs();
  EngineCalls<Engine> calls(*engine,
                            options.time_calls ? &report.calls : nullptr);
  mvrob::Rng rng(options.seed);

  struct Program {
    SessionId session = mvrob::kInvalidSessionId;
    int next_op = 0;
    int retries_left = 0;
    SessionId waiting_on = mvrob::kInvalidSessionId;
    int64_t first_begin_ns = 0;
  };
  std::vector<Program> state(programs.size());
  std::vector<TxnId> order(programs.size());
  for (TxnId t = 0; t < programs.size(); ++t) order[t] = t;
  std::shuffle(order.begin(), order.end(), rng.engine());
  std::deque<TxnId> queue(order.begin(), order.end());
  std::vector<TxnId> window;
  auto admit = [&] {
    while (window.size() < kConcurrency &&
           !queue.empty()) {
      const TxnId t = queue.front();
      queue.pop_front();
      state[t] = Program{};
      state[t].retries_left = kMaxRetries;
      window.push_back(t);
    }
  };
  // A finished program leaves the window and is queued to run again.
  auto retire = [&](TxnId t) {
    ++report.finished;
    window.erase(std::find(window.begin(), window.end(), t));
    queue.push_back(t);
    admit();
  };
  auto on_abort = [&](TxnId t, AbortReason reason) {
    CountAbort(reason, report);
    Program& p = state[t];
    p.session = mvrob::kInvalidSessionId;
    p.next_op = 0;
    p.waiting_on = mvrob::kInvalidSessionId;
    if (p.retries_left-- <= 0) {
      ++report.gave_up;
      retire(t);
    }
  };

  Value next_value = 1;
  uint64_t commits_at_vacuum = 0;
  std::vector<TxnId> runnable;
  admit();
  report.start_ns = NowNs();
  while (report.steps < options.steps) {
    runnable.clear();
    for (TxnId t : window) {
      Program& p = state[t];
      if (p.waiting_on != mvrob::kInvalidSessionId &&
          !calls.IsActive(p.waiting_on)) {
        p.waiting_on = mvrob::kInvalidSessionId;
      }
      if (p.waiting_on == mvrob::kInvalidSessionId) runnable.push_back(t);
    }
    if (runnable.empty()) {
      // Every program in flight waits: abort the youngest session.
      TxnId victim = window.front();
      uint64_t youngest = 0;
      for (TxnId t : window) {
        if (state[t].session == mvrob::kInvalidSessionId) continue;
        const uint64_t first = calls.FirstStep(state[t].session);
        if (first >= youngest) {
          youngest = first;
          victim = t;
        }
      }
      calls.Abort(state[victim].session);
      on_abort(victim, AbortReason::kUser);
      continue;
    }
    const TxnId t = runnable[rng.Index(runnable.size())];
    Program& p = state[t];
    const IsolationLevel level = alloc.level(t);
    if (p.session == mvrob::kInvalidSessionId) {
      if (p.first_begin_ns == 0) p.first_begin_ns = NowNs();
      p.session = calls.Begin(0, level);
      ++report.attempts;
    }
    const Operation& op = programs.txn(t).op(p.next_op);
    ++report.steps;
    if (op.IsRead()) {
      calls.Read(p.session, op.object);
      ++p.next_op;
    } else if (op.IsWrite()) {
      const WriteResult result =
          calls.Write(p.session, op.object, next_value++);
      if (result.status == StepStatus::kOk) {
        ++p.next_op;
      } else if (result.status == StepStatus::kBlocked) {
        ++report.blocked_steps;
        p.waiting_on = result.blocker;
      } else {
        on_abort(t, result.abort_reason);
      }
    } else {
      const CommitResult result = calls.Commit(p.session, level);
      if (result.status == StepStatus::kOk) {
        ++report.commits;
        report.latency_ns.push_back(
            static_cast<uint64_t>(NowNs() - p.first_begin_ns));
        retire(t);
      } else {
        on_abort(t, result.abort_reason);
      }
    }
    if (report.commits - commits_at_vacuum >= kCommitsPerVacuum) {
      commits_at_vacuum = report.commits;
      calls.Vacuum();
    }
  }
  report.end_ns = NowNs();
  for (TxnId t : window) {
    if (state[t].session != mvrob::kInvalidSessionId) ++report.in_flight;
  }
  report.engine = engine->stats();
  report.sessions_end = engine->num_sessions();
  report.versions_end = engine->store().TotalVersions();
  report.destroy_span_ns[0] = NowNs();
  engine.reset();
  report.destroy_span_ns[1] = NowNs();
  return report;
}

ClientReport RunConcurrentEngine(const TransactionSet& programs,
                                 const Allocation& alloc, size_t workers,
                                 const ClientOptions& options) {
  ClientReport report;
  report.construct_span_ns[0] = NowNs();
  auto engine_owner =
      std::make_unique<ConcurrentEngine>(programs.num_objects(), workers);
  ConcurrentEngine& engine = *engine_owner;
  report.construct_span_ns[1] = NowNs();
  report.worker_span_ns.resize(workers);
  report.worker_calls.resize(workers);
  std::vector<ClientReport> local(workers);
  const uint64_t budget = options.steps / workers;

  auto worker_fn = [&](size_t w) {
    ClientReport& mine = local[w];
    EngineCalls<ConcurrentEngine> calls(
        engine, options.time_calls ? &report.worker_calls[w] : nullptr);
    mvrob::Rng rng(MixSeed(options.seed, w));
    std::vector<TxnId> share;
    for (TxnId t = static_cast<TxnId>(w); t < programs.size();
         t += static_cast<TxnId>(workers)) {
      share.push_back(t);
    }
    std::shuffle(share.begin(), share.end(), rng.engine());
    // Disjoint per-worker value streams keep written values unique.
    Value next_value = (static_cast<Value>(w) << 40) + 1;
    report.worker_span_ns[w][0] = NowNs();
    // The budget is checked between attempts, so no session is left open.
    for (size_t i = 0; mine.steps < budget && !share.empty(); ++i) {
      const TxnId t = share[i % share.size()];
      const IsolationLevel level = alloc.level(t);
      const mvrob::Transaction& program = programs.txn(t);
      int retries_left = kMaxRetries;
      const int64_t first_begin_ns = NowNs();
      while (mine.steps < budget) {
        calls.Begin(w, level);
        ++mine.attempts;
        AbortReason reason = AbortReason::kNone;
        bool committed = false;
        for (int op_index = 0; reason == AbortReason::kNone && !committed;
             ++op_index) {
          const Operation& op = program.op(op_index);
          ++mine.steps;
          if (op.IsRead()) {
            calls.Read(w, op.object);
          } else if (op.IsWrite()) {
            const WriteResult result = calls.Write(w, op.object, next_value++);
            if (result.status == StepStatus::kBlocked) {
              ++mine.blocked_steps;
              calls.Abort(w);
              reason = AbortReason::kUser;
            } else if (result.status == StepStatus::kAborted) {
              reason = result.abort_reason;
            }
          } else {
            const CommitResult result = calls.Commit(w, level);
            if (result.status == StepStatus::kOk) {
              committed = true;
            } else {
              reason = result.abort_reason;
            }
          }
        }
        if (committed) {
          ++mine.finished;
          ++mine.commits;
          mine.latency_ns.push_back(
              static_cast<uint64_t>(NowNs() - first_begin_ns));
          break;
        }
        CountAbort(reason, mine);
        if (reason == AbortReason::kUser) {
          // No-wait lock conflict: retry; it does not count against the
          // retry budget.
          std::this_thread::yield();
          continue;
        }
        if (retries_left-- <= 0) {
          ++mine.finished;
          ++mine.gave_up;
          break;
        }
      }
    }
    report.worker_span_ns[w][1] = NowNs();
  };

  report.start_ns = NowNs();
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (size_t w = 0; w < workers; ++w) threads.emplace_back(worker_fn, w);
  for (std::thread& thread : threads) thread.join();
  report.end_ns = NowNs();

  for (const ClientReport& mine : local) {
    report.steps += mine.steps;
    report.attempts += mine.attempts;
    report.commits += mine.commits;
    report.finished += mine.finished;
    report.gave_up += mine.gave_up;
    report.aborts_write_conflict += mine.aborts_write_conflict;
    report.aborts_ssi += mine.aborts_ssi;
    report.aborts_lock += mine.aborts_lock;
    report.blocked_steps += mine.blocked_steps;
    report.latency_ns.insert(report.latency_ns.end(), mine.latency_ns.begin(),
                             mine.latency_ns.end());
  }
  for (const CallStats& stats : report.worker_calls) report.calls.Merge(stats);
  report.engine = engine.stats();
  report.sessions_end = engine.num_sessions();
  report.versions_end = engine.TotalVersions();
  report.gc_epochs = engine.gc_epochs();
  report.gc_reclaimed = engine.gc_reclaimed();
  report.destroy_span_ns[0] = NowNs();
  engine_owner.reset();
  report.destroy_span_ns[1] = NowNs();
  return report;
}

}  // namespace perfbench
