// Tests for the SSI registry both engines share: registry retirement must
// never change a commit verdict, and the registry must stay bounded by the
// true overlap between sessions, not grow with run length.
//
// The oracles are the same checks over an unretired registry (every
// committed SSI session, added with horizon 0) and, for exact mode, a
// literal t1 x t2 x t3 scan of Definition 2.4 over every committed SSI
// session of the run.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "iso/allocation.h"
#include "mvcc/concurrent_engine.h"
#include "mvcc/engine.h"
#include "mvcc/ssi_tracker.h"
#include "workloads/registry.h"

namespace mvrob {
namespace {

// Runs `programs` on `engine` with `concurrency` programs in flight for
// `steps` rounds. Each round runs one operation of a random in-flight
// program; a finished program is replaced by a random one, and a blocked
// write aborts the attempt (no-wait), so the run never deadlocks. One
// thread drives every slot, so a run is deterministic on either engine:
// Engine addresses a slot by its session id, ConcurrentEngine by its
// worker index. `before_commit` sees the committing session and every
// in-flight session; `after_commit` sees the outcome.
template <typename EngineT>
void RunNoWait(
    EngineT& engine, const TransactionSet& programs, const Allocation& alloc,
    size_t concurrency, uint64_t steps, uint64_t seed,
    const std::function<void(SessionId, const std::vector<SessionId>&)>&
        before_commit,
    const std::function<void(SessionId, const CommitResult&)>& after_commit) {
  constexpr bool kSingle = std::is_same_v<EngineT, Engine>;
  struct Slot {
    TxnId program = 0;
    SessionId session = kInvalidSessionId;
    int next_op = 0;
  };
  Rng rng(seed);
  auto random_program = [&] {
    return static_cast<TxnId>(rng.Index(programs.size()));
  };
  std::vector<Slot> slots(concurrency);
  for (Slot& slot : slots) slot.program = random_program();
  Value next_value = 1;
  std::vector<SessionId> in_flight;
  for (uint64_t step = 0; step < steps; ++step) {
    const size_t index = rng.Index(slots.size());
    Slot& slot = slots[index];
    const IsolationLevel level = alloc.level(slot.program);
    if (slot.session == kInvalidSessionId) {
      if constexpr (kSingle) {
        slot.session = engine.Begin(level);
      } else {
        slot.session = engine.Begin(index, level);
      }
    }
    const auto handle = [&] {
      if constexpr (kSingle) {
        return slot.session;
      } else {
        return index;
      }
    }();
    const Operation& op = programs.txn(slot.program).op(slot.next_op);
    bool finished = false;
    if (op.IsRead()) {
      engine.Read(handle, op.object);
      ++slot.next_op;
    } else if (op.IsWrite()) {
      WriteResult result = engine.Write(handle, op.object, next_value++);
      if (result.status == StepStatus::kBlocked) {
        engine.Abort(handle);
        finished = true;
      } else if (result.status == StepStatus::kAborted) {
        finished = true;
      } else {
        ++slot.next_op;
      }
    } else {
      in_flight.clear();
      for (const Slot& other : slots) {
        if (other.session != kInvalidSessionId) {
          in_flight.push_back(other.session);
        }
      }
      before_commit(slot.session, in_flight);
      after_commit(slot.session, engine.Commit(handle));
      finished = true;
    }
    if (finished) slot = Slot{random_program()};
  }
}

// ---------------------------------------------------------------------------
// Reference Definition 2.4 scan: every ordered triple of committed SSI
// sessions plus the candidate, as the engine ran it before the registry.

struct RefView {
  SessionId id;
  const SessionRecord* record;
  Timestamp commit_ts;
  uint64_t commit_step;
};

bool RefConcurrent(const RefView& a, const RefView& b) {
  return a.record->first_step != 0 && b.record->first_step != 0 &&
         a.record->first_step < b.commit_step &&
         b.record->first_step < a.commit_step;
}

bool RefRwAntiEdge(const RefView& a, const RefView& b) {
  if (a.id == b.id) return false;
  for (const SessionReadRecord& read : a.record->reads) {
    if (!b.record->write_buffer.contains(read.object)) continue;
    Timestamp observed =
        read.version_writer == a.id ? a.commit_ts : read.version_ts;
    if (observed < b.commit_ts) return true;
  }
  return false;
}

bool RefDangerousStructure(const Engine& engine, SessionId candidate,
                           Timestamp commit_ts, uint64_t commit_step) {
  std::vector<RefView> members;
  for (SessionId id = 0; id < engine.num_sessions(); ++id) {
    const SessionRecord& record = engine.session(id);
    if (record.level != IsolationLevel::kSSI) continue;
    if (id == candidate) {
      members.push_back(RefView{id, &record, commit_ts, commit_step});
    } else if (record.state == TxnState::kCommitted) {
      members.push_back(
          RefView{id, &record, record.commit_ts, record.commit_step});
    }
  }
  for (const RefView& t1 : members) {
    for (const RefView& t2 : members) {
      if (t2.id == t1.id || !RefConcurrent(t1, t2)) continue;
      if (!RefRwAntiEdge(t1, t2)) continue;
      for (const RefView& t3 : members) {
        if (t3.id == t2.id || !RefConcurrent(t2, t3)) continue;
        if (t1.id != candidate && t2.id != candidate && t3.id != candidate) {
          continue;
        }
        bool c3_le_c1 = t3.id == t1.id || t3.commit_ts < t1.commit_ts;
        if (c3_le_c1 && t3.commit_ts < t2.commit_ts && RefRwAntiEdge(t2, t3)) {
          return true;
        }
      }
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Differential: retirement never changes an Engine verdict.

struct Verdicts {
  uint64_t checks = 0;
  uint64_t refusals = 0;
  uint64_t disagreements = 0;
  uint64_t reference_disagreements = 0;
};

Verdicts CheckEveryEngineSsiCommit(const std::string& spec, SsiMode mode,
                                   uint64_t seed, uint64_t steps,
                                   bool reference_scan) {
  StatusOr<Workload> workload = MakeNamedWorkload(spec);
  EXPECT_TRUE(workload.ok()) << workload.status().ToString();
  const TransactionSet& programs = workload->txns;
  Engine engine(programs.num_objects(), EngineOptions{{}, mode});
  SsiRegistry unretired;
  Verdicts verdicts;
  bool expected = false;
  bool expected_reference = false;
  Timestamp expected_ts = 0;
  auto before = [&](SessionId id, const std::vector<SessionId>& in_flight) {
    const SessionRecord& record = engine.session(id);
    if (record.level != IsolationLevel::kSSI) return;
    // Every successful commit advances the clock by one.
    expected_ts = engine.stats().commits + 1;
    const uint64_t step = engine.current_step() + 1;
    const SsiMember candidate{id, &record};
    if (mode == SsiMode::kExact) {
      expected = unretired.WouldCompleteDangerousStructure(candidate,
                                                           expected_ts, step);
      if (reference_scan) {
        expected_reference =
            RefDangerousStructure(engine, id, expected_ts, step);
      }
    } else {
      std::vector<SsiMember> active;
      for (SessionId other : in_flight) {
        if (engine.session(other).level == IsolationLevel::kSSI) {
          active.push_back(SsiMember{other, &engine.session(other)});
        }
      }
      expected =
          unretired.WouldCreatePivot(active, candidate, expected_ts, step);
    }
  };
  auto after = [&](SessionId id, const CommitResult& result) {
    const SessionRecord& record = engine.session(id);
    if (record.level != IsolationLevel::kSSI) return;
    ++verdicts.checks;
    const bool refused = result.status == StepStatus::kAborted;
    if (refused) {
      ++verdicts.refusals;
      EXPECT_EQ(result.abort_reason, AbortReason::kSsiDangerousStructure);
    } else {
      EXPECT_EQ(result.commit_ts, expected_ts);
      unretired.Add(SsiMember{id, &record}, /*horizon=*/0);
    }
    if (refused != expected) ++verdicts.disagreements;
    if (reference_scan && refused != expected_reference) {
      ++verdicts.reference_disagreements;
    }
  };
  const Allocation alloc = Allocation::AllSSI(programs.size());
  RunNoWait(engine, programs, alloc, /*concurrency=*/4, steps, seed, before,
            after);
  EXPECT_EQ(unretired.size() + verdicts.refusals, verdicts.checks) << spec;
  return verdicts;
}

struct DifferentialCase {
  std::string spec;
  uint64_t seed;
};

std::vector<DifferentialCase> DifferentialCases() {
  std::vector<DifferentialCase> cases;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    cases.push_back(DifferentialCase{
        "synthetic:n=24,o=8,w=50,h=60,hot=2,ops=4,seed=" +
            std::to_string(seed),
        seed});
  }
  cases.push_back(DifferentialCase{"smallbank:c=4", 5});
  cases.push_back(DifferentialCase{"tpcc:w=1,d=2", 6});
  return cases;
}

TEST(SsiRegistryTest, RetirementNeverChangesAnExactVerdict) {
  uint64_t refusals = 0;
  for (const DifferentialCase& c : DifferentialCases()) {
    Verdicts verdicts = CheckEveryEngineSsiCommit(
        c.spec, SsiMode::kExact, c.seed, /*steps=*/4000,
        /*reference_scan=*/true);
    EXPECT_GT(verdicts.checks, 100u) << c.spec;
    EXPECT_EQ(verdicts.disagreements, 0u) << c.spec;
    EXPECT_EQ(verdicts.reference_disagreements, 0u) << c.spec;
    refusals += verdicts.refusals;
  }
  // The hot runs must actually exercise refusals.
  EXPECT_GT(refusals, 0u);
}

TEST(SsiRegistryTest, RetirementNeverChangesAConservativeVerdict) {
  uint64_t refusals = 0;
  for (const DifferentialCase& c : DifferentialCases()) {
    Verdicts verdicts = CheckEveryEngineSsiCommit(
        c.spec, SsiMode::kConservative, c.seed, /*steps=*/4000,
        /*reference_scan=*/false);
    EXPECT_GT(verdicts.checks, 100u) << c.spec;
    EXPECT_EQ(verdicts.disagreements, 0u) << c.spec;
    refusals += verdicts.refusals;
  }
  EXPECT_GT(refusals, 0u);
}

// ---------------------------------------------------------------------------
// Registry bound: an all-SSI run with 4 sessions in flight keeps a registry
// sized by the overlap between them, under the same bound at 16K and 256K
// steps, on both engines.

constexpr int64_t kGraphBound = 64;

template <typename EngineT>
int64_t MaxGraphSize(uint64_t steps) {
  StatusOr<Workload> workload = MakeNamedWorkload("ycsb:a,n=64,k=1024");
  EXPECT_TRUE(workload.ok()) << workload.status().ToString();
  const TransactionSet& programs = workload->txns;
  constexpr size_t kSessions = 4;
  MetricsRegistry metrics;
  std::optional<EngineT> engine;
  if constexpr (std::is_same_v<EngineT, Engine>) {
    EngineOptions options;
    options.metrics = &metrics;
    engine.emplace(programs.num_objects(), options);
  } else {
    ConcurrentEngineOptions options;
    options.metrics = &metrics;
    engine.emplace(programs.num_objects(), kSessions, options);
  }
  const Gauge& graph_size = metrics.gauge("mvcc.ssi.graph_size");
  int64_t max_size = 0;
  RunNoWait(
      *engine, programs, Allocation::AllSSI(programs.size()), kSessions,
      steps, /*seed=*/3, [](SessionId, const std::vector<SessionId>&) {},
      [&](SessionId, const CommitResult&) {
        max_size = std::max(max_size, graph_size.value());
      });
  EXPECT_GT(engine->stats().commits, steps / 16);
  return max_size;
}

TEST(SsiRegistryTest, EngineGraphStaysBoundedAt16KSteps) {
  const int64_t max_size = MaxGraphSize<Engine>(16 * 1024);
  EXPECT_GT(max_size, 0);
  EXPECT_LE(max_size, kGraphBound);
}

TEST(SsiRegistryTest, EngineGraphStaysBoundedAt256KSteps) {
  const int64_t max_size = MaxGraphSize<Engine>(256 * 1024);
  EXPECT_GT(max_size, 0);
  EXPECT_LE(max_size, kGraphBound);
}

TEST(SsiRegistryTest, ConcurrentEngineGraphStaysBoundedAt16KSteps) {
  const int64_t max_size = MaxGraphSize<ConcurrentEngine>(16 * 1024);
  EXPECT_GT(max_size, 0);
  EXPECT_LE(max_size, kGraphBound);
}

TEST(SsiRegistryTest, ConcurrentEngineGraphStaysBoundedAt256KSteps) {
  const int64_t max_size = MaxGraphSize<ConcurrentEngine>(256 * 1024);
  EXPECT_GT(max_size, 0);
  EXPECT_LE(max_size, kGraphBound);
}

}  // namespace
}  // namespace mvrob
