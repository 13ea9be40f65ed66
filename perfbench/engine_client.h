#ifndef PERFBENCH_ENGINE_CLIENT_H_
#define PERFBENCH_ENGINE_CLIENT_H_

#include <array>
#include <cstdint>
#include <vector>

#include "iso/allocation.h"
#include "mvcc/engine.h"
#include "txn/transaction_set.h"

namespace perfbench {

/// Derives decorrelated seeds from one seed (splitmix64 finalizer).
inline uint64_t MixSeed(uint64_t seed, uint64_t index) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// The engine calls a traced run times one by one. Commits are split by
/// the committing transaction's isolation level.
enum class Call : uint8_t {
  kBegin,
  kRead,
  kWrite,
  kCommitRC,
  kCommitSI,
  kCommitSSI,
  kAbort,
  kVacuum,
};
inline constexpr size_t kNumCalls = 8;

/// Aggregated timings of one client's engine calls (traced runs only):
/// count and total ns per call type, plus every SSI commit sample for its
/// tail percentile.
struct CallStats {
  std::array<uint64_t, kNumCalls> count{};
  std::array<uint64_t, kNumCalls> total_ns{};
  std::vector<uint32_t> ssi_commit_ns;

  void Record(Call call, int64_t ns);
  void Merge(const CallStats& other);
};

struct ClientOptions {
  uint64_t seed = 0;
  /// Fixed work: engine steps (one read, write or commit call each). The
  /// concurrent engine splits the budget evenly over its workers.
  uint64_t steps = 0;
  /// Traced run: time every engine call into ClientReport::calls.
  bool time_calls = false;
};

/// What one closed-loop run did, from the client's books and the engine's.
struct ClientReport {
  uint64_t steps = 0;
  uint64_t attempts = 0;
  uint64_t commits = 0;
  /// Programs that committed or exhausted their retry budget, counted
  /// where they leave the client loop.
  uint64_t finished = 0;
  /// Programs that exhausted their retry budget.
  uint64_t gave_up = 0;
  /// Sessions still open when the step budget ran out.
  uint64_t in_flight = 0;
  uint64_t aborts_write_conflict = 0;
  uint64_t aborts_ssi = 0;
  /// Client-initiated aborts: deadlock victims on the single-threaded
  /// engine, no-wait row-lock conflicts on the concurrent one.
  uint64_t aborts_lock = 0;
  uint64_t blocked_steps = 0;
  /// One sample per commit: ns from the logical transaction's first Begin
  /// to its successful Commit.
  std::vector<uint64_t> latency_ns;
  /// The client loop, and the engine's construction and destruction
  /// around it.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  std::array<int64_t, 2> construct_span_ns{};
  std::array<int64_t, 2> destroy_span_ns{};
  /// Concurrent engine: each worker's [start, end] and call timings.
  std::vector<std::array<int64_t, 2>> worker_span_ns;
  std::vector<CallStats> worker_calls;
  /// Single-threaded engine: the call timings.
  CallStats calls;

  // Engine state when the run ends.
  mvrob::EngineStats engine;
  uint64_t sessions_end = 0;
  uint64_t versions_end = 0;
  uint64_t gc_epochs = 0;
  uint64_t gc_reclaimed = 0;

  double wall_s() const {
    return 1e-9 * static_cast<double>(end_ns - start_ns);
  }
};

/// Closed loop on the single-threaded `Engine`, by RunRandom's rules in
/// continuous mode: 4 programs in flight, a seeded uniform
/// choice among the runnable ones, a blocked session waits for its
/// blocker, a deadlock aborts the youngest session, and a finished
/// program is re-queued, and the engine is vacuumed every 4096 commits.
/// Deterministic for a fixed seed and step budget.
ClientReport RunSingleEngine(const mvrob::TransactionSet& programs,
                             const mvrob::Allocation& alloc,
                             const ClientOptions& options);

/// Closed loop on `ConcurrentEngine` with `workers` threads, one session
/// each, by RunConcurrent's rules in continuous mode: each worker cycles
/// through its seeded share of the programs, and a write that hits a row
/// lock aborts and retries the attempt without spending the retry budget.
ClientReport RunConcurrentEngine(const mvrob::TransactionSet& programs,
                                 const mvrob::Allocation& alloc,
                                 size_t workers, const ClientOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_ENGINE_CLIENT_H_
