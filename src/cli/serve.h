#ifndef MVROB_CLI_SERVE_H_
#define MVROB_CLI_SERVE_H_

#include <cstdint>
#include <ostream>
#include <string>

#include "iso/allocation.h"
#include "txn/transaction_set.h"

namespace mvrob {

/// Configuration for `mvrob serve` (parsed from CLI flags in cli.cc).
struct ServeParams {
  TransactionSet txns;
  Allocation alloc;

  /// Listen address. Port 0 picks an ephemeral port.
  std::string host = "127.0.0.1";
  int port = 0;
  /// When non-empty, the bound port is written here after listen succeeds —
  /// race-free discovery for tests and scripts using ephemeral ports.
  std::string port_file;

  /// Seconds between robustness re-checks feeding /witness.
  int witness_interval_s = 30;
  /// Stop after this many seconds; 0 = run until SIGINT/SIGTERM.
  int duration_s = 0;
  /// Trailing window of the live per-level series, in seconds.
  uint32_t window_s = 60;

  /// Driver knobs (same semantics as `mvrob simulate`).
  int concurrency = 4;
  uint64_t seed = 0;
  /// Worker threads for the periodic robustness check.
  int threads = 1;
  /// MVCC engine worker threads. 1 = the deterministic driver with
  /// epoch-driven version GC; > 1 = the sharded many-core engine
  /// (mvcc/concurrent_engine.h) with per-shard telemetry and epoch GC
  /// running inside the engine.
  int engine_threads = 1;
  /// Key-space shards for the many-core engine (0 = auto); requires
  /// engine_threads > 1 (the CLI rejects it otherwise).
  size_t engine_shards = 0;

  /// Adaptive allocation (adapt/controller.h): when true, a controller
  /// thread re-derives cost weights from the live telemetry every
  /// adapt_interval_s seconds, re-runs Algorithm 2 (plus the promotion
  /// optimizer when adapt_budget > 0), and hot-swaps the driver's
  /// allocation at the next engine-epoch boundary — every installed
  /// allocation passes a fresh robustness check first. Off by default;
  /// with adapt == false the serve behavior is unchanged.
  bool adapt = false;
  /// Seconds between controller decisions.
  int adapt_interval_s = 30;
  /// Promotion budget per decision; 0 = allocation-only decisions.
  int adapt_budget = 0;

  /// Transaction tracing (mvcc/txn_trace.h): sample 1 in N logical
  /// transactions into per-attempt spans with causal abort attribution,
  /// served at /trace and exported on shutdown. 0 = tracing off (the
  /// engines and drivers see a null tracer — zero cost, identical runs).
  uint64_t trace_sample = 0;
  /// Shutdown exports: when non-empty, the final metrics snapshot /
  /// Chrome trace (merged with the sampled txn spans when tracing is on)
  /// are written here on clean shutdown.
  std::string stats_json;
  std::string trace_out;

  /// Continuous profiling (common/profiler.h): when > 0 the sampling
  /// profiler starts with the server at this per-thread hz, feeding
  /// /debug/pprof and the mvrob_profile_* series. 0 leaves the profiler
  /// detached (no timers, no signals, bit-identical runs); /debug/pprof
  /// then falls back to an on-demand window per request.
  int profile_hz = 0;
  /// When non-empty, the aggregate folded-stack profile is written here on
  /// clean shutdown (requires profile_hz > 0).
  std::string profile_out;
};

/// Runs the workload continuously on the MVCC engine while serving
/// /metrics (Prometheus text exposition), /healthz, /snapshot (JSON
/// metrics snapshot), /witness (latest robustness verdict) and
/// /allocation (active allocation + adaptive-controller decisions) over
/// HTTP. Blocks until SIGINT/SIGTERM or the duration elapses; returns 0
/// on a clean shutdown.
int RunServe(ServeParams params, std::ostream& out, std::ostream& err);

}  // namespace mvrob

#endif  // MVROB_CLI_SERVE_H_
