#ifndef MVROB_MVCC_ROUNDTRIP_H_
#define MVROB_MVCC_ROUNDTRIP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/robustness.h"
#include "iso/allocation.h"
#include "mvcc/engine.h"
#include "mvcc/recorder.h"
#include "mvcc/trace.h"
#include "txn/transaction_set.h"

namespace mvrob {

class MetricsRegistry;

/// Options for the round-trip validator.
struct RoundTripOptions {
  /// Randomized engine runs to record and validate.
  int runs = 200;
  int concurrency = 4;
  uint64_t seed = 0;
  /// Engine worker threads per run, as RandomRunOptions::engine_threads
  /// (each run goes through RunWorkload). > 1 adds a differential stage:
  /// the exported interleaving must replay cleanly on a fresh
  /// single-threaded engine and produce the identical schedule, i.e. every
  /// concurrent run is equivalent to a deterministic one.
  int engine_threads = 1;
  /// Key-space shards for the many-core engine (0 = auto). A non-zero
  /// count with engine_threads == 1 is rejected with InvalidArgument.
  size_t engine_shards = 0;
  size_t recorder_capacity = ScheduleRecorder::kDefaultCapacity;
  /// Knobs for the robustness verdict computed once up front.
  CheckOptions check;
  /// Optional sink for roundtrip.* counters, the roundtrip.validate phase
  /// span, and the recorded runs' mvcc.* and driver.* series (the stage-6
  /// replay engine is not instrumented).
  MetricsRegistry* metrics = nullptr;
};

/// What the validator found. `disagreements` is the headline number: it
/// counts runs where the executable engine and the formal theory diverge —
/// any value other than 0 is a bug in one of them.
struct RoundTripReport {
  /// Robustness verdict for (txns, alloc) from the formal checker.
  bool allocation_robust = false;
  uint64_t triples_examined = 0;
  uint64_t runs = 0;
  /// Runs that passed every stage (recording round-trip, replay equality,
  /// Definition 2.4 conformance, serializability cross-check).
  uint64_t certified = 0;
  uint64_t serializable_runs = 0;
  /// Runs whose committed image has at least one anomaly (necessarily
  /// non-serializable; only possible when the allocation is not robust).
  uint64_t anomalous_runs = 0;
  /// Runs with no formal image (a session wrote the same object twice);
  /// these are validated for round-trip fidelity only.
  uint64_t skipped_unexportable = 0;
  uint64_t disagreements = 0;
  /// Diagnostics for the first few disagreements.
  std::vector<std::string> failures;

  std::string ToString() const;
};

/// Stage 6 of the validator, usable on its own: replays `run` (exported
/// from a many-core engine run) step for step on a fresh, unsinked
/// single-threaded Engine and checks that the replay reproduces the same
/// programs, allocation, order, version function and version order.
/// Fails with FailedPrecondition, naming the divergence, otherwise.
Status ReplayOnDeterministicEngine(const ExportedRun& run);

/// The round-trip validator: records randomized engine executions of
/// `txns` under `alloc` with the ScheduleRecorder, feeds each recording
/// back through text serialization (ToText -> ParseRecordedSchedule) and
/// replay (BuildRunFromRecording), and checks theory against execution:
///
///  1. the parsed recording equals the in-memory event log (round-trip);
///  2. the schedule replayed from the recording equals the one exported
///     directly from the engine;
///  3. the recorded schedule is allowed under the allocation it ran with
///     (Definition 2.4);
///  4. anomaly reports agree with conflict serializability (anomalies
///     found iff the serialization graph is cyclic);
///  5. if the formal checker certifies (txns, alloc) robust, every
///     recorded run is conflict serializable — robustness is closed under
///     subsets, and a committed run is a subset of the programs, so a
///     single non-serializable run refutes the verdict;
///  6. with engine_threads > 1, the exported interleaving additionally
///     replays step for step on a fresh single-threaded engine and must
///     yield the identical schedule — every concurrent execution is
///     equivalent to some deterministic interleaving (the deterministic
///     driver is the correctness oracle for the many-core engine).
///
/// Any violation counts as a disagreement. Fails with InvalidArgument on
/// configuration errors (allocation size mismatch, recorder capacity too
/// small to hold a full run).
StatusOr<RoundTripReport> ValidateEngineRuns(const TransactionSet& txns,
                                             const Allocation& alloc,
                                             const RoundTripOptions& options);

}  // namespace mvrob

#endif  // MVROB_MVCC_ROUNDTRIP_H_
