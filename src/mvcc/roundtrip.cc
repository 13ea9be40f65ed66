#include "mvcc/roundtrip.h"

#include <optional>

#include "common/metrics.h"
#include "common/string_util.h"
#include "iso/allowed.h"
#include "mvcc/concurrent_driver.h"
#include "mvcc/driver.h"
#include "mvcc/trace.h"
#include "schedule/anomaly.h"
#include "schedule/serializability.h"

namespace mvrob {

namespace {

constexpr size_t kMaxFailureDiagnostics = 8;

void AddFailure(RoundTripReport* report, uint64_t run, std::string_view why) {
  ++report->disagreements;
  if (report->failures.size() < kMaxFailureDiagnostics) {
    report->failures.push_back(StrCat("run ", run, ": ", why));
  }
}

}  // namespace

std::string RoundTripReport::ToString() const {
  std::string out = StrCat(
      "round-trip validation: ", runs, " runs, ", certified, " certified, ",
      disagreements, " disagreements\n");
  out += StrCat("  allocation robust: ", allocation_robust ? "yes" : "no",
                " (", triples_examined, " triples examined)\n");
  out += StrCat("  serializable runs: ", serializable_runs, "\n");
  out += StrCat("  anomalous runs:    ", anomalous_runs, "\n");
  if (skipped_unexportable > 0) {
    out += StrCat("  unexportable runs: ", skipped_unexportable,
                  " (double-write sessions; round-trip checked only)\n");
  }
  for (const std::string& failure : failures) {
    out += StrCat("  DISAGREEMENT ", failure, "\n");
  }
  if (disagreements > static_cast<uint64_t>(failures.size())) {
    out += StrCat("  ... and ",
                  disagreements - static_cast<uint64_t>(failures.size()),
                  " more\n");
  }
  return out;
}

StatusOr<RoundTripReport> ValidateEngineRuns(const TransactionSet& txns,
                                             const Allocation& alloc,
                                             const RoundTripOptions& options) {
  if (alloc.size() != txns.size()) {
    return Status::InvalidArgument(
        StrCat("allocation has ", alloc.size(), " levels for ", txns.size(),
               " transactions"));
  }
  if (options.runs < 0) {
    return Status::InvalidArgument("runs must be >= 0");
  }
  PhaseTimer timer(options.metrics, "roundtrip.validate");

  RoundTripReport report;
  RobustnessResult verdict = CheckRobustness(txns, alloc, options.check);
  report.allocation_robust = verdict.robust;
  report.triples_examined = verdict.triples_examined;

  const bool concurrent = options.engine_threads > 1;
  ScheduleRecorder recorder(options.recorder_capacity);
  for (int run = 0; run < options.runs; ++run) {
    recorder.Clear();
    RandomRunOptions run_options;
    run_options.concurrency = options.concurrency;
    run_options.seed = options.seed + static_cast<uint64_t>(run);
    // Engines live in optionals so one loop body serves both paths.
    std::optional<Engine> engine;
    std::optional<ConcurrentEngine> concurrent_engine;
    if (concurrent) {
      ConcurrentEngineOptions engine_options;
      engine_options.num_shards = options.engine_shards;
      engine_options.recorder = &recorder;
      // Surfaces the per-shard/GC series for `mvrob validate
      // --engine-shards`; attaching metrics never changes a run.
      engine_options.metrics = options.metrics;
      concurrent_engine.emplace(txns.num_objects(),
                                static_cast<size_t>(options.engine_threads),
                                engine_options);
      run_options.engine_threads = options.engine_threads;
      RunConcurrent(*concurrent_engine, txns, alloc, run_options);
    } else {
      EngineOptions engine_options;
      engine_options.recorder = &recorder;
      engine.emplace(txns.num_objects(), engine_options);
      RunRandom(*engine, txns, alloc, run_options);
    }
    ++report.runs;

    if (recorder.dropped() > 0) {
      // Not a theory/execution disagreement — the ring was simply too
      // small for a faithful replay. Configuration error.
      return Status::InvalidArgument(
          StrCat("recorder dropped ", recorder.dropped(),
                 " events at capacity ", recorder.capacity(),
                 "; raise recorder_capacity for a faithful replay"));
    }

    // Stage 1: text round-trip. The parsed file must reproduce the
    // in-memory event log bit for bit.
    std::string text = recorder.ToText(txns);
    StatusOr<std::vector<EngineEvent>> parsed =
        ParseRecordedSchedule(text, txns);
    if (!parsed.ok()) {
      AddFailure(&report, run,
                 StrCat("recording does not parse back: ",
                        parsed.status().message()));
      continue;
    }
    if (*parsed != recorder.Events()) {
      AddFailure(&report, run,
                 "parsed recording differs from the in-memory event log");
      continue;
    }

    // Stage 2: replay equality. The formal image rebuilt from the
    // recording must equal the one exported from the live engine.
    StatusOr<ExportedRun> from_recording =
        BuildRunFromRecording(*parsed, txns);
    StatusOr<ExportedRun> from_engine =
        concurrent
            ? ExportCommittedSessions(concurrent_engine->SessionSnapshot(),
                                      txns)
            : ExportCommittedRun(*engine, txns);
    if (from_recording.ok() != from_engine.ok()) {
      AddFailure(&report, run,
                 StrCat("exportability disagrees: recording says ",
                        from_recording.ok() ? "ok" : "unexportable",
                        ", engine says ",
                        from_engine.ok() ? "ok" : "unexportable"));
      continue;
    }
    if (!from_engine.ok()) {
      // A session wrote the same object twice: no faithful formal image
      // exists (at-most-one-write regime). Round-trip fidelity held, so
      // the run still counts as certified.
      ++report.skipped_unexportable;
      ++report.certified;
      continue;
    }
    StatusOr<Schedule> recorded_schedule = from_recording->BuildSchedule();
    StatusOr<Schedule> engine_schedule = from_engine->BuildSchedule();
    if (!recorded_schedule.ok() || !engine_schedule.ok()) {
      AddFailure(&report, run,
                 StrCat("exported run is not a valid schedule: ",
                        (!recorded_schedule.ok() ? recorded_schedule.status()
                                                 : engine_schedule.status())
                            .message()));
      continue;
    }
    if (from_recording->allocation != from_engine->allocation ||
        recorded_schedule->ToString(/*with_versions=*/true) !=
            engine_schedule->ToString(/*with_versions=*/true)) {
      AddFailure(&report, run,
                 "replayed schedule differs from the engine's own export");
      continue;
    }

    // Stage 3: Definition 2.4 conformance. Every engine execution must be
    // allowed under the levels it ran with.
    AllowedCheckResult allowed =
        CheckAllowedUnder(*recorded_schedule, from_recording->allocation);
    if (!allowed.allowed) {
      AddFailure(&report, run,
                 StrCat("recorded run violates Definition 2.4: ",
                        allowed.violations.empty() ? std::string("?")
                                                   : allowed.violations[0]));
      continue;
    }

    // Stage 4 + 5: serializability cross-checks.
    bool serializable = IsConflictSerializable(*recorded_schedule);
    std::vector<AnomalyReport> anomalies = FindAnomalies(*recorded_schedule);
    if (serializable) {
      ++report.serializable_runs;
    } else {
      ++report.anomalous_runs;
    }
    if (!anomalies.empty() && serializable) {
      AddFailure(&report, run,
                 StrCat("anomaly reported on a conflict-serializable run: ",
                        anomalies[0].ToString(recorded_schedule->txns())));
      continue;
    }
    if (anomalies.empty() && !serializable) {
      AddFailure(&report, run,
                 "non-serializable run but no anomaly was certified");
      continue;
    }
    // Robustness is closed under subsets, and RunRandom commits each
    // program at most once, so the committed image is always a subset of
    // `txns`: a robust verdict promises this run is serializable.
    if (report.allocation_robust && !serializable) {
      AddFailure(&report, run,
                 StrCat("allocation certified robust but the run is not "
                        "conflict serializable: ",
                        anomalies.empty()
                            ? std::string("?")
                            : anomalies[0].ToString(recorded_schedule->txns())));
      continue;
    }

    // Stage 6 (concurrent runs only): differential oracle. The exported
    // interleaving must replay cleanly on a fresh single-threaded engine
    // and reproduce the identical schedule, proving the concurrent
    // execution equivalent to a deterministic interleaving.
    if (concurrent) {
      Engine oracle(from_engine->txns.num_objects(),
                    EngineOptions{SsiMode::kExact, nullptr, nullptr});
      StatusOr<DriverReport> replay =
          RunExactInterleaving(oracle, from_engine->txns,
                               from_engine->allocation, from_engine->order);
      if (!replay.ok()) {
        AddFailure(&report, run,
                   StrCat("concurrent run has no deterministic replay: ",
                          replay.status().message()));
        continue;
      }
      StatusOr<ExportedRun> oracle_run =
          ExportCommittedRun(oracle, from_engine->txns);
      if (!oracle_run.ok()) {
        AddFailure(&report, run,
                   StrCat("deterministic replay does not export: ",
                          oracle_run.status().message()));
        continue;
      }
      // Structural comparison: order, version function and version order
      // all use positional txn ids, so this is insensitive to session
      // naming (the oracle numbers sessions densely while the concurrent
      // engine's committed ids have gaps from retried no-wait attempts).
      bool same_programs =
          oracle_run->txns.size() == from_engine->txns.size();
      for (TxnId t = 0; same_programs && t < oracle_run->txns.size(); ++t) {
        const Transaction& a = oracle_run->txns.txn(t);
        const Transaction& b = from_engine->txns.txn(t);
        same_programs = a.num_ops() == b.num_ops();
        for (int i = 0; same_programs && i < a.num_ops(); ++i) {
          same_programs = a.op(i) == b.op(i);
        }
      }
      if (!same_programs ||
          oracle_run->allocation != from_engine->allocation ||
          oracle_run->order != from_engine->order ||
          oracle_run->versions != from_engine->versions ||
          oracle_run->version_order != from_engine->version_order) {
        AddFailure(&report, run,
                   "deterministic replay of the concurrent run diverges "
                   "from the recorded schedule");
        continue;
      }
    }
    ++report.certified;
  }

  if (MetricsRegistry* metrics = options.metrics; metrics != nullptr) {
    metrics->counter("roundtrip.runs").Add(report.runs);
    metrics->counter("roundtrip.certified").Add(report.certified);
    metrics->counter("roundtrip.disagreements").Add(report.disagreements);
    metrics->counter("roundtrip.anomalous_runs").Add(report.anomalous_runs);
  }
  return report;
}

}  // namespace mvrob
