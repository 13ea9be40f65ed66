#include "mvcc/roundtrip.h"

#include "common/metrics.h"
#include "common/string_util.h"
#include "iso/allowed.h"
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

Status ReplayOnDeterministicEngine(const ExportedRun& run) {
  // Unsinked, so a validated run's commits are not counted twice.
  Engine oracle(run.txns.num_objects());
  StatusOr<DriverReport> replay =
      RunExactInterleaving(oracle, run.txns, run.allocation, run.order);
  if (!replay.ok()) {
    return Status::FailedPrecondition(
        StrCat("concurrent run has no deterministic replay: ",
               replay.status().message()));
  }
  StatusOr<ExportedRun> oracle_run = ExportCommittedRun(oracle, run.txns);
  if (!oracle_run.ok()) {
    return Status::FailedPrecondition(
        StrCat("deterministic replay does not export: ",
               oracle_run.status().message()));
  }
  // Structural comparison: order, version function and version order all
  // use positional txn ids, so this is insensitive to session naming (the
  // oracle numbers sessions densely while the concurrent engine's
  // committed ids have gaps from retried no-wait attempts).
  bool same_programs = oracle_run->txns.size() == run.txns.size();
  for (TxnId t = 0; same_programs && t < oracle_run->txns.size(); ++t) {
    const Transaction& a = oracle_run->txns.txn(t);
    const Transaction& b = run.txns.txn(t);
    same_programs = a.num_ops() == b.num_ops();
    for (int i = 0; same_programs && i < a.num_ops(); ++i) {
      same_programs = a.op(i) == b.op(i);
    }
  }
  if (!same_programs || oracle_run->allocation != run.allocation ||
      oracle_run->order != run.order || oracle_run->versions != run.versions ||
      oracle_run->version_order != run.version_order) {
    return Status::FailedPrecondition(
        "deterministic replay of the concurrent run diverges from the "
        "recorded schedule");
  }
  return Status::Ok();
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
  if (options.engine_shards != 0 && options.engine_threads <= 1) {
    return Status::InvalidArgument(
        "engine_shards requires engine_threads > 1 (the single-threaded "
        "engine has no shards)");
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
    run_options.engine_threads = options.engine_threads;
    run_options.engine_shards = options.engine_shards;
    run_options.recorder = &recorder;
    // The mvcc.* and driver.* series for `mvrob validate --stats-json`;
    // attaching metrics never changes a run.
    run_options.metrics = options.metrics;
    const WorkloadRun engine_run = RunWorkload(txns, alloc, run_options);
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
    StatusOr<ExportedRun> from_engine = engine_run.Export(txns);
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

    // Stage 6 (concurrent runs only): differential oracle.
    if (concurrent) {
      Status replayed = ReplayOnDeterministicEngine(*from_engine);
      if (!replayed.ok()) {
        AddFailure(&report, run, replayed.message());
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
