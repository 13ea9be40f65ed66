#ifndef MVROB_CLI_EXPORT_H_
#define MVROB_CLI_EXPORT_H_

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>

#include "common/status.h"

namespace mvrob {

class MetricsRegistry;
class TxnTracer;

/// Writes `content` (plus a trailing newline) to `path`; used for metric
/// snapshots, witness artifacts and recordings.
Status WriteTextFile(const std::string& path, const std::string& content);

/// Writes an artifact to a file, or to `out` when `path` is "-".
Status EmitArtifact(const std::string& path, const std::string& content,
                    std::ostream& out);

/// Writes the registry's --stats-json / --trace-out snapshots. Either path
/// may be empty to skip that file. Shared by the end-of-command export, the
/// periodic exporter, and the serve loop. With a tracer attached, the
/// trace file carries the merged Chrome trace: the registry's phase spans,
/// then the tracer's sampled txn attempt spans and retry flow events (one
/// shared flow id per logical transaction). Both sources stamp
/// microseconds on the steady clock from their construction epochs, which
/// coincide at process start for the CLI paths.
Status ExportMetricsFiles(const MetricsRegistry& registry,
                          const std::string& stats_path,
                          const std::string& trace_path,
                          const TxnTracer* tracer = nullptr);

/// Background thread that rewrites the --stats-json / --trace-out files
/// every `interval` while a long command runs, so an external watcher can
/// tail progress. Stops (and joins) on destruction; write errors are
/// reported once through the structured logger rather than failing the
/// command.
class PeriodicMetricsExporter {
 public:
  PeriodicMetricsExporter(const MetricsRegistry& registry,
                          std::string stats_path, std::string trace_path,
                          std::chrono::seconds interval);
  ~PeriodicMetricsExporter() { Stop(); }
  PeriodicMetricsExporter(const PeriodicMetricsExporter&) = delete;
  PeriodicMetricsExporter& operator=(const PeriodicMetricsExporter&) = delete;

  /// Idempotent; wakes the thread, writes one final snapshot, and joins.
  void Stop();

 private:
  void Run();
  void ExportOnce();

  const MetricsRegistry& registry_;
  const std::string stats_path_;
  const std::string trace_path_;
  const std::chrono::seconds interval_;

  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::thread thread_;
};

}  // namespace mvrob

#endif  // MVROB_CLI_EXPORT_H_
