#include "cli/export.h"

#include <filesystem>
#include <fstream>
#include <system_error>

#include "common/json.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "mvcc/txn_trace.h"

namespace mvrob {

Status WriteTextFile(const std::string& path, const std::string& content) {
  // --stats-json / --trace-out commonly point into per-run output trees
  // that don't exist yet; create missing parents rather than failing on
  // open, and name the offending path when creation is impossible (e.g. a
  // parent component is a regular file).
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  if (!parent.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(parent, ec);
    if (ec) {
      return Status::NotFound(StrCat("cannot create parent directory ",
                                     parent.string(), " for ", path, ": ",
                                     ec.message()));
    }
  }
  std::ofstream file(path);
  if (!file) {
    return Status::NotFound(StrCat("cannot open ", path, " for writing"));
  }
  file << content << "\n";
  file.flush();
  if (!file) {
    return Status::ResourceExhausted(StrCat("failed writing ", path));
  }
  return Status::Ok();
}

Status EmitArtifact(const std::string& path, const std::string& content,
                    std::ostream& out) {
  if (path == "-") {
    out << content << "\n";
    return Status::Ok();
  }
  return WriteTextFile(path, content);
}

Status ExportMetricsFiles(const MetricsRegistry& registry,
                          const std::string& stats_path,
                          const std::string& trace_path,
                          const TxnTracer* tracer) {
  if (!stats_path.empty()) {
    Status written = WriteTextFile(stats_path, registry.SnapshotJson());
    if (!written.ok()) return written;
  }
  if (!trace_path.empty()) {
    Status written =
        WriteTextFile(trace_path, registry.TraceJson([&](JsonWriter& json) {
          if (tracer != nullptr) tracer->WriteChromeEvents(json);
        }));
    if (!written.ok()) return written;
  }
  return Status::Ok();
}

PeriodicMetricsExporter::PeriodicMetricsExporter(
    const MetricsRegistry& registry, std::string stats_path,
    std::string trace_path, std::chrono::seconds interval)
    : registry_(registry),
      stats_path_(std::move(stats_path)),
      trace_path_(std::move(trace_path)),
      interval_(interval) {
  thread_ = std::thread([this] { Run(); });
}

void PeriodicMetricsExporter::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void PeriodicMetricsExporter::ExportOnce() {
  Status written = ExportMetricsFiles(registry_, stats_path_, trace_path_);
  if (!written.ok()) {
    GlobalLogger().Log(LogLevel::kWarn, "cli.metrics_export",
                       "periodic metrics export failed",
                       {LogField("error", written.ToString())});
  }
}

void PeriodicMetricsExporter::Run() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stopping_) {
    cv_.wait_for(lock, interval_, [this] { return stopping_; });
    if (stopping_) break;
    lock.unlock();
    ExportOnce();
    lock.lock();
  }
  lock.unlock();
  // Final snapshot on the way out so Stop()'s documented contract — the
  // files reflect end-of-run state after the join — holds for every
  // caller, not just those that re-export afterwards.
  ExportOnce();
}

}  // namespace mvrob
