#ifndef MVROB_COMMON_METRICS_H_
#define MVROB_COMMON_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mvrob {

class JsonWriter;

/// A monotonically increasing event count. All mutators are lock-free and
/// safe to call from any thread.
class Counter {
 public:
  void Increment() { Add(1); }
  void Add(uint64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// A settable instantaneous value (queue depth, pool size).
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// A distribution with fixed log-spaced (power-of-two) buckets: bucket 0
/// holds the value 0, bucket i (i >= 1) holds values in
/// [2^(i-1), 2^i - 1], and the last bucket absorbs everything larger.
/// Observe is lock-free; readers see a consistent-enough snapshot for
/// reporting (buckets/count/sum are independently relaxed).
class Histogram {
 public:
  static constexpr size_t kNumBuckets = 44;

  void Observe(uint64_t value);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  double Mean() const {
    uint64_t n = count();
    return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
  }
  uint64_t bucket(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  /// Estimated q-quantile (q in [0, 1]) from the log-spaced buckets:
  /// linear interpolation within the bucket holding the target rank,
  /// clamped to the observed max. Exact for 0/1-valued data; within a 2x
  /// factor otherwise (bucket resolution). 0 when empty.
  uint64_t Quantile(double q) const;

  /// The same estimator over an externally assembled bucket array (used by
  /// the windowed histograms, which merge per-second slots first).
  static uint64_t QuantileFromBuckets(const uint64_t (&buckets)[kNumBuckets],
                                      uint64_t count, uint64_t max_value,
                                      double q);

  /// Smallest value that lands in bucket `i` (0, 1, 2, 4, 8, ...).
  static uint64_t BucketLowerBound(size_t i) {
    return i == 0 ? 0 : uint64_t{1} << (i - 1);
  }
  static size_t BucketIndex(uint64_t value);

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
};

/// A counter that additionally tracks its recent activity in per-second
/// slots over a fixed trailing window, so a long-running process can
/// report *current* throughput next to the lifetime total. All methods are
/// thread-safe (one mutex; this is an aggregate instrument, not a
/// per-iteration hot-path counter).
///
/// Every mutator/reader takes an explicit steady_clock time point so tests
/// can drive a deterministic fake clock; the no-argument overloads read
/// the real clock.
class WindowedCounter {
 public:
  explicit WindowedCounter(uint32_t window_seconds = 60);

  void Increment() { Add(1); }
  void Add(uint64_t delta) { Add(delta, std::chrono::steady_clock::now()); }
  void Add(uint64_t delta, std::chrono::steady_clock::time_point now);

  uint64_t total() const;
  uint32_t window_seconds() const { return window_; }

  /// Sum of events in the trailing window ending at `now`.
  uint64_t WindowTotal(std::chrono::steady_clock::time_point now) const;

  /// WindowTotal divided by the window length — or by the instrument's
  /// age while it is younger than one window, so early rates are not
  /// diluted by empty future slots.
  double RatePerSecond(std::chrono::steady_clock::time_point now) const;

 private:
  int64_t SlotSecond(std::chrono::steady_clock::time_point now) const;

  const uint32_t window_;
  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<uint64_t> slot_count_;  // window_ per-second slots.
  std::vector<int64_t> slot_sec_;     // Second owning each slot; -1 empty.
  uint64_t total_ = 0;
};

/// Point-in-time summary of a WindowedHistogram's trailing window.
struct WindowedHistogramStats {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t max = 0;
  uint64_t p50 = 0;
  uint64_t p95 = 0;
  uint64_t p99 = 0;
};

/// A time-decaying distribution: observations land in per-second slots
/// (each a compact log-bucketed histogram) and anything older than the
/// window falls out of the reported quantiles. Thread-safe via one mutex;
/// the explicit-time overloads support deterministic fake-clock tests.
class WindowedHistogram {
 public:
  explicit WindowedHistogram(uint32_t window_seconds = 60);

  void Observe(uint64_t value) {
    Observe(value, std::chrono::steady_clock::now());
  }
  void Observe(uint64_t value, std::chrono::steady_clock::time_point now);

  uint64_t total_count() const;
  /// Lifetime sum of all observed values (not just the trailing window);
  /// with total_count this backs the monotonic Prometheus _sum/_count
  /// companions that make PromQL rate()/mean queries possible.
  uint64_t total_sum() const;
  uint32_t window_seconds() const { return window_; }

  /// Merges the live slots and computes count/sum/max plus p50/p95/p99
  /// over the trailing window ending at `now`.
  WindowedHistogramStats WindowStats(
      std::chrono::steady_clock::time_point now) const;

 private:
  struct Slot {
    int64_t sec = -1;  // Second owning this slot; -1 empty.
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t max = 0;
    uint64_t buckets[Histogram::kNumBuckets] = {};
  };

  int64_t SlotSecond(std::chrono::steady_clock::time_point now) const;

  const uint32_t window_;
  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Slot> slots_;  // window_ per-second slots.
  uint64_t total_count_ = 0;
  uint64_t total_sum_ = 0;
};

/// One completed span for the Chrome trace_event export: a named interval
/// on one thread, microseconds relative to the registry's creation.
struct TraceEvent {
  std::string name;
  uint32_t tid = 0;
  uint64_t start_us = 0;
  uint64_t dur_us = 0;
};

/// Copies of every metric's state at one instant, in registry (map)
/// order. Produced by MetricsRegistry::Snapshot and consumed by both the
/// JSON exporter and the Prometheus text renderer (common/prom.h).
struct MetricsSnapshot {
  struct HistogramState {
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t max = 0;
    double mean = 0;
    uint64_t p50 = 0;
    uint64_t p95 = 0;
    uint64_t p99 = 0;
    uint64_t buckets[Histogram::kNumBuckets] = {};
  };
  struct WindowedCounterState {
    uint64_t total = 0;
    uint64_t window_total = 0;
    double rate_per_second = 0;
    uint32_t window_seconds = 0;
  };
  struct WindowedHistogramState {
    uint64_t total_count = 0;
    uint64_t total_sum = 0;
    uint32_t window_seconds = 0;
    WindowedHistogramStats window;
  };

  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, int64_t>> gauges;
  std::vector<std::pair<std::string, HistogramState>> histograms;
  std::vector<std::pair<std::string, WindowedCounterState>> windowed_counters;
  std::vector<std::pair<std::string, WindowedHistogramState>>
      windowed_histograms;
};

/// A lightweight, thread-safe metrics registry: named counters, gauges,
/// and histograms plus a span log for trace export. Instrumented code
/// holds a nullable `MetricsRegistry*` — a null pointer disables the
/// instrumentation site entirely (the differential tests assert that
/// enabling metrics never changes analysis results, and the benchmarks
/// that the disabled path costs nothing measurable).
///
/// Usage pattern for hot paths: resolve the metric once (`counter(name)`
/// returns a stable reference), accumulate locally, publish once per unit
/// of work. Name lookups take a mutex; metric mutations are lock-free.
///
/// Export formats:
///  - SnapshotJson(): flat JSON ({"version":1,"counters":{...},
///    "gauges":{...},"histograms":{...}}) for --stats-json;
///  - TraceJson(): a Chrome trace_event object ({"traceEvents":[...]})
///    loadable in chrome://tracing and Perfetto, for --trace-out.
class MetricsRegistry {
 public:
  MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Named metric accessors; created on first use, addresses stable for
  /// the registry's lifetime. Thread-safe.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Sliding-window instruments (serve mode / live telemetry). The first
  /// caller fixes the window length; later calls return the existing
  /// instrument regardless of `window_seconds`.
  WindowedCounter& windowed_counter(std::string_view name,
                                    uint32_t window_seconds = 60);
  WindowedHistogram& windowed_histogram(std::string_view name,
                                        uint32_t window_seconds = 60);

  /// Copies every metric's current state; windowed instruments are
  /// evaluated at `now` (injectable for deterministic tests).
  MetricsSnapshot Snapshot(std::chrono::steady_clock::time_point now =
                               std::chrono::steady_clock::now()) const;

  /// Records a completed span (trace event + a "phase.<name>_us"
  /// histogram observation). Thread-safe.
  void RecordSpan(std::string_view name,
                  std::chrono::steady_clock::time_point begin,
                  std::chrono::steady_clock::time_point end);

  std::string SnapshotJson() const;
  /// The Chrome trace of the recorded spans. A non-empty `more_events`
  /// appends events from another source (e.g. the txn tracer's sampled
  /// attempt spans) into the open traceEvents array after them.
  std::string TraceJson(
      const std::function<void(JsonWriter&)>& more_events = {}) const;

  /// A small dense id for the calling thread (1, 2, ...), used as the
  /// trace `tid` and for per-thread work accounting.
  static uint32_t CurrentThreadId();

 private:
  const std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex mu_;  // Guards the metric maps (not the metrics).
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::unique_ptr<WindowedCounter>> windowed_counters_;
  std::map<std::string, std::unique_ptr<WindowedHistogram>>
      windowed_histograms_;

  mutable std::mutex trace_mu_;  // Guards events_.
  std::vector<TraceEvent> events_;
};

/// RAII phase timer: times a scope and records it as a span on the
/// registry. A null registry makes construction and destruction no-ops
/// (no clock read, no allocation).
class PhaseTimer {
 public:
  PhaseTimer(MetricsRegistry* registry, std::string_view name)
      : registry_(registry) {
    if (registry_ == nullptr) return;
    name_.assign(name);
    start_ = std::chrono::steady_clock::now();
  }
  ~PhaseTimer() {
    if (registry_ == nullptr) return;
    registry_->RecordSpan(name_, start_, std::chrono::steady_clock::now());
  }
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  MetricsRegistry* registry_;
  std::string name_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace mvrob

#endif  // MVROB_COMMON_METRICS_H_
