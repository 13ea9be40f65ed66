#include "common/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/json.h"
#include "common/string_util.h"

namespace mvrob {

size_t Histogram::BucketIndex(uint64_t value) {
  if (value == 0) return 0;
  // Values in [2^(i-1), 2^i - 1] have bit_width i and land in bucket i;
  // the last bucket absorbs the tail.
  return std::min<size_t>(std::bit_width(value), kNumBuckets - 1);
}

void Histogram::Observe(uint64_t value) {
  buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  uint64_t seen = max_.load(std::memory_order_relaxed);
  while (value > seen &&
         !max_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

uint64_t Histogram::QuantileFromBuckets(
    const uint64_t (&buckets)[kNumBuckets], uint64_t count,
    uint64_t max_value, double q) {
  if (count == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target observation (1-based ceiling, so q=0.5 over 2
  // observations picks the first).
  uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(q * static_cast<double>(count))));
  uint64_t seen = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    uint64_t in_bucket = buckets[i];
    if (in_bucket == 0) continue;
    if (seen + in_bucket < rank) {
      seen += in_bucket;
      continue;
    }
    if (i == 0) return 0;
    // Interpolate the rank within [lower, upper] of this bucket, assuming
    // the bucket's observations are uniform over its range.
    uint64_t lower = BucketLowerBound(i);
    uint64_t upper = (uint64_t{1} << i) - 1;
    if (max_value != 0) upper = std::min(upper, max_value);
    if (upper <= lower) return lower;
    double within = static_cast<double>(rank - seen) /
                    static_cast<double>(in_bucket);
    return lower + static_cast<uint64_t>(
                       within * static_cast<double>(upper - lower));
  }
  return max_value;
}

uint64_t Histogram::Quantile(double q) const {
  uint64_t buckets[kNumBuckets];
  for (size_t i = 0; i < kNumBuckets; ++i) buckets[i] = bucket(i);
  return QuantileFromBuckets(buckets, count(), max(), q);
}

WindowedCounter::WindowedCounter(uint32_t window_seconds)
    : window_(std::max<uint32_t>(1, window_seconds)),
      epoch_(std::chrono::steady_clock::now()),
      slot_count_(window_, 0),
      slot_sec_(window_, -1) {}

int64_t WindowedCounter::SlotSecond(
    std::chrono::steady_clock::time_point now) const {
  auto elapsed = now - epoch_;
  if (elapsed.count() < 0) return 0;
  return std::chrono::duration_cast<std::chrono::seconds>(elapsed).count();
}

void WindowedCounter::Add(uint64_t delta,
                          std::chrono::steady_clock::time_point now) {
  const int64_t sec = SlotSecond(now);
  const size_t idx = static_cast<size_t>(sec) % window_;
  std::lock_guard<std::mutex> lock(mu_);
  if (slot_sec_[idx] != sec) {
    slot_sec_[idx] = sec;
    slot_count_[idx] = 0;
  }
  slot_count_[idx] += delta;
  total_ += delta;
}

uint64_t WindowedCounter::total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

uint64_t WindowedCounter::WindowTotal(
    std::chrono::steady_clock::time_point now) const {
  const int64_t sec = SlotSecond(now);
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t sum = 0;
  for (size_t i = 0; i < window_; ++i) {
    if (slot_sec_[i] < 0) continue;
    if (slot_sec_[i] > sec || slot_sec_[i] <= sec - window_) continue;
    sum += slot_count_[i];
  }
  return sum;
}

double WindowedCounter::RatePerSecond(
    std::chrono::steady_clock::time_point now) const {
  const double effective = std::min<double>(
      window_, static_cast<double>(SlotSecond(now)) + 1.0);
  return static_cast<double>(WindowTotal(now)) / effective;
}

WindowedHistogram::WindowedHistogram(uint32_t window_seconds)
    : window_(std::max<uint32_t>(1, window_seconds)),
      epoch_(std::chrono::steady_clock::now()),
      slots_(window_) {}

int64_t WindowedHistogram::SlotSecond(
    std::chrono::steady_clock::time_point now) const {
  auto elapsed = now - epoch_;
  if (elapsed.count() < 0) return 0;
  return std::chrono::duration_cast<std::chrono::seconds>(elapsed).count();
}

void WindowedHistogram::Observe(uint64_t value,
                                std::chrono::steady_clock::time_point now) {
  const int64_t sec = SlotSecond(now);
  const size_t idx = static_cast<size_t>(sec) % window_;
  std::lock_guard<std::mutex> lock(mu_);
  Slot& slot = slots_[idx];
  if (slot.sec != sec) {
    slot = Slot{};
    slot.sec = sec;
  }
  slot.buckets[Histogram::BucketIndex(value)] += 1;
  slot.count += 1;
  slot.sum += value;
  slot.max = std::max(slot.max, value);
  total_count_ += 1;
  total_sum_ += value;
}

uint64_t WindowedHistogram::total_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_count_;
}

uint64_t WindowedHistogram::total_sum() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_sum_;
}

WindowedHistogramStats WindowedHistogram::WindowStats(
    std::chrono::steady_clock::time_point now) const {
  const int64_t sec = SlotSecond(now);
  uint64_t merged[Histogram::kNumBuckets] = {};
  WindowedHistogramStats stats;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Slot& slot : slots_) {
      if (slot.sec < 0) continue;
      if (slot.sec > sec || slot.sec <= sec - window_) continue;
      for (size_t b = 0; b < Histogram::kNumBuckets; ++b) {
        merged[b] += slot.buckets[b];
      }
      stats.count += slot.count;
      stats.sum += slot.sum;
      stats.max = std::max(stats.max, slot.max);
    }
  }
  stats.p50 =
      Histogram::QuantileFromBuckets(merged, stats.count, stats.max, 0.50);
  stats.p95 =
      Histogram::QuantileFromBuckets(merged, stats.count, stats.max, 0.95);
  stats.p99 =
      Histogram::QuantileFromBuckets(merged, stats.count, stats.max, 0.99);
  return stats;
}

MetricsRegistry::MetricsRegistry() : epoch_(std::chrono::steady_clock::now()) {}

namespace {

template <typename Map>
auto& FindOrCreate(std::mutex& mu, Map& map, std::string_view name) {
  std::lock_guard<std::mutex> lock(mu);
  auto it = map.find(std::string(name));
  if (it == map.end()) {
    it = map.emplace(std::string(name),
                     std::make_unique<typename Map::mapped_type::element_type>())
             .first;
  }
  return *it->second;
}

}  // namespace

Counter& MetricsRegistry::counter(std::string_view name) {
  return FindOrCreate(mu_, counters_, name);
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  return FindOrCreate(mu_, gauges_, name);
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  return FindOrCreate(mu_, histograms_, name);
}

WindowedCounter& MetricsRegistry::windowed_counter(std::string_view name,
                                                   uint32_t window_seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = windowed_counters_.find(std::string(name));
  if (it == windowed_counters_.end()) {
    it = windowed_counters_
             .emplace(std::string(name),
                      std::make_unique<WindowedCounter>(window_seconds))
             .first;
  }
  return *it->second;
}

WindowedHistogram& MetricsRegistry::windowed_histogram(
    std::string_view name, uint32_t window_seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = windowed_histograms_.find(std::string(name));
  if (it == windowed_histograms_.end()) {
    it = windowed_histograms_
             .emplace(std::string(name),
                      std::make_unique<WindowedHistogram>(window_seconds))
             .first;
  }
  return *it->second;
}

MetricsSnapshot MetricsRegistry::Snapshot(
    std::chrono::steady_clock::time_point now) const {
  MetricsSnapshot snapshot;
  std::lock_guard<std::mutex> lock(mu_);
  snapshot.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snapshot.counters.emplace_back(name, counter->value());
  }
  snapshot.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges.emplace_back(name, gauge->value());
  }
  snapshot.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    MetricsSnapshot::HistogramState state;
    state.count = histogram->count();
    state.sum = histogram->sum();
    state.max = histogram->max();
    state.mean = histogram->Mean();
    state.p50 = histogram->Quantile(0.50);
    state.p95 = histogram->Quantile(0.95);
    state.p99 = histogram->Quantile(0.99);
    for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
      state.buckets[i] = histogram->bucket(i);
    }
    snapshot.histograms.emplace_back(name, state);
  }
  snapshot.windowed_counters.reserve(windowed_counters_.size());
  for (const auto& [name, counter] : windowed_counters_) {
    MetricsSnapshot::WindowedCounterState state;
    state.total = counter->total();
    state.window_total = counter->WindowTotal(now);
    state.rate_per_second = counter->RatePerSecond(now);
    state.window_seconds = counter->window_seconds();
    snapshot.windowed_counters.emplace_back(name, state);
  }
  snapshot.windowed_histograms.reserve(windowed_histograms_.size());
  for (const auto& [name, histogram] : windowed_histograms_) {
    MetricsSnapshot::WindowedHistogramState state;
    state.total_count = histogram->total_count();
    state.total_sum = histogram->total_sum();
    state.window_seconds = histogram->window_seconds();
    state.window = histogram->WindowStats(now);
    snapshot.windowed_histograms.emplace_back(name, state);
  }
  return snapshot;
}

void MetricsRegistry::RecordSpan(std::string_view name,
                                 std::chrono::steady_clock::time_point begin,
                                 std::chrono::steady_clock::time_point end) {
  using std::chrono::duration_cast;
  using std::chrono::microseconds;
  if (end < begin) end = begin;
  TraceEvent event;
  event.name.assign(name);
  event.tid = CurrentThreadId();
  event.start_us = static_cast<uint64_t>(
      duration_cast<microseconds>(begin - epoch_).count());
  event.dur_us =
      static_cast<uint64_t>(duration_cast<microseconds>(end - begin).count());
  histogram(StrCat("phase.", name, "_us")).Observe(event.dur_us);
  std::lock_guard<std::mutex> lock(trace_mu_);
  events_.push_back(std::move(event));
}

std::string MetricsRegistry::SnapshotJson() const {
  const MetricsSnapshot snapshot = Snapshot();
  JsonWriter json;
  json.BeginObject();
  json.Key("version");
  json.Uint(1);
  json.Key("counters");
  json.BeginObject();
  for (const auto& [name, value] : snapshot.counters) {
    json.Key(name);
    json.Uint(value);
  }
  json.EndObject();
  json.Key("gauges");
  json.BeginObject();
  for (const auto& [name, value] : snapshot.gauges) {
    json.Key(name);
    json.Int(value);
  }
  json.EndObject();
  json.Key("histograms");
  json.BeginObject();
  for (const auto& [name, state] : snapshot.histograms) {
    json.Key(name);
    json.BeginObject();
    json.Key("count");
    json.Uint(state.count);
    json.Key("sum");
    json.Uint(state.sum);
    json.Key("max");
    json.Uint(state.max);
    json.Key("mean");
    json.Double(state.mean);
    json.Key("p50");
    json.Uint(state.p50);
    json.Key("p95");
    json.Uint(state.p95);
    json.Key("p99");
    json.Uint(state.p99);
    // Sparse [bucket_lower_bound, count] pairs; empty buckets omitted.
    json.Key("buckets");
    json.BeginArray();
    for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
      uint64_t count = state.buckets[i];
      if (count == 0) continue;
      json.BeginArray();
      json.Uint(Histogram::BucketLowerBound(i));
      json.Uint(count);
      json.EndArray();
    }
    json.EndArray();
    json.EndObject();
  }
  json.EndObject();
  json.Key("windowed_counters");
  json.BeginObject();
  for (const auto& [name, state] : snapshot.windowed_counters) {
    json.Key(name);
    json.BeginObject();
    json.Key("total");
    json.Uint(state.total);
    json.Key("window_total");
    json.Uint(state.window_total);
    json.Key("rate_per_second");
    json.Double(state.rate_per_second);
    json.Key("window_seconds");
    json.Uint(state.window_seconds);
    json.EndObject();
  }
  json.EndObject();
  json.Key("windowed_histograms");
  json.BeginObject();
  for (const auto& [name, state] : snapshot.windowed_histograms) {
    json.Key(name);
    json.BeginObject();
    json.Key("total_count");
    json.Uint(state.total_count);
    json.Key("total_sum");
    json.Uint(state.total_sum);
    json.Key("window_seconds");
    json.Uint(state.window_seconds);
    json.Key("count");
    json.Uint(state.window.count);
    json.Key("sum");
    json.Uint(state.window.sum);
    json.Key("max");
    json.Uint(state.window.max);
    json.Key("p50");
    json.Uint(state.window.p50);
    json.Key("p95");
    json.Uint(state.window.p95);
    json.Key("p99");
    json.Uint(state.window.p99);
    json.EndObject();
  }
  json.EndObject();
  json.EndObject();
  return json.str();
}

std::string MetricsRegistry::TraceJson(
    const std::function<void(JsonWriter&)>& more_events) const {
  std::vector<TraceEvent> events;
  {
    // Copied so that `more_events` runs without the span lock held.
    std::lock_guard<std::mutex> lock(trace_mu_);
    events = events_;
  }
  JsonWriter json;
  json.BeginObject();
  json.Key("displayTimeUnit");
  json.String("ms");
  json.Key("traceEvents");
  json.BeginArray();
  for (const TraceEvent& event : events) {
    json.BeginObject();
    json.Key("name");
    json.String(event.name);
    json.Key("cat");
    json.String("mvrob");
    json.Key("ph");
    json.String("X");
    json.Key("ts");
    json.Uint(event.start_us);
    json.Key("dur");
    json.Uint(event.dur_us);
    json.Key("pid");
    json.Uint(1);
    json.Key("tid");
    json.Uint(event.tid);
    json.EndObject();
  }
  if (more_events) more_events(json);
  json.EndArray();
  json.EndObject();
  return json.str();
}

uint32_t MetricsRegistry::CurrentThreadId() {
  static std::atomic<uint32_t> next_id{1};
  thread_local uint32_t id = next_id.fetch_add(1, std::memory_order_relaxed);
  return id;
}

}  // namespace mvrob
