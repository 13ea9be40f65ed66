#ifndef PERFBENCH_SPAN_TRACE_H_
#define PERFBENCH_SPAN_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// In-memory span recorder for the traced run. A span is named
/// "<layer>.<call>"; the layer (the module the harness called into) is the
/// text before the first dot. Spans are only opened and closed from the
/// main thread; spans of the concurrent engine's workers and the
/// aggregated per-call engine timings are added after the fact with Add.
class SpanTrace {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;
    uint32_t thread = 0;
    /// Calls folded into this span (> 1 for aggregated engine calls).
    uint64_t count = 1;
  };

  /// Opens a span whose parent is the innermost open span; spans close in
  /// reverse order of opening.
  int Open(std::string name);
  void Close(int id);
  /// Records a completed span under `parent`.
  int Add(std::string name, int64_t start_ns, int64_t end_ns, int parent,
          uint32_t thread, uint64_t count);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time in seconds of `root` and every span below it, summed by
  /// span name: each span's duration minus the part of its interval that
  /// its child spans cover.
  std::map<std::string, double> SelfSecondsByName(int root) const;

  /// Chrome trace_event JSON ("X" events; parent and count in args).
  std::string ChromeJson() const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Opens a span for its lifetime; a no-op when `trace` is null.
class ScopedSpan {
 public:
  ScopedSpan(SpanTrace* trace, std::string name)
      : trace_(trace), id_(trace ? trace->Open(std::move(name)) : -1) {}
  ~ScopedSpan() {
    if (trace_ != nullptr) trace_->Close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  SpanTrace* trace_;
  int id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPAN_TRACE_H_
