#include "span_trace.h"

#include <algorithm>
#include <utility>

namespace perfbench {

int SpanTrace::Open(std::string name) {
  const int64_t now = NowNs();
  const int parent = open_.empty() ? -1 : open_.back();
  const int id = Add(std::move(name), now, now, parent, 0, 1);
  open_.push_back(id);
  return id;
}

void SpanTrace::Close(int id) {
  spans_[id].end_ns = NowNs();
  open_.pop_back();
}

int SpanTrace::Add(std::string name, int64_t start_ns, int64_t end_ns,
                   int parent, uint32_t thread, uint64_t count) {
  spans_.push_back(
      Span{std::move(name), start_ns, end_ns, parent, thread, count});
  return static_cast<int>(spans_.size()) - 1;
}

std::map<std::string, double> SpanTrace::SelfSecondsByName(int root) const {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans_.size());
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[span.parent].emplace_back(span.start_ns, span.end_ns);
    }
  }
  // A parent is always recorded before its children.
  std::vector<bool> below(spans_.size(), false);
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    below[i] = static_cast<int>(i) == root ||
               (span.parent >= 0 && below[span.parent]);
    if (!below[i]) continue;
    // Length of the union of child intervals, clipped to the span.
    std::vector<std::pair<int64_t, int64_t>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t reach = span.start_ns;
    for (auto [start, end] : kids) {
      start = std::max(start, reach);
      end = std::min(end, span.end_ns);
      if (end > start) {
        covered += end - start;
        reach = end;
      }
    }
    self[span.name] += 1e-9 * static_cast<double>(span.end_ns - span.start_ns -
                                              covered);
  }
  return self;
}

std::string SpanTrace::ChromeJson() const {
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::string out = "{\"traceEvents\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (i > 0) out += ",";
    out += "\n{\"name\":\"" + span.name +
           "\",\"ph\":\"X\",\"pid\":1,\"tid\":" + std::to_string(span.thread) +
           ",\"ts\":" + std::to_string((span.start_ns - origin) / 1000.0) +
           ",\"dur\":" +
           std::to_string((span.end_ns - span.start_ns) / 1000.0) +
           ",\"args\":{\"id\":" + std::to_string(i) +
           ",\"parent\":" + std::to_string(span.parent) +
           ",\"count\":" + std::to_string(span.count) + "}}";
  }
  out += "\n]}\n";
  return out;
}

}  // namespace perfbench
