#include "common/profiler.h"

#include <cxxabi.h>
#include <dlfcn.h>
#include <execinfo.h>
#include <pthread.h>
#include <signal.h>
#include <string.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "common/log.h"
#include "common/metrics.h"
#include "common/string_util.h"

namespace mvrob {
namespace {

// ---------------------------------------------------------------------------
// Registry + per-thread sample rings.
//
// Fixed-size everything: the SIGPROF handler may only touch memory that
// exists for the whole process lifetime and may not allocate, so entries,
// rings and the remote-capture slot are static arrays addressed through a
// thread_local pointer.
// ---------------------------------------------------------------------------

constexpr size_t kMaxThreads = 128;
constexpr size_t kMaxFrames = 24;
constexpr size_t kRingSize = 256;  // Power of two; ~2.6s of 97hz samples.
constexpr size_t kCaptureFrames = 64;

struct Sample {
  uint32_t n = 0;
  void* pc[kMaxFrames] = {};
};

struct ThreadEntry {
  std::atomic<bool> in_use{false};
  pid_t tid = 0;
  pthread_t handle{};
  char role[64] = {};
  // Profiler internals opt out of their own timer; set at registration.
  bool sampleable = false;
  // SPSC ring: the owning thread's signal handler produces, the collector
  // (or the owning thread's scope destructor) consumes.
  std::atomic<uint32_t> head{0};
  std::atomic<uint32_t> tail{0};
  std::atomic<uint64_t> drops{0};
  Sample ring[kRingSize];
  timer_t timer{};
  bool timer_armed = false;
};

// Constant-initialized to all zeros, so the table (about 6.4 MB) lives in
// .bss: no static initializer writes it, and a process that never
// registers a thread never touches its pages.
constinit ThreadEntry g_entries[kMaxThreads];
// Guards slot claim/release, role strings and timer arm/disarm.
std::mutex g_registry_mu;
thread_local ThreadEntry* tl_entry = nullptr;

// True while a Profiler session is sampling; read (relaxed) in the handler.
std::atomic<bool> g_sampling{false};

// Remote stack capture: one request at a time, guarded by g_capture_mu on
// the requester side. The handler on the target thread fills frames and
// flips done.
std::mutex g_capture_mu;
std::atomic<pid_t> g_capture_target{0};
std::atomic<bool> g_capture_done{false};
std::atomic<int> g_capture_n{0};
void* g_capture_frames[kCaptureFrames];

// Aggregate of drained samples: raw stacks keyed by (role, pcs) so the
// signal path never symbolizes. Guarded by g_agg_mu.
struct RawKey {
  std::string role;
  std::vector<void*> pcs;
  bool operator<(const RawKey& other) const {
    if (role != other.role) return role < other.role;
    return pcs < other.pcs;
  }
};
std::mutex g_agg_mu;
std::map<RawKey, uint64_t>& Aggregate() {
  static auto* agg = new std::map<RawKey, uint64_t>();
  return *agg;
}
std::atomic<uint64_t> g_samples_total{0};
std::atomic<uint64_t> g_drops_total{0};

void SigprofHandler(int /*signo*/, siginfo_t* /*info*/, void* /*ucontext*/) {
  const int saved_errno = errno;
  ThreadEntry* entry = tl_entry;
  // Remote capture request addressed to this thread takes precedence over
  // (and replaces) a sampling hit.
  if (entry != nullptr &&
      g_capture_target.load(std::memory_order_acquire) == entry->tid) {
    int n = backtrace(g_capture_frames, static_cast<int>(kCaptureFrames));
    g_capture_n.store(n > 0 ? n : 0, std::memory_order_release);
    g_capture_target.store(0, std::memory_order_release);
    g_capture_done.store(true, std::memory_order_release);
    errno = saved_errno;
    return;
  }
  if (entry == nullptr || !g_sampling.load(std::memory_order_relaxed)) {
    errno = saved_errno;
    return;
  }
  const uint32_t head = entry->head.load(std::memory_order_relaxed);
  const uint32_t tail = entry->tail.load(std::memory_order_acquire);
  if (head - tail >= kRingSize) {
    entry->drops.fetch_add(1, std::memory_order_relaxed);
    errno = saved_errno;
    return;
  }
  Sample& sample = entry->ring[head % kRingSize];
  int n = backtrace(sample.pc, static_cast<int>(kMaxFrames));
  sample.n = n > 0 ? static_cast<uint32_t>(n) : 0;
  entry->head.store(head + 1, std::memory_order_release);
  errno = saved_errno;
}

// One-time setup: warm backtrace (its first call may allocate / dlopen,
// which must not happen inside a signal handler) and install the SIGPROF
// handler. SA_RESTART keeps most blocking syscalls transparent; the HTTP
// poll loop additionally tolerates EINTR.
void EnsureProfilerInit() {
  static std::once_flag once;
  std::call_once(once, [] {
    void* warm[kMaxFrames];
    backtrace(warm, static_cast<int>(kMaxFrames));
    struct sigaction action;
    memset(&action, 0, sizeof(action));
    action.sa_sigaction = &SigprofHandler;
    action.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&action.sa_mask);
    sigaction(SIGPROF, &action, nullptr);
  });
}

// Arms a per-thread CPU-clock timer delivering SIGPROF to exactly that
// thread. Caller holds g_registry_mu. Best-effort: failure leaves the
// thread unprofiled but the process healthy.
void ArmTimerLocked(ThreadEntry& entry, int hz) {
  if (entry.timer_armed || !entry.sampleable) return;
  clockid_t clock;
  if (pthread_getcpuclockid(entry.handle, &clock) != 0) return;
  struct sigevent event;
  memset(&event, 0, sizeof(event));
  event.sigev_notify = SIGEV_THREAD_ID;
  event.sigev_signo = SIGPROF;
  event._sigev_un._tid = entry.tid;
  timer_t timer;
  if (timer_create(clock, &event, &timer) != 0) return;
  const long interval_ns = 1'000'000'000L / std::max(1, hz);
  struct itimerspec spec;
  spec.it_interval.tv_sec = interval_ns / 1'000'000'000L;
  spec.it_interval.tv_nsec = interval_ns % 1'000'000'000L;
  spec.it_value = spec.it_interval;
  if (timer_settime(timer, 0, &spec, nullptr) != 0) {
    timer_delete(timer);
    return;
  }
  entry.timer = timer;
  entry.timer_armed = true;
}

void DisarmTimerLocked(ThreadEntry& entry) {
  if (!entry.timer_armed) return;
  timer_delete(entry.timer);
  entry.timer_armed = false;
}

// Folds everything currently in an entry's ring into the aggregate.
// Consumer side of the SPSC ring; caller must be the sole consumer
// (collector thread, or the owning thread's destructor after disarming).
void DrainEntryRing(ThreadEntry& entry, const char* role) {
  const uint32_t head = entry.head.load(std::memory_order_acquire);
  uint32_t tail = entry.tail.load(std::memory_order_relaxed);
  if (tail == head) return;
  std::lock_guard<std::mutex> lock(g_agg_mu);
  auto& agg = Aggregate();
  for (; tail != head; ++tail) {
    const Sample& sample = entry.ring[tail % kRingSize];
    RawKey key;
    key.role = role;
    key.pcs.assign(sample.pc, sample.pc + sample.n);
    agg[key] += 1;
    g_samples_total.fetch_add(1, std::memory_order_relaxed);
  }
  entry.tail.store(tail, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// Symbolization (never on the signal path).
// ---------------------------------------------------------------------------

std::mutex g_sym_mu;
std::unordered_map<void*, std::string>& SymbolCache() {
  static auto* cache = new std::unordered_map<void*, std::string>();
  return *cache;
}

std::string Demangle(const char* name) {
  int status = 0;
  char* demangled = abi::__cxa_demangle(name, nullptr, nullptr, &status);
  if (status != 0 || demangled == nullptr) {
    free(demangled);
    return name;
  }
  std::string result(demangled);
  free(demangled);
  // Folded-stack keys want the function, not its argument list.
  size_t paren = result.find('(');
  if (paren != std::string::npos && paren > 0) result.resize(paren);
  return result;
}

std::string SymbolizeFrameUncached(void* pc) {
  Dl_info info;
  if (dladdr(pc, &info) != 0 && info.dli_sname != nullptr) {
    return Demangle(info.dli_sname);
  }
  char buf[64];
  if (dladdr(pc, &info) != 0 && info.dli_fname != nullptr) {
    const char* base = strrchr(info.dli_fname, '/');
    base = base != nullptr ? base + 1 : info.dli_fname;
    snprintf(buf, sizeof(buf), "%.32s+0x%zx", base,
             reinterpret_cast<size_t>(pc) -
                 reinterpret_cast<size_t>(info.dli_fbase));
    return buf;
  }
  snprintf(buf, sizeof(buf), "0x%zx", reinterpret_cast<size_t>(pc));
  return buf;
}

// Drops the profiler's own frames (handler + signal trampoline + backtrace
// plumbing) from the innermost end of a captured stack. The handler has
// internal linkage, so dladdr cannot name it — recognize its frame by
// address range instead (the return address of the backtrace(3) call sits
// a few hundred bytes into the function) and drop the signal trampoline
// sitting right above it. Name matching stays as a fallback for stacks
// captured through other paths.
size_t SignalFramesToTrim(const std::vector<void*>& frames) {
  const size_t probe = std::min<size_t>(frames.size(), 5);
  const char* handler = reinterpret_cast<const char*>(&SigprofHandler);
  for (size_t i = 0; i < probe; ++i) {
    const char* pc = reinterpret_cast<const char*>(frames[i]);
    if (pc >= handler && pc < handler + 1024) {
      return std::min(i + 2, frames.size());
    }
    const std::string sym = SymbolizeFrame(frames[i]);
    if (sym.find("restore_rt") != std::string::npos ||
        sym.find("SigprofHandler") != std::string::npos ||
        sym.find("killpg") != std::string::npos) {
      return i + 1;
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Collector.
// ---------------------------------------------------------------------------

struct Collector {
  std::thread thread;
  std::mutex mu;
  std::condition_variable cv;
  bool stop = false;
  MetricsRegistry* metrics = nullptr;
  uint64_t published_samples = 0;
  uint64_t published_drops = 0;
};
Collector* g_collector = nullptr;  // Guarded by g_registry_mu for start/stop.

uint64_t RingDropsTotal() {
  uint64_t drops = g_drops_total.load(std::memory_order_relaxed);
  for (ThreadEntry& entry : g_entries) {
    if (entry.in_use.load(std::memory_order_acquire)) {
      drops += entry.drops.load(std::memory_order_relaxed);
    }
  }
  return drops;
}

void DrainAllRings() {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  for (ThreadEntry& entry : g_entries) {
    if (entry.in_use.load(std::memory_order_acquire)) {
      DrainEntryRing(entry, entry.role);
    }
  }
}

// Sanitizes a symbol for use as a Prometheus label value embedded in the
// registry's "name{label=value}" convention: the renderer splits on commas
// and braces, so those (and quotes/spaces) must not appear.
std::string PromSafeSymbol(std::string_view symbol) {
  std::string out;
  out.reserve(std::min<size_t>(symbol.size(), 80));
  for (char c : symbol) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':' ||
                    c == '.';
    out.push_back(ok ? c : '_');
    if (out.size() >= 80) break;
  }
  return out;
}

void PublishMetrics(Collector& collector) {
  MetricsRegistry* metrics = collector.metrics;
  if (metrics == nullptr) return;
  const uint64_t samples = g_samples_total.load(std::memory_order_relaxed);
  const uint64_t drops = RingDropsTotal();
  if (samples > collector.published_samples) {
    metrics->counter("profile.samples")
        .Add(samples - collector.published_samples);
    collector.published_samples = samples;
  }
  if (drops > collector.published_drops) {
    metrics->counter("profile.drops").Add(drops - collector.published_drops);
    collector.published_drops = drops;
  }
  size_t threads = 0;
  {
    std::lock_guard<std::mutex> lock(g_registry_mu);
    for (ThreadEntry& entry : g_entries) {
      if (entry.in_use.load(std::memory_order_relaxed)) ++threads;
    }
  }
  metrics->gauge("profile.threads").Set(static_cast<int64_t>(threads));

  // Top leaf symbols by self time, as permille of all samples.
  std::unordered_map<std::string, uint64_t> self;
  uint64_t total = 0;
  {
    std::lock_guard<std::mutex> lock(g_agg_mu);
    for (const auto& [key, count] : Aggregate()) {
      if (key.pcs.empty()) continue;
      const size_t trim = SignalFramesToTrim(key.pcs);
      if (trim >= key.pcs.size()) continue;
      self[SymbolizeFrame(key.pcs[trim])] += count;
      total += count;
    }
  }
  if (total == 0) return;
  std::vector<std::pair<std::string, uint64_t>> top(self.begin(), self.end());
  std::sort(top.begin(), top.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (top.size() > 8) top.resize(8);
  for (const auto& [symbol, count] : top) {
    metrics
        ->gauge(StrCat("profile.self_share_permille{symbol=",
                       PromSafeSymbol(symbol), "}"))
        .Set(static_cast<int64_t>(count * 1000 / total));
  }
}

void CollectorLoop(Collector* collector) {
  ProfiledThreadScope scope("profiler.collector");
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(collector->mu);
      collector->cv.wait_for(lock, std::chrono::milliseconds(100),
                             [&] { return collector->stop; });
      if (collector->stop) break;
    }
    DrainAllRings();
    PublishMetrics(*collector);
  }
  DrainAllRings();
  PublishMetrics(*collector);
}

int g_active_hz = 0;  // Guarded by g_registry_mu; 0 = not sampling.

}  // namespace

// ---------------------------------------------------------------------------
// ProfiledThreadScope.
// ---------------------------------------------------------------------------

ProfiledThreadScope::ProfiledThreadScope(std::string_view role) {
  EnsureProfilerInit();
  if (tl_entry != nullptr) {
    // Nested scope: relabel the existing registration for our lifetime.
    nested_ = true;
    std::lock_guard<std::mutex> lock(g_registry_mu);
    memcpy(saved_role_, tl_entry->role, sizeof(saved_role_));
    strncpy(tl_entry->role, std::string(role).c_str(),
            sizeof(tl_entry->role) - 1);
    tl_entry->role[sizeof(tl_entry->role) - 1] = '\0';
    return;
  }
  std::lock_guard<std::mutex> lock(g_registry_mu);
  for (ThreadEntry& entry : g_entries) {
    if (entry.in_use.load(std::memory_order_relaxed)) continue;
    entry.tid = gettid();
    entry.handle = pthread_self();
    strncpy(entry.role, std::string(role).c_str(), sizeof(entry.role) - 1);
    entry.role[sizeof(entry.role) - 1] = '\0';
    entry.sampleable = role.rfind("profiler.", 0) != 0;
    entry.head.store(0, std::memory_order_relaxed);
    entry.tail.store(0, std::memory_order_relaxed);
    entry.drops.store(0, std::memory_order_relaxed);
    entry.timer_armed = false;
    entry.in_use.store(true, std::memory_order_release);
    entry_ = &entry;
    tl_entry = &entry;
    if (g_active_hz > 0) ArmTimerLocked(entry, g_active_hz);
    return;
  }
  // Registry full: thread stays unprofiled. Harmless, but worth a note.
  GlobalLogger().Log(LogLevel::kWarn, "profiler.registry",
                     "thread registry full; thread will not be profiled",
                     {{"role", std::string(role)}});
}

ProfiledThreadScope::~ProfiledThreadScope() {
  if (nested_) {
    std::lock_guard<std::mutex> lock(g_registry_mu);
    if (tl_entry != nullptr) {
      memcpy(tl_entry->role, saved_role_, sizeof(tl_entry->role));
      tl_entry->role[sizeof(tl_entry->role) - 1] = '\0';
    }
    return;
  }
  if (entry_ == nullptr) return;
  auto* entry = static_cast<ThreadEntry*>(entry_);
  {
    std::lock_guard<std::mutex> lock(g_registry_mu);
    DisarmTimerLocked(*entry);
  }
  // After disarming, no more signals hit this thread, so we can safely act
  // as the ring consumer and fold residual samples into the aggregate.
  tl_entry = nullptr;
  DrainEntryRing(*entry, entry->role);
  g_drops_total.fetch_add(entry->drops.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(g_registry_mu);
  entry->in_use.store(false, std::memory_order_release);
}

std::string CurrentThreadRole() {
  if (tl_entry == nullptr) return "?";
  std::lock_guard<std::mutex> lock(g_registry_mu);
  return tl_entry->role;
}

// ---------------------------------------------------------------------------
// Remote stack capture.
// ---------------------------------------------------------------------------

bool CaptureThreadStackByTid(pid_t tid, ThreadStack* out) {
  EnsureProfilerInit();
  pthread_t handle{};
  std::string role;
  {
    std::lock_guard<std::mutex> lock(g_registry_mu);
    bool found = false;
    for (ThreadEntry& entry : g_entries) {
      if (entry.in_use.load(std::memory_order_acquire) && entry.tid == tid) {
        handle = entry.handle;
        role = entry.role;
        found = true;
        break;
      }
    }
    if (!found) return false;
  }
  std::lock_guard<std::mutex> lock(g_capture_mu);
  if (tl_entry != nullptr && tl_entry->tid == tid) {
    // Self-capture needs no signal round trip.
    std::vector<void*> frames(kCaptureFrames);
    int n = backtrace(frames.data(), static_cast<int>(kCaptureFrames));
    frames.resize(n > 0 ? static_cast<size_t>(n) : 0);
    out->role = role;
    out->tid = tid;
    out->frames = std::move(frames);
    return true;
  }
  g_capture_done.store(false, std::memory_order_relaxed);
  g_capture_n.store(0, std::memory_order_relaxed);
  g_capture_target.store(tid, std::memory_order_release);
  if (pthread_kill(handle, SIGPROF) != 0) {
    g_capture_target.store(0, std::memory_order_release);
    return false;
  }
  for (int spin = 0; spin < 2000; ++spin) {
    if (g_capture_done.load(std::memory_order_acquire)) break;
    struct timespec ts = {0, 100'000};  // 100us.
    nanosleep(&ts, nullptr);
  }
  if (!g_capture_done.load(std::memory_order_acquire)) {
    g_capture_target.store(0, std::memory_order_release);
    return false;
  }
  const int n = g_capture_n.load(std::memory_order_acquire);
  out->role = role;
  out->tid = tid;
  out->frames.assign(g_capture_frames, g_capture_frames + n);
  const size_t trim = SignalFramesToTrim(out->frames);
  out->frames.erase(out->frames.begin(),
                    out->frames.begin() + static_cast<long>(trim));
  return true;
}

std::vector<ThreadStack> CaptureAllThreadStacks() {
  std::vector<pid_t> tids;
  {
    std::lock_guard<std::mutex> lock(g_registry_mu);
    for (ThreadEntry& entry : g_entries) {
      if (entry.in_use.load(std::memory_order_acquire)) {
        tids.push_back(entry.tid);
      }
    }
  }
  std::vector<ThreadStack> stacks;
  for (pid_t tid : tids) {
    ThreadStack stack;
    if (CaptureThreadStackByTid(tid, &stack)) stacks.push_back(std::move(stack));
  }
  return stacks;
}

std::string SymbolizeFrame(void* pc) {
  std::lock_guard<std::mutex> lock(g_sym_mu);
  auto& cache = SymbolCache();
  auto it = cache.find(pc);
  if (it != cache.end()) return it->second;
  std::string sym = SymbolizeFrameUncached(pc);
  cache.emplace(pc, sym);
  return sym;
}

std::string RenderThreadStacksText(const std::vector<ThreadStack>& stacks) {
  std::string out;
  for (const ThreadStack& stack : stacks) {
    out += StrCat("thread tid=", stack.tid, " role=", stack.role, "\n");
    size_t depth = 0;
    for (void* pc : stack.frames) {
      out += StrCat("  #", depth++, " ", SymbolizeFrame(pc), "\n");
    }
    if (stack.frames.empty()) out += "  <no frames>\n";
    out += "\n";
  }
  return out;
}

void DumpRecentProfilerSamplesToFd(int fd) {
  // Async-signal-safe: no locks, no allocation; relaxed atomic reads of
  // live rings plus write(2)/backtrace_symbols_fd only.
  auto write_str = [fd](const char* s) {
    ssize_t ignored = write(fd, s, strlen(s));
    (void)ignored;
  };
  for (ThreadEntry& entry : g_entries) {
    if (!entry.in_use.load(std::memory_order_relaxed)) continue;
    const uint32_t head = entry.head.load(std::memory_order_relaxed);
    const uint32_t tail = entry.tail.load(std::memory_order_relaxed);
    if (head == tail) continue;
    write_str("role=");
    write_str(entry.role);
    write_str("\n");
    const uint32_t available = head - tail;
    const uint32_t dump = available < 4 ? available : 4;
    for (uint32_t i = 0; i < dump; ++i) {
      const Sample& sample = entry.ring[(head - 1 - i) % kRingSize];
      const uint32_t n = sample.n <= kMaxFrames ? sample.n : kMaxFrames;
      write_str("sample:\n");
      backtrace_symbols_fd(const_cast<void**>(sample.pc), static_cast<int>(n),
                           fd);
    }
  }
}

std::string RenderStackFolded(const std::vector<void*>& frames) {
  std::string out;
  for (auto it = frames.rbegin(); it != frames.rend(); ++it) {
    if (!out.empty()) out.push_back(';');
    out.append(SymbolizeFrame(*it));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Profiler.
// ---------------------------------------------------------------------------

Status Profiler::Start(const ProfilerOptions& options) {
  if (options.hz < 1 || options.hz > 1000) {
    return Status::InvalidArgument(
        StrCat("profile hz out of range [1,1000]: ", options.hz));
  }
  EnsureProfilerInit();
  std::lock_guard<std::mutex> lock(g_registry_mu);
  if (g_active_hz > 0) {
    return Status::InvalidArgument("profiler already running");
  }
  {
    std::lock_guard<std::mutex> agg_lock(g_agg_mu);
    Aggregate().clear();
  }
  g_active_hz = options.hz;
  g_sampling.store(true, std::memory_order_release);
  for (ThreadEntry& entry : g_entries) {
    if (entry.in_use.load(std::memory_order_acquire)) {
      ArmTimerLocked(entry, options.hz);
    }
  }
  g_collector = new Collector();
  g_collector->metrics = options.metrics;
  g_collector->published_samples =
      g_samples_total.load(std::memory_order_relaxed);
  g_collector->published_drops = RingDropsTotal();
  g_collector->thread = std::thread(CollectorLoop, g_collector);
  return Status::Ok();
}

void Profiler::Stop() {
  Collector* collector = nullptr;
  {
    std::lock_guard<std::mutex> lock(g_registry_mu);
    if (g_active_hz == 0) return;
    g_active_hz = 0;
    g_sampling.store(false, std::memory_order_release);
    for (ThreadEntry& entry : g_entries) {
      if (entry.in_use.load(std::memory_order_acquire)) {
        DisarmTimerLocked(entry);
      }
    }
    collector = g_collector;
    g_collector = nullptr;
  }
  if (collector != nullptr) {
    {
      std::lock_guard<std::mutex> lock(collector->mu);
      collector->stop = true;
    }
    collector->cv.notify_all();
    collector->thread.join();
    delete collector;
  }
}

bool Profiler::active() {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  return g_active_hz > 0;
}

Profiler::Counts Profiler::CountsSnapshot() {
  DrainAllRings();
  Counts counts;
  std::lock_guard<std::mutex> lock(g_agg_mu);
  for (const auto& [key, count] : Aggregate()) {
    const size_t trim = SignalFramesToTrim(key.pcs);
    std::string folded = key.role;
    for (size_t i = key.pcs.size(); i > trim; --i) {
      folded.push_back(';');
      folded.append(SymbolizeFrame(key.pcs[i - 1]));
    }
    counts[folded] += count;
  }
  return counts;
}

Profiler::Counts Profiler::DiffCounts(const Counts& after,
                                      const Counts& before) {
  Counts diff;
  for (const auto& [key, count] : after) {
    auto it = before.find(key);
    const uint64_t base = it != before.end() ? it->second : 0;
    if (count > base) diff[key] = count - base;
  }
  return diff;
}

std::string Profiler::RenderFolded(const Counts& counts) {
  std::string out;
  for (const auto& [key, count] : counts) {
    out += StrCat(key, " ", count, "\n");
  }
  return out;
}

uint64_t Profiler::samples_total() {
  return g_samples_total.load(std::memory_order_relaxed);
}

uint64_t Profiler::drops_total() { return RingDropsTotal(); }

}  // namespace mvrob
