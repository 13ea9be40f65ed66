#include "common/crash.h"

#include <execinfo.h>
#include <fcntl.h>
#include <signal.h>
#include <string.h>
#include <unistd.h>

#include <atomic>
#include <mutex>

#include "common/profiler.h"
#include "common/string_util.h"

namespace mvrob {
namespace {

// --- Structured-log ring (fed by Logger, drained by the handler) ----------

constexpr size_t kLogRingEntries = 32;
constexpr size_t kLogRingWidth = 240;

char g_log_ring[kLogRingEntries][kLogRingWidth];
std::atomic<uint64_t> g_log_ring_next{0};

// --- Handler state (all precomputed; the handler only reads) ---------------

std::atomic<bool> g_installed{false};
char g_crash_path[512] = {};
std::mutex g_install_mu;

constexpr int kFatalSignals[] = {SIGSEGV, SIGBUS, SIGABRT, SIGFPE, SIGILL};

const char* SignalName(int signo) {
  switch (signo) {
    case SIGSEGV:
      return "SIGSEGV";
    case SIGBUS:
      return "SIGBUS";
    case SIGABRT:
      return "SIGABRT";
    case SIGFPE:
      return "SIGFPE";
    case SIGILL:
      return "SIGILL";
  }
  return "SIG?";
}

// write(2)-only formatting helpers; all async-signal-safe.
void WriteStr(int fd, const char* s) {
  ssize_t ignored = write(fd, s, strlen(s));
  (void)ignored;
}

void WriteDec(int fd, uint64_t value) {
  char buf[24];
  size_t i = sizeof(buf);
  do {
    buf[--i] = static_cast<char>('0' + value % 10);
    value /= 10;
  } while (value != 0 && i > 0);
  ssize_t ignored = write(fd, buf + i, sizeof(buf) - i);
  (void)ignored;
}

void WriteHex(int fd, uint64_t value) {
  char buf[18];
  size_t i = sizeof(buf);
  do {
    const uint64_t digit = value & 0xF;
    buf[--i] = static_cast<char>(digit < 10 ? '0' + digit : 'a' + digit - 10);
    value >>= 4;
  } while (value != 0 && i > 2);
  buf[--i] = 'x';
  buf[--i] = '0';
  ssize_t ignored = write(fd, buf + i, sizeof(buf) - i);
  (void)ignored;
}

void FatalSignalHandler(int signo, siginfo_t* info, void* /*ucontext*/) {
  // SA_RESETHAND already restored the default disposition; nothing here
  // may allocate, lock, or call into the C++ runtime.
  const int fd =
      open(g_crash_path, O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd >= 0) {
    WriteStr(fd, "=== mvrob crash flight recorder ===\n");
    WriteStr(fd, "signal: ");
    WriteDec(fd, static_cast<uint64_t>(signo));
    WriteStr(fd, " (");
    WriteStr(fd, SignalName(signo));
    WriteStr(fd, ")\n");
    if (signo == SIGSEGV || signo == SIGBUS) {
      WriteStr(fd, "fault_addr: ");
      WriteHex(fd, reinterpret_cast<uint64_t>(info->si_addr));
      WriteStr(fd, "\n");
    }
    WriteStr(fd, "pid: ");
    WriteDec(fd, static_cast<uint64_t>(getpid()));
    WriteStr(fd, " tid: ");
    WriteDec(fd, static_cast<uint64_t>(gettid()));
    WriteStr(fd, "\n\n--- faulting stack ---\n");
    void* frames[64];
    const int n = backtrace(frames, 64);
    backtrace_symbols_fd(frames, n, fd);
    WriteStr(fd, "\n--- recent profiler samples ---\n");
    DumpRecentProfilerSamplesToFd(fd);
    WriteStr(fd, "\n--- recent log events ---\n");
    const uint64_t next = g_log_ring_next.load(std::memory_order_relaxed);
    const uint64_t first =
        next > kLogRingEntries ? next - kLogRingEntries : 0;
    for (uint64_t i = first; i < next; ++i) {
      char* line = g_log_ring[i % kLogRingEntries];
      line[kLogRingWidth - 1] = '\0';
      WriteStr(fd, line);
      WriteStr(fd, "\n");
    }
    WriteStr(fd, "=== end ===\n");
    close(fd);
  }
  raise(signo);
}

}  // namespace

Status InstallCrashRecorder(const CrashRecorderOptions& options) {
  std::lock_guard<std::mutex> lock(g_install_mu);
  std::string path = options.directory;
  if (!path.empty() && path.back() != '/') path.push_back('/');
  path += StrCat("mvrob.crash.", static_cast<uint64_t>(getpid()), ".txt");
  if (path.size() >= sizeof(g_crash_path)) {
    return Status::InvalidArgument(
        StrCat("crash file path too long: ", path));
  }
  strncpy(g_crash_path, path.c_str(), sizeof(g_crash_path) - 1);

  if (!g_installed.load(std::memory_order_relaxed)) {
    // Warm backtrace outside the handler (first call may allocate) and run
    // fatal handlers on an alternate stack so stack-overflow SIGSEGVs can
    // still be reported. A stack the thread already has (ASan installs
    // one per thread, and unmaps it when the thread exits) is kept.
    void* warm[8];
    backtrace(warm, 8);
    stack_t current;
    if (sigaltstack(nullptr, &current) == 0 &&
        (current.ss_flags & SS_DISABLE) != 0) {
      // Fixed size: SIGSTKSZ is no longer a compile-time constant on
      // modern glibc.
      static char alt_stack[64 * 1024];
      stack_t ss;
      memset(&ss, 0, sizeof(ss));
      ss.ss_sp = alt_stack;
      ss.ss_size = sizeof(alt_stack);
      sigaltstack(&ss, nullptr);
    }

    struct sigaction action;
    memset(&action, 0, sizeof(action));
    action.sa_sigaction = &FatalSignalHandler;
    action.sa_flags = SA_SIGINFO | SA_ONSTACK | SA_RESETHAND | SA_NODEFER;
    sigemptyset(&action.sa_mask);
    for (int signo : kFatalSignals) {
      if (sigaction(signo, &action, nullptr) != 0) {
        return Status::Internal(
            StrCat("sigaction failed for ", SignalName(signo)));
      }
    }
    g_installed.store(true, std::memory_order_release);
  }
  return Status::Ok();
}

bool CrashRecorderInstalled() {
  return g_installed.load(std::memory_order_acquire);
}

std::string CrashFilePath() {
  std::lock_guard<std::mutex> lock(g_install_mu);
  return g_crash_path;
}

void CrashLogRingAppend(std::string_view line) {
  const uint64_t slot =
      g_log_ring_next.fetch_add(1, std::memory_order_relaxed);
  char* dst = g_log_ring[slot % kLogRingEntries];
  const size_t n = line.size() < kLogRingWidth - 1 ? line.size()
                                                   : kLogRingWidth - 1;
  memcpy(dst, line.data(), n);
  dst[n] = '\0';
}

void CrashForTesting() {
  // Volatile so the null dereference survives optimization.
  volatile int* null_pointer = nullptr;
  *null_pointer = 42;
}

}  // namespace mvrob
