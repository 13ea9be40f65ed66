#include "common/crash.h"

#include <dirent.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/log.h"
#include "common/profiler.h"

namespace mvrob {
namespace {

std::string MakeTempDir() {
  std::string tmpl = testing::TempDir() + "mvrob_crash_XXXXXX";
  char* dir = mkdtemp(tmpl.data());
  EXPECT_NE(dir, nullptr);
  return dir == nullptr ? std::string() : std::string(dir);
}

// The crash file the child wrote, "" if none.
std::string FindCrashFile(const std::string& dir) {
  DIR* handle = opendir(dir.c_str());
  if (handle == nullptr) return "";
  std::string found;
  while (struct dirent* entry = readdir(handle)) {
    const std::string name = entry->d_name;
    if (name.rfind("mvrob.crash.", 0) == 0) {
      found = dir + "/" + name;
      break;
    }
  }
  closedir(handle);
  return found;
}

std::string ReadFile(const std::string& path) {
  std::ifstream file(path);
  std::ostringstream text;
  text << file.rdbuf();
  return text.str();
}

// Defined first so that, when the whole binary runs in one process, the
// forked child still starts with the recorder uninstalled.
TEST(CrashTest, InstallKeepsTheThreadsOwnAlternateStack) {
  const std::string dir = MakeTempDir();
  ASSERT_FALSE(dir.empty());
  constexpr int kAlreadyInstalled = 80;
  for (const bool own_stack : {true, false}) {
    SCOPED_TRACE(own_stack ? "own stack" : "no stack");
    const pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
      // A thread-owned, mmap'd alternate stack, as the ASan runtime gives
      // each thread (and munmaps at thread exit); or none at all.
      if (CrashRecorderInstalled()) _exit(kAlreadyInstalled);
      constexpr size_t kSize = 64 * 1024;
      void* stack = mmap(nullptr, kSize, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (stack == MAP_FAILED) _exit(90);
      stack_t ss;
      memset(&ss, 0, sizeof(ss));
      ss.ss_sp = stack;
      ss.ss_size = kSize;
      if (!own_stack) ss.ss_flags = SS_DISABLE;
      if (sigaltstack(&ss, nullptr) != 0) _exit(91);
      if (!InstallCrashRecorder({.directory = dir}).ok()) _exit(92);
      stack_t now;
      if (sigaltstack(nullptr, &now) != 0) _exit(93);
      if (own_stack) _exit(now.ss_sp == stack ? 0 : 94);
      // Without one, the recorder installs its own.
      _exit((now.ss_flags & SS_DISABLE) == 0 ? 0 : 95);
    }
    int status = 0;
    ASSERT_EQ(waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFEXITED(status)) << "status " << status;
    if (WEXITSTATUS(status) == kAlreadyInstalled) {
      GTEST_SKIP() << "recorder already installed in this process";
    }
    EXPECT_EQ(WEXITSTATUS(status), 0);
  }
}

TEST(CrashTest, InstallPrecomputesThePath) {
  const std::string dir = MakeTempDir();
  ASSERT_FALSE(dir.empty());
  ASSERT_TRUE(InstallCrashRecorder({.directory = dir}).ok());
  EXPECT_TRUE(CrashRecorderInstalled());
  const std::string path = CrashFilePath();
  EXPECT_EQ(path.rfind(dir + "/mvrob.crash.", 0), 0u) << path;
  EXPECT_NE(path.find(std::to_string(getpid())), std::string::npos) << path;
}

TEST(CrashTest, RecorderWritesAPostmortemNamingTheFaultingFunction) {
  const std::string dir = MakeTempDir();
  ASSERT_FALSE(dir.empty());

  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: arm the recorder, leave some context in the log ring, then
    // genuinely segfault. No gtest machinery from here on.
    if (!InstallCrashRecorder({.directory = dir}).ok()) _exit(90);
    CrashLogRingAppend("{\"site\":\"crash_test\",\"msg\":\"about to die\"}");
    ProfiledThreadScope scope("test.crasher");
    CrashForTesting();
    _exit(91);  // Unreachable: CrashForTesting never returns.
  }

  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  // The handler re-raises with the default disposition, so the child dies
  // of the original SIGSEGV exactly as it would without the recorder.
  ASSERT_TRUE(WIFSIGNALED(status)) << "exit status " << status;
  EXPECT_EQ(WTERMSIG(status), SIGSEGV);

  const std::string path = FindCrashFile(dir);
  ASSERT_FALSE(path.empty()) << "no crash file in " << dir;
  const std::string dump = ReadFile(path);
  EXPECT_NE(dump.find("=== mvrob crash flight recorder ==="),
            std::string::npos);
  EXPECT_NE(dump.find("SIGSEGV"), std::string::npos) << dump;
  EXPECT_NE(dump.find("--- faulting stack ---"), std::string::npos);
  // The faulting frame is symbolized by name: the whole point of the
  // flight recorder is that the postmortem names the function that died.
  EXPECT_NE(dump.find("CrashForTesting"), std::string::npos) << dump;
  EXPECT_NE(dump.find("--- recent log events ---"), std::string::npos);
  EXPECT_NE(dump.find("about to die"), std::string::npos) << dump;
  EXPECT_NE(dump.find("=== end ==="), std::string::npos);
}

TEST(CrashTest, LogRingFeedsTheDumpViaTheLogger) {
  // Logger::LogAt feeds every emitted record into the crash ring; this
  // only checks the plumbing is wired (the ring content itself is
  // asserted through the fork test above).
  std::ostringstream sink;
  Logger logger(&sink, {.min_level = LogLevel::kDebug});
  logger.Log(LogLevel::kInfo, "crash_test.ring", "ring plumbing check");
  EXPECT_NE(sink.str().find("ring plumbing check"), std::string::npos);
}

}  // namespace
}  // namespace mvrob
