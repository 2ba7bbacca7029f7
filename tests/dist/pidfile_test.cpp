// Pid-file triage: absent/garbage files have nothing to reclaim, a gone pid
// is stale (reclaim), a live pid running another binary is a recycled pid
// (reclaim louder), and a live pid running *our* binary blocks a double-run.
#include "dist/pidfile.h"

#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "test_support.h"

namespace ccfuzz::dist {
namespace {

namespace fs = std::filesystem;

class PidFileTest : public test::ScratchDirTest {
 protected:
  void SetUp() override {
    path_ = (base_ / "worker.pid").string();
  }

  void write_pid(const std::string& text) {
    std::ofstream(path_, std::ios::binary) << text;
  }

  /// The running test binary — what /proc/self/exe resolves to.
  static std::string self_exe() {
    char buf[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
    return n > 0 ? std::string(buf, static_cast<std::size_t>(n))
                 : std::string();
  }

  std::string path_;
};

TEST_F(PidFileTest, MissingOrGarbageFileIsAbsent) {
  EXPECT_EQ(check_pid_file(path_, "/bin/true").status, PidStatus::kAbsent);
  write_pid("not a pid\n");
  EXPECT_EQ(check_pid_file(path_, "/bin/true").status, PidStatus::kAbsent);
  write_pid("");
  EXPECT_EQ(check_pid_file(path_, "/bin/true").status, PidStatus::kAbsent);
}

TEST_F(PidFileTest, ReapedProcessIsMissing) {
  // A forked-and-reaped child's pid is guaranteed dead (and, having just
  // been reaped, not yet recycled).
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) _exit(0);
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  write_pid(std::to_string(child) + "\n");
  const PidCheck check = check_pid_file(path_, "/bin/true");
  EXPECT_EQ(check.status, PidStatus::kMissing);
  EXPECT_EQ(check.pid, child);
}

TEST_F(PidFileTest, OurOwnPidAndBinaryIsLive) {
  const std::string exe = self_exe();
  ASSERT_FALSE(exe.empty());
  write_pid(std::to_string(getpid()) + "\n");
  const PidCheck check = check_pid_file(path_, exe);
  EXPECT_EQ(check.status, PidStatus::kLive);
  EXPECT_EQ(check.pid, getpid());
  EXPECT_EQ(check.exe, exe);
}

TEST_F(PidFileTest, LivePidRunningAnotherBinaryIsStale) {
  write_pid(std::to_string(getpid()) + "\n");
  const PidCheck check = check_pid_file(path_, "/bin/true");
  EXPECT_EQ(check.status, PidStatus::kStale);
  EXPECT_EQ(check.pid, getpid());
}

TEST_F(PidFileTest, StatusNamesAreStable) {
  EXPECT_STREQ(to_string(PidStatus::kAbsent), "absent");
  EXPECT_STREQ(to_string(PidStatus::kMissing), "missing");
  EXPECT_STREQ(to_string(PidStatus::kStale), "stale");
  EXPECT_STREQ(to_string(PidStatus::kLive), "live");
}

}  // namespace
}  // namespace ccfuzz::dist
