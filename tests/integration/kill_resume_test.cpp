// End-to-end crash safety of the in-process campaign: run
// `ccfuzz run --workers 0`, kill it mid-campaign (SIGKILL — no chance to
// clean up), rerun the same command, and verify the resumed campaign
// converges to the same report tree as one that was never interrupted. Also
// pins the graceful path: SIGTERM exits with the interrupted code (3) with a
// checkpoint on disk and a parseable JSONL progress log.
#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include <sys/types.h>
#include <unistd.h>

#include "dist/worker.h"
#include "test_support.h"

namespace {

namespace fs = std::filesystem;
using namespace ccfuzz::test;

/// fork+execs `ccfuzz run --workers 0` on the CLI's default matrix (reno and
/// cubic, traffic mode, low-utilization, seed 11); returns the child pid (or
/// -1).
pid_t spawn_campaign(const std::string& dir, const char* generations,
                     const char* population, const char* throttle_ms) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    // Quiet the child's progress spam; keep stderr for real failures.
    ::freopen("/dev/null", "w", stdout);
    ::execl(ccfuzz_binary(), "ccfuzz", "run", "--workers", "0", "--output",
            dir.c_str(), "--generations", generations, "--population",
            population, "--throttle-ms", throttle_ms,
            static_cast<char*>(nullptr));
    std::_Exit(127);  // exec failed
  }
  return pid;
}

/// Polls until the child has written its first checkpoint (or `ms` elapse).
bool wait_for_checkpoint(const fs::path& dir, int ms) {
  const fs::path ckpt = dir / "checkpoint" / "campaign.ckpt";
  for (int i = 0; i < ms / 10; ++i) {
    if (fs::exists(ckpt)) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return fs::exists(ckpt);
}

using KillResumeTest = CliTest;

TEST_F(KillResumeTest, SigkillMidCampaignThenResumeConvergesBitIdentically) {
  // Reference: the same campaign, never interrupted.
  const std::string ref_dir = (base_ / "ref").string();
  {
    const pid_t pid = spawn_campaign(ref_dir, "5", "16", "0");
    ASSERT_GT(pid, 0);
    const int status = wait_exit(pid);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "reference run failed";
  }

  // Victim: throttled so we reliably land mid-campaign, then SIGKILL.
  const std::string dir = (base_ / "victim").string();
  {
    const pid_t pid = spawn_campaign(dir, "5", "16", "150");
    ASSERT_GT(pid, 0);
    ASSERT_TRUE(wait_for_checkpoint(dir, 30000)) << "no checkpoint appeared";
    ::kill(pid, SIGKILL);
    wait_exit(pid);
  }
  // The throttle held the campaign open: the kill landed before the report.
  ASSERT_FALSE(fs::exists(fs::path(dir) / "summary.csv"))
      << "the victim finished before SIGKILL; --throttle-ms had no effect";

  // After SIGKILL the JSONL log must still hold only whole lines.
  expect_whole_json_lines(fs::path(dir) / "progress.jsonl");

  // Resume: the exact same command finishes the campaign.
  {
    const pid_t pid = spawn_campaign(dir, "5", "16", "0");
    ASSERT_GT(pid, 0);
    const int status = wait_exit(pid);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "resume run failed";
  }

  expect_same_files(dir, ref_dir,
                    {"summary.csv", "summary.json",
                     "reno.traffic.low-utilization/history.csv",
                     "cubic.traffic.low-utilization/history.csv"});
}

TEST_F(KillResumeTest, SigtermShutsDownGracefullyWithExitThree) {
  const std::string dir = (base_ / "term").string();
  const pid_t pid = spawn_campaign(dir, "6", "16", "150");
  ASSERT_GT(pid, 0);
  ASSERT_TRUE(wait_for_checkpoint(dir, 30000)) << "no checkpoint appeared";
  ::kill(pid, SIGTERM);
  const int status = wait_exit(pid);
  EXPECT_TRUE(WIFEXITED(status)) << "child did not exit normally";
  EXPECT_EQ(WEXITSTATUS(status), ccfuzz::dist::kWorkerInterruptedExit);
  // The graceful path leaves a resumable checkpoint and a parseable log.
  EXPECT_TRUE(fs::exists(fs::path(dir) / "checkpoint" / "campaign.ckpt"));
  expect_whole_json_lines(fs::path(dir) / "progress.jsonl");
}

}  // namespace
