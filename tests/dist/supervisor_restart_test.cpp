// End-to-end distributed-campaign supervision, driving the real ccfuzz CLI:
// a 2-worker supervised run must survive SIGKILLing a worker mid-campaign
// (the supervisor restarts it from its shard checkpoint) and still merge a
// report byte-identical to the single-process reference run. Also pins the
// graceful path: SIGTERM to the supervisor drains the workers, leaves
// resumable shard checkpoints, and rerunning the same command finishes the
// campaign.
#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "test_support.h"

namespace {

namespace fs = std::filesystem;
using namespace ccfuzz::test;

/// fork+execs `ccfuzz run` with the shared tiny matrix; returns the pid.
pid_t spawn_run(const std::string& out_dir, const char* workers,
                const char* throttle_ms) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::freopen("/dev/null", "w", stdout);
    ::execl(ccfuzz_binary(), "ccfuzz", "run", "--output", out_dir.c_str(),
            "--workers", workers, "--ccas", "reno,cubic,bbr",
            "--generations", "3", "--population", "12", "--islands", "2",
            "--seed", "7", "--duration-ms", "800", "--throttle-ms",
            throttle_ms, static_cast<char*>(nullptr));
    std::_Exit(127);
  }
  return pid;
}

/// Polls until some shard has both a live worker pid file and its first
/// checkpoint (so a SIGKILL provably lands mid-campaign and the restart has
/// state to resume from). Returns the victim pid, or -1 on timeout.
pid_t wait_for_killable_worker(const fs::path& root, int ms) {
  for (int i = 0; i < ms / 10; ++i) {
    for (int shard = 0; shard < 2; ++shard) {
      const fs::path dir = root / "shards" / std::to_string(shard);
      if (!fs::exists(dir / "worker.pid") ||
          !fs::exists(dir / "checkpoint" / "campaign.ckpt")) {
        continue;
      }
      const std::string text = slurp(dir / "worker.pid");
      const pid_t pid = static_cast<pid_t>(std::atol(text.c_str()));
      if (pid > 0) return pid;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return -1;
}

class SupervisorRestartTest : public CliTest {
 protected:
  /// The single-process reference report for the shared matrix.
  std::string run_reference() {
    const std::string ref = (base_ / "ref").string();
    const pid_t pid = spawn_run(ref, "0", "0");
    EXPECT_GT(pid, 0);
    const int status = wait_exit(pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "reference run failed";
    return ref;
  }

  void expect_matches_reference(const std::string& dir,
                                const std::string& ref) {
    expect_same_files(dir, ref,
                      {"summary.csv", "summary.json",
                       "reno.traffic.low-utilization/history.csv",
                       "cubic.traffic.low-utilization/history.csv",
                       "bbr.traffic.low-utilization/history.csv"});
  }
};

TEST_F(SupervisorRestartTest, SigkilledWorkerIsRestartedAndMergeMatches) {
  const std::string ref = run_reference();

  // Throttled 2-worker run; SIGKILL one worker once it has a checkpoint.
  const std::string dir = (base_ / "victim").string();
  const pid_t supervisor = spawn_run(dir, "2", "200");
  ASSERT_GT(supervisor, 0);
  const pid_t victim = wait_for_killable_worker(base_ / "victim", 60000);
  ASSERT_GT(victim, 0) << "no killable worker appeared";
  ASSERT_EQ(::kill(victim, SIGKILL), 0);

  const int status = wait_exit(supervisor);
  ASSERT_TRUE(WIFEXITED(status)) << "supervisor did not exit normally";
  EXPECT_EQ(WEXITSTATUS(status), 0);

  // The supervisor observed the death and restarted from the checkpoint.
  const std::string feed = slurp(fs::path(dir) / "progress.jsonl");
  EXPECT_NE(feed.find("\"event\":\"worker_start\""), std::string::npos);
  EXPECT_NE(feed.find("\"event\":\"worker_exit\""), std::string::npos);
  EXPECT_NE(feed.find("\"event\":\"worker_restart\""), std::string::npos)
      << "no restart recorded — did the kill land after completion?";
  expect_whole_json_lines(fs::path(dir) / "progress.jsonl");

  // And the merged report is still the single-process report.
  expect_matches_reference(dir, ref);
}

TEST_F(SupervisorRestartTest, SigtermDrainsGracefullyAndRerunResumes) {
  const std::string ref = run_reference();

  const std::string dir = (base_ / "graceful").string();
  const pid_t supervisor = spawn_run(dir, "2", "200");
  ASSERT_GT(supervisor, 0);
  ASSERT_GT(wait_for_killable_worker(base_ / "graceful", 60000), 0);
  ASSERT_EQ(::kill(supervisor, SIGTERM), 0);

  // Graceful interruption: exit 3 (interrupted), workers drained, no merge.
  const int status = wait_exit(supervisor);
  ASSERT_TRUE(WIFEXITED(status)) << "supervisor did not exit normally";
  EXPECT_EQ(WEXITSTATUS(status), 3);
  expect_whole_json_lines(fs::path(dir) / "progress.jsonl");

  // Rerunning the identical command resumes every shard from its checkpoint
  // and finishes the campaign bit-identically.
  const pid_t resume = spawn_run(dir, "2", "0");
  ASSERT_GT(resume, 0);
  const int resume_status = wait_exit(resume);
  ASSERT_TRUE(WIFEXITED(resume_status) && WEXITSTATUS(resume_status) == 0)
      << "resumed run failed";
  expect_matches_reference(dir, ref);
}

}  // namespace
