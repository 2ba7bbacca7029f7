// Supervisor backoff, observed through the injected fake clock: a worker
// that dies instantly (/bin/false) is respawned on an exponential schedule
// (base doubling, jitter disabled) until the sliding-window budget runs out,
// at which point the shard is marked failed and run() returns 1. Also pins
// the pid-triage refusal: a live worker pid running the supervisor's own
// worker binary blocks a double-run before anything is spawned.
#include "dist/supervisor.h"

#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "campaign/campaign.h"
#include "test_support.h"

namespace ccfuzz::dist {
namespace {

namespace fs = std::filesystem;

class SupervisorBackoffTest : public test::ScratchDirTest {
 protected:
  void SetUp() override { campaign::reset_stop_flag(); }
  void TearDown() override {
    campaign::reset_stop_flag();
    if (devnull_) {
      std::fclose(devnull_);
      devnull_ = nullptr;
    }
  }

  SupervisorOptions crash_loop_options() {
    SupervisorOptions opt;
    opt.binary = "/bin/false";  // execs fine, exits 1 instantly
    opt.root = base_.string();
    opt.max_restarts = 3;
    opt.restart_base_delay_s = 0.25;
    opt.restart_max_delay_s = 30.0;
    opt.restart_window_s = 300.0;
    opt.restart_jitter = 0.0;  // exact delays, no [1, 1.25) scaling
    opt.heartbeat_timeout_s = 0.0;
    opt.min_free_bytes = 0;  // keep the test off the real disk state
    // Fake clock: every scheduling read advances virtual time, so backoff
    // deadlines pass in a few poll iterations instead of real seconds.
    opt.clock = [this] { return fake_now_ += 0.05; };
    opt.log = devnull_ = std::fopen("/dev/null", "w");
    return opt;
  }

  static ShardPlan one_cell_plan() {
    ShardPlan plan;
    plan.num_shards = 1;
    plan.entries = {{"cell-a", 0}};
    return plan;
  }

  /// Feed lines containing `needle`.
  int feed_count(const std::string& needle) {
    std::ifstream is(base_ / "progress.jsonl");
    std::string line;
    int n = 0;
    while (std::getline(is, line)) {
      if (line.find(needle) != std::string::npos) ++n;
    }
    return n;
  }

  /// `delay_s` values of the worker_backoff events, in feed order.
  std::vector<double> backoff_delays() {
    std::vector<double> out;
    std::ifstream is(base_ / "progress.jsonl");
    std::string line;
    const std::string tag = "\"delay_s\":";
    while (std::getline(is, line)) {
      if (line.find("\"event\":\"worker_backoff\"") == std::string::npos) {
        continue;
      }
      const std::size_t at = line.find(tag);
      if (at == std::string::npos) {
        ADD_FAILURE() << "backoff event without delay_s: " << line;
        continue;
      }
      out.push_back(std::atof(line.c_str() + at + tag.size()));
    }
    return out;
  }

  double fake_now_ = 0.0;
  std::FILE* devnull_ = nullptr;
};

TEST_F(SupervisorBackoffTest, CrashLoopBacksOffExponentiallyThenFails) {
  Supervisor s(crash_loop_options(), one_cell_plan());
  EXPECT_EQ(s.run(), 1);
  EXPECT_FALSE(s.interrupted());

  // Budget 3 in the window: three paced restarts, then the fourth death is
  // refused. The delays are the pure doubling sequence — observable only
  // because the clock is fake and jitter is off.
  const std::vector<double> delays = backoff_delays();
  ASSERT_EQ(delays.size(), 3u);
  EXPECT_DOUBLE_EQ(delays[0], 0.25);
  EXPECT_DOUBLE_EQ(delays[1], 0.5);
  EXPECT_DOUBLE_EQ(delays[2], 1.0);

  // 1 initial spawn + 3 restarts = 4 worker_start events.
  EXPECT_EQ(feed_count("\"event\":\"worker_start\""), 4);
  EXPECT_EQ(feed_count("\"event\":\"worker_restart\""), 3);
  EXPECT_EQ(feed_count("\"event\":\"worker_exit\""), 4);
}

TEST_F(SupervisorBackoffTest, LiveSiblingWorkerPidBlocksDoubleRun) {
  // A long-lived /bin/sleep stands in for the sibling campaign's worker.
  const pid_t sibling = ::fork();
  ASSERT_GE(sibling, 0);
  if (sibling == 0) {
    ::execl("/bin/sleep", "sleep", "600", static_cast<char*>(nullptr));
    ::_exit(127);
  }
  const fs::path shard_dir = base_ / "shards" / "0";
  fs::create_directories(shard_dir);
  std::ofstream(shard_dir / "worker.pid") << sibling << "\n";

  SupervisorOptions opt = crash_loop_options();
  opt.binary = "/bin/sleep";  // the pid's exe matches our worker binary
  Supervisor s(opt, one_cell_plan());
  EXPECT_EQ(s.run(), 1);  // refused before spawning anything
  EXPECT_EQ(feed_count("\"event\":\"worker_start\""), 0);

  // The refusal never reclaimed (deleted) the sibling's pid file.
  std::ifstream pid_is(shard_dir / "worker.pid");
  pid_t recorded = 0;
  pid_is >> recorded;
  EXPECT_EQ(recorded, sibling);

  ASSERT_EQ(::kill(sibling, SIGKILL), 0);
  int status = 0;
  ::waitpid(sibling, &status, 0);
}

TEST_F(SupervisorBackoffTest, StalePidFilesAreReclaimedAndTheRunProceeds) {
  // A reaped child's pid is dead: triage says kMissing, the supervisor
  // reclaims the shard and the (crash-looping) run proceeds to its budget.
  const pid_t gone = ::fork();
  ASSERT_GE(gone, 0);
  if (gone == 0) ::_exit(0);
  int status = 0;
  ASSERT_EQ(::waitpid(gone, &status, 0), gone);

  const fs::path shard_dir = base_ / "shards" / "0";
  fs::create_directories(shard_dir);
  std::ofstream(shard_dir / "worker.pid") << gone << "\n";

  Supervisor s(crash_loop_options(), one_cell_plan());
  EXPECT_EQ(s.run(), 1);  // crash loop exhausts the budget — but it *ran*
  EXPECT_EQ(feed_count("\"event\":\"worker_start\""), 4);
}

}  // namespace
}  // namespace ccfuzz::dist
