// End-to-end chaos runs driving the real ccfuzz CLI under CCFUZZ_FAULT_PLAN:
// the sites that only make sense against the live worker/supervisor pair —
// crash-at-checkpoint, poison-cell crash loops, and hangs — must all degrade
// to a completed campaign, and whenever every cell completes the merged
// report must be byte-identical to the fault-free reference run.
// The fault plan rides the child's environment so the real binary arms it.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "test_support.h"

namespace {

namespace fs = std::filesystem;
using namespace ccfuzz::test;

class ChaosE2eTest : public CliTest {
 protected:
  /// fork+execs `ccfuzz run` over the shared tiny matrix with `fault_plan`
  /// in the child's environment (empty = fault-free); returns the exit code
  /// (-1 when the child died of a signal).
  int run_campaign(const std::string& out_dir, const std::string& fault_plan,
                   const std::string& heartbeat_s = "") {
    const pid_t pid = ::fork();
    if (pid == 0) {
      if (fault_plan.empty()) {
        ::unsetenv("CCFUZZ_FAULT_PLAN");
      } else {
        ::setenv("CCFUZZ_FAULT_PLAN", fault_plan.c_str(), 1);
      }
      ::freopen("/dev/null", "w", stdout);
      if (heartbeat_s.empty()) {
        ::execl(ccfuzz_binary(), "ccfuzz", "run", "--output", out_dir.c_str(),
                "--workers", "1", "--ccas", "reno,cubic,bbr", "--generations",
                "3", "--population", "12", "--islands", "2", "--seed", "7",
                "--duration-ms", "800", static_cast<char*>(nullptr));
      } else {
        ::execl(ccfuzz_binary(), "ccfuzz", "run", "--output", out_dir.c_str(),
                "--workers", "1", "--ccas", "reno,cubic,bbr", "--generations",
                "3", "--population", "12", "--islands", "2", "--seed", "7",
                "--duration-ms", "800", "--heartbeat-timeout-s",
                heartbeat_s.c_str(), static_cast<char*>(nullptr));
      }
      std::_Exit(127);
    }
    const int status = wait_exit(pid);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  /// The fault-free reference report for the shared matrix.
  std::string run_reference() {
    const std::string ref = (base_ / "ref").string();
    EXPECT_EQ(run_campaign(ref, ""), 0) << "reference run failed";
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

  bool feed_has(const std::string& dir, const std::string& needle) {
    return slurp(fs::path(dir) / "progress.jsonl").find(needle) !=
           std::string::npos;
  }
};

TEST_F(ChaosE2eTest, CrashAtCheckpointRestartsAndMatchesReference) {
  const std::string ref = run_reference();

  // The latch makes "crash after the 1st completed checkpoint" a
  // once-per-campaign event: the restarted worker reads the latch, stays
  // quiet, and finishes from the checkpoint the crash proved durable.
  const std::string latch = (base_ / "latch").string();
  fs::create_directories(latch);
  const std::string dir = (base_ / "chaos").string();
  EXPECT_EQ(run_campaign(
                dir, "latch=" + latch + ";worker:crash_checkpoint@1*1"),
            0);
  EXPECT_TRUE(feed_has(dir, "\"event\":\"worker_backoff\""))
      << "the injected crash never paced a restart";
  expect_matches_reference(dir, ref);
}

TEST_F(ChaosE2eTest, PoisonCellIsQuarantinedAndTheRestCompletes) {
  // No latch and count 99: the worker crashes at this cell's first
  // generation in *every* process life — a true poison cell. Two deaths
  // reach the poison threshold; the supervisor quarantines the cell,
  // restarts the worker with --skip-cells, and the campaign completes.
  const std::string dir = (base_ / "poison").string();
  EXPECT_EQ(run_campaign(
                dir,
                "worker:cell_crash=reno.traffic.low-utilization@1*99"),
            0);
  EXPECT_TRUE(feed_has(dir, "\"event\":\"cell_quarantined\""));
  EXPECT_TRUE(fs::exists(fs::path(dir) / "quarantine" / "cells" /
                         "reno.traffic.low-utilization.cell"));

  // The merged report omits the quarantined cell and carries the rest.
  const std::string csv = slurp(fs::path(dir) / "summary.csv");
  EXPECT_EQ(csv.find("reno"), std::string::npos) << csv;
  EXPECT_NE(csv.find("cubic"), std::string::npos) << csv;
  EXPECT_NE(csv.find("bbr"), std::string::npos) << csv;
  for (const char* rel : {"cubic.traffic.low-utilization/history.csv",
                          "bbr.traffic.low-utilization/history.csv"}) {
    EXPECT_TRUE(fs::exists(fs::path(dir) / rel)) << rel;
  }
}

TEST_F(ChaosE2eTest, HungWorkerIsKilledByTheWatchdogAndRecovers) {
  const std::string ref = run_reference();

  // The hang fires once (latched); the heartbeat watchdog SIGKILLs the
  // silent worker, the restart resumes from its checkpoint, and the report
  // is unharmed.
  const std::string latch = (base_ / "latch").string();
  fs::create_directories(latch);
  const std::string dir = (base_ / "hang").string();
  EXPECT_EQ(run_campaign(dir, "latch=" + latch + ";worker:hang@2*1",
                         /*heartbeat_s=*/"2"),
            0);
  EXPECT_TRUE(feed_has(dir, "\"event\":\"worker_stall\""))
      << "the watchdog never flagged the hung worker";
  expect_matches_reference(dir, ref);
}

}  // namespace
