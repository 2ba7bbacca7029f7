// Crash-safe campaigns: checkpoint_every + resume_dir restore mid-campaign
// state so an interrupted campaign finishes with a report tree bit-identical
// to one that never stopped; corrupt checkpoints degrade to a fresh start.
#include "campaign/campaign.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>

#include "campaign/report.h"
#include "test_support.h"

namespace ccfuzz::campaign {
namespace {

namespace fs = std::filesystem;
using test::slurp;

fuzz::GaConfig tiny_ga() {
  fuzz::GaConfig ga;
  ga.population = 12;
  ga.islands = 2;
  ga.max_generations = 5;
  ga.seed = 77;
  return ga;
}

CampaignConfig tiny_campaign(const std::string& dir) {
  scenario::ScenarioConfig sc;
  sc.duration = TimeNs::seconds(1);
  CampaignConfig cfg;
  cfg.ccas({"reno", "cubic"})
      .modes({scenario::FuzzMode::kTraffic})
      .base_scenario(sc)
      .score(std::make_shared<fuzz::LowUtilizationScore>())
      .traffic_model({.max_packets = 150, .initial_packets = 75})
      .ga(tiny_ga())
      .winners(3)
      .output_dir(dir)
      .checkpoint_every(1);
  return cfg;
}

/// Raises the campaign stop flag after `n` generation events.
class StopAfterObserver final : public CampaignObserver {
 public:
  explicit StopAfterObserver(int n) : remaining_(n) {}
  void on_generation(const CellConfig&, const fuzz::GenStats&) override {
    if (--remaining_ == 0) request_stop();
  }

 private:
  int remaining_;
};

class CheckpointTest : public test::ScratchDirTest {
 protected:
  void SetUp() override { reset_stop_flag(); }
  void TearDown() override { reset_stop_flag(); }
};

TEST_F(CheckpointTest, CheckpointFileAppearsAndCampaignCompletes) {
  const std::string dir = (base_ / "out").string();
  Campaign c(tiny_campaign(dir));
  const auto& report = c.run();
  EXPECT_FALSE(report.interrupted);
  EXPECT_FALSE(c.resumed());
  EXPECT_TRUE(fs::exists(fs::path(dir) / "checkpoint" / "campaign.ckpt"));
  EXPECT_TRUE(fs::exists(fs::path(dir) / "summary.json"));
}

TEST_F(CheckpointTest, InterruptedThenResumedReportIsBitIdentical) {
  // Reference: straight through.
  const std::string ref_dir = (base_ / "ref").string();
  Campaign ref(tiny_campaign(ref_dir));
  ASSERT_FALSE(ref.run().interrupted);

  // Interrupted: stop mid-campaign (after 3 generation events of 2×5).
  const std::string dir = (base_ / "out").string();
  {
    Campaign c(tiny_campaign(dir));
    StopAfterObserver stopper(3);
    c.add_observer(&stopper);
    const auto& partial = c.run();
    EXPECT_TRUE(partial.interrupted);
    ASSERT_TRUE(fs::exists(fs::path(dir) / "checkpoint" / "campaign.ckpt"));
  }
  reset_stop_flag();

  // Resume from the checkpoint and finish.
  {
    CampaignConfig cfg = tiny_campaign(dir);
    cfg.resume_dir(dir);
    Campaign c(cfg);
    EXPECT_TRUE(c.resumed());
    const auto& report = c.run();
    EXPECT_FALSE(report.interrupted);
  }

  // The resumed tree is byte-identical to the uninterrupted one.
  for (const char* rel :
       {"summary.csv", "summary.json",
        "reno.traffic.low-utilization/history.csv",
        "cubic.traffic.low-utilization/history.csv",
        "reno.traffic.low-utilization/winner_0.trace",
        "cubic.traffic.low-utilization/winner_0.trace"}) {
    ASSERT_TRUE(fs::exists(fs::path(dir) / rel)) << rel;
    EXPECT_EQ(slurp(fs::path(dir) / rel), slurp(fs::path(ref_dir) / rel))
        << rel;
  }
}

TEST_F(CheckpointTest, ResumingAFinishedCampaignRewritesTheSameReport) {
  const std::string dir = (base_ / "out").string();
  Campaign first(tiny_campaign(dir));
  first.run();
  const std::string summary = slurp(fs::path(dir) / "summary.json");

  CampaignConfig cfg = tiny_campaign(dir);
  cfg.resume_dir(dir);
  Campaign again(cfg);
  EXPECT_TRUE(again.resumed());
  const auto& report = again.run();
  EXPECT_FALSE(report.interrupted);
  // All cells were restored done: nothing re-simulated.
  for (const auto& cell : report.cells) EXPECT_FALSE(cell.winners.empty());
  EXPECT_EQ(slurp(fs::path(dir) / "summary.json"), summary);
}

TEST_F(CheckpointTest, ResumingAFinishedCampaignRewritesIdenticalCheckpointBytes) {
  // The no-op final rewrite encodes the same state, so it must produce the
  // same bytes: the cache section is written in key order, not in hash-map
  // order.
  const std::string dir = (base_ / "out").string();
  const fs::path head = fs::path(dir) / "checkpoint" / "campaign.ckpt";
  Campaign first(tiny_campaign(dir));
  first.run();
  const std::string before = slurp(head);
  ASSERT_FALSE(before.empty());

  CampaignConfig cfg = tiny_campaign(dir);
  cfg.resume_dir(dir);
  Campaign again(cfg);
  ASSERT_TRUE(again.resumed());
  again.run();
  EXPECT_EQ(slurp(head), before);
}

TEST_F(CheckpointTest, CorruptCheckpointDegradesToFreshStart) {
  const std::string dir = (base_ / "out").string();
  fs::create_directories(fs::path(dir) / "checkpoint");
  std::ofstream(fs::path(dir) / "checkpoint" / "campaign.ckpt")
      << "not a checkpoint at all\n\x01\x02gibberish";

  CampaignConfig cfg = tiny_campaign(dir);
  cfg.resume_dir(dir);
  Campaign c(cfg);
  EXPECT_FALSE(c.resumed());
  const auto& report = c.run();
  EXPECT_FALSE(report.interrupted);
  for (const auto& cell : report.cells) {
    EXPECT_FALSE(cell.winners.empty());
    EXPECT_EQ(cell.history.size(), 5u);
  }
}

TEST_F(CheckpointTest, TruncatedCheckpointDegradesToFreshStart) {
  const std::string dir = (base_ / "out").string();
  {
    Campaign c(tiny_campaign(dir));
    c.run();
  }
  const fs::path ckpt = fs::path(dir) / "checkpoint" / "campaign.ckpt";
  const std::string full = slurp(ckpt);
  ASSERT_GT(full.size(), 100u);
  std::ofstream(ckpt, std::ios::binary) << full.substr(0, full.size() / 3);
  // Rotation would rescue the truncated head from campaign.ckpt.prev (see
  // checkpoint_rotation_test.cpp); remove it so this pins the last rung of
  // the degradation ladder: no usable snapshot at all → fresh start.
  fs::remove(fs::path(ckpt.string() + ".prev"));

  CampaignConfig cfg = tiny_campaign(dir);
  cfg.resume_dir(dir);
  Campaign c(cfg);
  EXPECT_FALSE(c.resumed());
  EXPECT_FALSE(c.run().interrupted);
}

TEST_F(CheckpointTest, MismatchedCellConfigurationDegradesToFreshStart) {
  // Checkpoint a 2-cell campaign, try to resume a campaign whose first cell
  // differs: the restore must refuse (config drift), not graft state.
  const std::string dir = (base_ / "out").string();
  {
    Campaign c(tiny_campaign(dir));
    c.run();
  }
  CampaignConfig cfg = tiny_campaign(dir);
  cfg.resume_dir(dir);
  scenario::ScenarioConfig sc;
  sc.duration = TimeNs::seconds(1);
  cfg.ccas({"bbr", "cubic"}).base_scenario(sc);
  Campaign c(cfg);
  EXPECT_FALSE(c.resumed());
}

TEST_F(CheckpointTest, NoCheckpointWrittenWhenDisabled) {
  const std::string dir = (base_ / "out").string();
  CampaignConfig cfg = tiny_campaign(dir);
  cfg.checkpoint_every(0);
  Campaign c(cfg);
  c.run();
  EXPECT_FALSE(fs::exists(fs::path(dir) / "checkpoint"));
}

TEST(StopFlag, RequestAndResetRoundTrip) {
  reset_stop_flag();
  EXPECT_FALSE(stop_requested());
  request_stop();
  EXPECT_TRUE(stop_requested());
  reset_stop_flag();
  EXPECT_FALSE(stop_requested());
  install_stop_signal_handlers();  // idempotent, must not throw
  install_stop_signal_handlers();
}

TEST(StopFlag, InterruptedCampaignReportsPartialStateAndExitsCleanly) {
  reset_stop_flag();
  scenario::ScenarioConfig sc;
  sc.duration = TimeNs::seconds(1);
  CampaignConfig cfg;
  cfg.ccas({"reno"})
      .base_scenario(sc)
      .score(std::make_shared<fuzz::LowUtilizationScore>())
      .traffic_model({.max_packets = 150, .initial_packets = 75})
      .ga(tiny_ga());
  Campaign c(cfg);
  StopAfterObserver stopper(2);
  c.add_observer(&stopper);
  const auto& report = c.run();
  EXPECT_TRUE(report.interrupted);
  ASSERT_EQ(report.cells.size(), 1u);
  EXPECT_LT(report.cells.front().history.size(), 5u);
  EXPECT_GT(report.cells.front().history.size(), 0u);
  reset_stop_flag();
}

}  // namespace
}  // namespace ccfuzz::campaign
