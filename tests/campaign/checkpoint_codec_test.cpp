// Robustness of the checkpoint codec against damaged files: a real
// checkpoint from a tiny campaign is cut at every length and hit with a
// fixed budget of seeded byte flips and splices. Every variant must either
// restore to exactly the state it encodes — the no-op rewrite of the
// finished campaign reproduces its bytes — or be refused with a typed Error
// (the campaign then starts fresh). Nothing may crash; this suite also runs
// under ASan/UBSan.
//
// Two campaigns feed it: a score-mode one and a MAP-Elites one whose file
// also carries coverage bitmaps and archive sections. Both are cut at every
// length (elite archives materialize cells on first insert, so a refused
// coverage restore is cheap).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>

#include "campaign/campaign.h"
#include "test_support.h"
#include "util/logging.h"
#include "util/rng.h"

namespace ccfuzz::campaign {
namespace {

namespace fs = std::filesystem;
using test::slurp;

CampaignConfig tiny_campaign(const std::string& dir, bool coverage) {
  scenario::ScenarioConfig sc;
  sc.duration = TimeNs::millis(200);
  fuzz::GaConfig ga;
  ga.population = 4;
  ga.islands = 2;
  ga.max_generations = 2;
  ga.seed = 5;
  // MAP-Elites arms the coverage probe.
  if (coverage) ga.search = fuzz::SearchMode::kMapElites;
  CampaignConfig cfg;
  cfg.ccas({"reno"})
      .modes({scenario::FuzzMode::kTraffic, scenario::FuzzMode::kLink})
      .base_scenario(sc)
      .score(std::make_shared<fuzz::LowUtilizationScore>())
      .traffic_model({.max_packets = 40, .initial_packets = 20})
      .link_model({.total_packets = 40})
      .ga(ga)
      .winners(1)
      .parallel(false)
      .output_dir(dir)
      .resume_dir(dir)
      .checkpoint_every(1);
  return cfg;
}

class CheckpointCodecTest : public test::ScratchDirTest,
                            public ::testing::WithParamInterface<bool> {
 protected:
  void SetUp() override {
    // Each refused variant logs a degrade warning; thousands would drown
    // the test output.
    set_log_level(LogLevel::kError);
    Campaign c(tiny_campaign(dir_, coverage()));
    c.run();
    original_ = slurp(head());
    ASSERT_GT(original_.size(), 1000u);
  }
  void TearDown() override { set_log_level(LogLevel::kWarn); }

  static bool coverage() { return GetParam(); }
  std::string head() const { return dir_ + "/checkpoint/campaign.ckpt"; }

  /// Installs `bytes` as the only snapshot and resumes from it. A resumed
  /// campaign must rewrite exactly `bytes`; otherwise the restore returned
  /// an Error and the campaign fell back to a fresh start.
  bool restores(const std::string& bytes) {
    std::ofstream(head(), std::ios::binary | std::ios::trunc) << bytes;
    fs::remove(head() + ".prev");
    Campaign c(tiny_campaign(dir_, coverage()));
    if (!c.resumed()) return false;
    c.run();
    EXPECT_EQ(slurp(head()), bytes);
    return true;
  }

  const std::string dir_ = base_.string();
  std::string original_;
};

TEST_P(CheckpointCodecTest, OriginalRestoresToTheSameBytes) {
  EXPECT_TRUE(restores(original_));
}

TEST_P(CheckpointCodecTest, TruncationsAreRefused) {
  for (std::size_t n = 0; n < original_.size(); ++n) {
    const std::string cut = original_.substr(0, n);
    ASSERT_FALSE(restores(cut)) << "prefix of " << n << " bytes restored";
    EXPECT_EQ(validate_checkpoint_file(head()).code, Error::Code::kTruncated)
        << "prefix of " << n << " bytes";
  }
}

TEST_P(CheckpointCodecTest, SeededByteFlipsAreRefusedTyped) {
  // Seeded single-byte mutations: any flip lands in the header (kParse or
  // kVersion), in a section header (kTruncated when its length grows past
  // the file), or under a checksum (kCorrupt).
  Rng rng(0xF11B);
  for (int i = 0; i < (coverage() ? 150 : 400); ++i) {
    std::string bad = original_;
    const auto at = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(bad.size()) - 1));
    bad[at] = static_cast<char>(bad[at] ^ rng.uniform_int(1, 255));
    ASSERT_FALSE(restores(bad)) << "flip at " << at << " restored";
    EXPECT_TRUE(static_cast<bool>(validate_checkpoint_file(head())))
        << "flip at " << at;
  }
}

TEST_P(CheckpointCodecTest, SeededSplicesRestoreExactlyOrAreRefused) {
  // Splices copy a run of the file over another place, or insert it there:
  // the torn-sector and misdirected-write shapes. A splice that reproduces
  // valid sections must restore to exactly the bytes it produced.
  Rng rng(0x5A1CE);
  const auto pick = [&](std::size_t below) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(below) - 1));
  };
  const int budget = coverage() ? 60 : 200;
  int refused = 0;
  for (int i = 0; i < budget; ++i) {
    std::string bad = original_;
    const std::size_t from = pick(bad.size());
    const std::size_t len = 1 + pick(std::min<std::size_t>(64, bad.size() - from));
    const std::string run = original_.substr(from, len);
    const std::size_t to = pick(bad.size());
    if (rng.coin()) {
      bad.replace(to, std::min(len, bad.size() - to), run);
    } else {
      bad.insert(to, run);
    }
    if (!restores(bad)) ++refused;
  }
  EXPECT_GT(refused, budget * 9 / 10);
}

INSTANTIATE_TEST_SUITE_P(ScoreAndCoverage, CheckpointCodecTest,
                         ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "MapElites" : "Score";
                         });

}  // namespace
}  // namespace ccfuzz::campaign
