// Checkpoint rotation: the previous snapshot survives as campaign.ckpt.prev,
// a corrupt head degrades to it (losing at most one checkpoint generation,
// never the campaign), and only both files corrupting forces a fresh start —
// which, being deterministic, still converges to the identical report.
#include "campaign/campaign.h"

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <utility>

#include "fuzz/state_io.h"
#include "test_support.h"
#include "util/record_io.h"

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

void spit(const fs::path& p, std::string_view bytes) {
  std::ofstream(p, std::ios::binary | std::ios::trunc) << bytes;
}

/// Flips one byte in the middle of `p`: bit rot that leaves the file's
/// length, header and end marker intact, so only a checksum can see it.
void corrupt(const fs::path& p) {
  std::string bytes = slurp(p);
  ASSERT_GT(bytes.size(), 64u);
  bytes[bytes.size() / 2] ^= 0x5A;
  spit(p, bytes);
}

/// A head in the line-oriented text format older releases wrote.
void write_text_checkpoint(const fs::path& p) {
  spit(p, "# ccfuzz-checkpoint v1\n# cells 0\n# cache 0\n# end checkpoint\n");
}

/// The smallest well-formed checkpoint: no cells, an empty cache.
std::string empty_checkpoint(std::uint32_t version = kCheckpointVersion) {
  record_io::RecordWriter w;
  w.begin(kCheckpointMagic, version);
  w.begin_section(fuzz::state_io::kCampaign);
  w.u64(0);
  w.end_section();
  w.begin_section(fuzz::state_io::kCache);
  w.u64(0);
  w.end_section();
  return std::string(w.finish());
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

/// Copies the head checkpoint whenever a cell ends. The last copy is the
/// snapshot on disk while the final iteration ran: generation N-1.
class HeadAtCellEnd final : public CampaignObserver {
 public:
  explicit HeadAtCellEnd(std::string path) : path_(std::move(path)) {}
  void on_cell_end(const CellResult&) override { bytes = slurp(path_); }
  std::string bytes;

 private:
  std::string path_;
};

class CheckpointRotationTest : public test::ScratchDirTest {
 protected:
  void SetUp() override { reset_stop_flag(); }
  void TearDown() override { reset_stop_flag(); }

  /// Runs the reference campaign and an interrupted one (stopped after 3
  /// generation events), leaving head + .prev checkpoints in `dir`.
  void run_reference_and_interrupted(const std::string& ref_dir,
                                     const std::string& dir) {
    Campaign ref(tiny_campaign(ref_dir));
    ASSERT_FALSE(ref.run().interrupted);
    Campaign c(tiny_campaign(dir));
    StopAfterObserver stopper(3);
    c.add_observer(&stopper);
    ASSERT_TRUE(c.run().interrupted);
    reset_stop_flag();
    ASSERT_TRUE(fs::exists(head(dir)));
    ASSERT_TRUE(fs::exists(head(dir) + ".prev"));
  }

  void resume_and_expect_reference(const std::string& dir,
                                   const std::string& ref_dir,
                                   bool expect_resumed) {
    CampaignConfig cfg = tiny_campaign(dir);
    cfg.resume_dir(dir);
    Campaign c(cfg);
    EXPECT_EQ(c.resumed(), expect_resumed);
    EXPECT_FALSE(c.run().interrupted);
    for (const char* f : {"summary.csv", "summary.json"}) {
      EXPECT_EQ(slurp(fs::path(dir) / f), slurp(fs::path(ref_dir) / f)) << f;
    }
  }

  static std::string head(const std::string& dir) {
    return dir + "/checkpoint/campaign.ckpt";
  }
};

TEST_F(CheckpointRotationTest, RotationKeepsAValidPreviousSnapshot) {
  const std::string dir = (base_ / "out").string();
  Campaign c(tiny_campaign(dir));
  ASSERT_FALSE(c.run().interrupted);
  EXPECT_FALSE(validate_checkpoint_file(head(dir)));
  EXPECT_FALSE(validate_checkpoint_file(head(dir) + ".prev"));
}

TEST_F(CheckpointRotationTest, FinishedRunWritesItsFinalCheckpointOnce) {
  // The iteration that finishes the last cell already checkpoints; writing
  // the same state again after the loop would rotate it over .prev and
  // leave head and .prev byte-identical.
  const std::string dir = (base_ / "out").string();
  Campaign c(tiny_campaign(dir));
  HeadAtCellEnd generation_before_last(head(dir));
  c.add_observer(&generation_before_last);
  ASSERT_FALSE(c.run().interrupted);
  ASSERT_FALSE(generation_before_last.bytes.empty());
  EXPECT_EQ(slurp(head(dir) + ".prev"), generation_before_last.bytes);
  EXPECT_NE(slurp(head(dir)), generation_before_last.bytes);
  EXPECT_FALSE(validate_checkpoint_file(head(dir)));
  EXPECT_FALSE(validate_checkpoint_file(head(dir) + ".prev"));

  // Resuming the finished tree still rewrites an identical report.
  const std::string summary = slurp(fs::path(dir) / "summary.json");
  CampaignConfig cfg = tiny_campaign(dir);
  cfg.resume_dir(dir);
  Campaign resumed(cfg);
  EXPECT_TRUE(resumed.resumed());
  EXPECT_FALSE(resumed.run().interrupted);
  EXPECT_EQ(slurp(fs::path(dir) / "summary.json"), summary);
}

TEST_F(CheckpointRotationTest, CorruptHeadResumesFromPrevBitIdentical) {
  const std::string ref_dir = (base_ / "ref").string();
  const std::string dir = (base_ / "out").string();
  run_reference_and_interrupted(ref_dir, dir);
  corrupt(head(dir));
  resume_and_expect_reference(dir, ref_dir, /*expect_resumed=*/true);
}

TEST_F(CheckpointRotationTest, BothSnapshotsCorruptDegradesToFresh) {
  const std::string ref_dir = (base_ / "ref").string();
  const std::string dir = (base_ / "out").string();
  run_reference_and_interrupted(ref_dir, dir);
  corrupt(head(dir));
  corrupt(head(dir) + ".prev");
  // Fresh start (resumed() false), but determinism still converges the
  // report to the reference bytes.
  resume_and_expect_reference(dir, ref_dir, /*expect_resumed=*/false);
}

TEST_F(CheckpointRotationTest, ValidateReportsTypedFailureModes) {
  const std::string dir = (base_ / "out").string();
  fs::create_directories(dir);
  const std::string path = dir + "/campaign.ckpt";

  EXPECT_EQ(validate_checkpoint_file(path).code, Error::Code::kIo);  // missing

  spit(path, "not a checkpoint\n");
  EXPECT_EQ(validate_checkpoint_file(path).code, Error::Code::kParse);

  spit(path, empty_checkpoint(kCheckpointVersion + 7));
  EXPECT_EQ(validate_checkpoint_file(path).code, Error::Code::kVersion);

  const std::string good = empty_checkpoint();
  spit(path, good.substr(0, good.size() - 5));  // torn mid-write
  EXPECT_EQ(validate_checkpoint_file(path).code, Error::Code::kTruncated);

  std::string flipped = good;
  flipped[good.size() / 2] ^= 0x01;
  spit(path, flipped);
  EXPECT_EQ(validate_checkpoint_file(path).code, Error::Code::kCorrupt);

  spit(path, good + "x");  // bytes after the end marker
  EXPECT_EQ(validate_checkpoint_file(path).code, Error::Code::kCorrupt);

  spit(path, good);
  EXPECT_FALSE(validate_checkpoint_file(path));
}

TEST_F(CheckpointRotationTest, MidFileCorruptionIsCaughtByValidate) {
  // The per-section checksums see a flipped byte anywhere in the file, not
  // just a damaged header or a missing end marker.
  const std::string dir = (base_ / "out").string();
  Campaign c(tiny_campaign(dir));
  ASSERT_FALSE(c.run().interrupted);
  corrupt(head(dir));
  EXPECT_EQ(validate_checkpoint_file(head(dir)).code, Error::Code::kCorrupt);
  EXPECT_FALSE(validate_checkpoint_file(head(dir) + ".prev"));
}

TEST_F(CheckpointRotationTest, DoctorReportsACorruptHeadAndAHealthyPrev) {
  const std::string cli = CCFUZZ_TOOLS_DIR "/ccfuzz";
  if (!fs::exists(cli)) GTEST_SKIP() << "ccfuzz CLI not built at " << cli;
  const std::string dir = (base_ / "out").string();
  Campaign c(tiny_campaign(dir));
  ASSERT_FALSE(c.run().interrupted);
  corrupt(head(dir));

  std::FILE* p = ::popen((cli + " doctor --output " + dir).c_str(), "r");
  ASSERT_NE(p, nullptr);
  std::string out;
  char buf[512];
  while (std::fgets(buf, sizeof(buf), p) != nullptr) out += buf;
  const int status = ::pclose(p);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 1) << out;
  EXPECT_NE(out.find("WARN  checkpoint " + head(dir) + " is unusable ("),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("resume will degrade to the .prev snapshot"),
            std::string::npos)
      << out;
}

TEST_F(CheckpointRotationTest, TextFormatHeadIsRefusedAndPrevTakesOver) {
  // Checkpoints are transient: a head in the text format of older releases
  // is refused with kVersion, and resume falls back to .prev with the usual
  // warning.
  const std::string ref_dir = (base_ / "ref").string();
  const std::string dir = (base_ / "out").string();
  run_reference_and_interrupted(ref_dir, dir);
  write_text_checkpoint(head(dir));
  EXPECT_EQ(validate_checkpoint_file(head(dir)).code, Error::Code::kVersion);

  ::testing::internal::CaptureStderr();
  resume_and_expect_reference(dir, ref_dir, /*expect_resumed=*/true);
  const std::string log = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(log.find("checkpoint " + head(dir) + " unusable (version: "),
            std::string::npos)
      << log;
  EXPECT_NE(log.find("falling back to the previous snapshot"),
            std::string::npos)
      << log;
}

}  // namespace
}  // namespace ccfuzz::campaign
