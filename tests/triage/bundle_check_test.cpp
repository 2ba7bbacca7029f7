// check_bundle: the one definition of a sound finding bundle, shared by
// `ccfuzz replay` and `ccfuzz doctor`. Each damaged bundle is refused with a
// typed Error, a bundle from a cell outside the matrix comes back without a
// cell, and replay_findings counts every one of them as broken.
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/campaign.h"
#include "fuzz/score.h"
#include "test_support.h"
#include "trace/hash.h"
#include "trace/trace_io.h"
#include "triage/bundle.h"
#include "triage/triage.h"

namespace ccfuzz::triage {
namespace {

namespace stdfs = std::filesystem;

constexpr const char* kId = "00000000000000aa";
constexpr const char* kOtherId = "00000000000000bb";

campaign::CellConfig reno_cell() {
  campaign::CellConfig cell;
  cell.cca = "reno";
  cell.name = "reno.traffic.low-utilization";
  cell.scenario.duration = TimeNs::seconds(1);
  cell.score = std::make_shared<fuzz::LowUtilizationScore>();
  return cell;
}

trace::Trace traffic_trace(int events) {
  trace::Trace t;
  t.kind = trace::TraceKind::kTraffic;
  t.duration = TimeNs::seconds(1);
  for (int i = 0; i < events; ++i) t.stamps.push_back(TimeNs::millis(i * 10));
  return t;
}

class BundleCheckTest : public test::ScratchDirTest {
 protected:
  /// A sound manifest for `cells_[0]` describing traffic_trace(20) shrunk to
  /// traffic_trace(5).
  BundleManifest manifest(const std::string& id) const {
    BundleManifest m;
    m.id = id;
    m.source = "winner";
    m.cell = cells_[0].name;
    m.cca = "reno";
    m.mode = "traffic";
    m.score = "low-utilization";
    m.scenario_hash =
        trace::hash_hex(campaign::scenario_key(cells_[0].scenario));
    m.duration_ms = 1000;
    m.original_events = 20;
    m.minimized_events = 5;
    return m;
  }

  /// Writes bundle `dir_name` and returns its directory.
  std::string write(const std::string& dir_name, const BundleManifest& m,
                    int original_events = 20, int minimized_events = 5) {
    const std::string dir = (base_ / dir_name).string();
    EXPECT_FALSE(save_bundle(dir, m, traffic_trace(original_events),
                             traffic_trace(minimized_events)));
    return dir;
  }
  std::string sound(const std::string& id) { return write(id, manifest(id)); }

  // One writer per kind of damage: each writes bundle `id` and returns its
  // directory.
  std::string id_mismatch(const std::string& id) {
    return write(id, manifest("00000000000000ff"));
  }
  std::string wrong_count(const std::string& id) {
    BundleManifest m = manifest(id);
    m.minimized_events = 6;  // the minimized trace holds 5
    return write(id, m);
  }
  std::string minimized_larger(const std::string& id) {
    BundleManifest m = manifest(id);
    m.original_events = 5;  // counts match the files; the shrink grew
    m.minimized_events = 20;
    return write(id, m, 5, 20);
  }
  std::string missing_trace(const std::string& id) {
    const std::string dir = sound(id);
    stdfs::remove(dir + "/" + kOriginalTraceFile);
    return dir;
  }
  std::string drifted(const std::string& id) {
    BundleManifest m = manifest(id);
    m.scenario_hash = "0000000000000000";
    return write(id, m);
  }
  std::string foreign(const std::string& id) {
    BundleManifest m = manifest(id);
    m.cell = "cubic.traffic.low-utilization";
    return write(id, m);
  }

  /// check_bundle's error code for `dir` (kOk when it passes).
  Error::Code refusal(const std::string& dir) const {
    Result<CheckedBundle> b = check_bundle(dir, cells_);
    return b ? Error::Code::kOk : b.error().code;
  }

  std::vector<campaign::CellConfig> cells_ = {reno_cell()};
};

TEST_F(BundleCheckTest, SoundBundleYieldsManifestTraceAndCell) {
  Result<CheckedBundle> b = check_bundle(sound(kId), cells_);
  ASSERT_TRUE(b) << b.error().message;
  EXPECT_EQ(b->manifest.id, kId);
  EXPECT_EQ(b->minimized.stamps, traffic_trace(5).stamps);
  EXPECT_EQ(b->cell, &cells_[0]);
}

TEST_F(BundleCheckTest, IdNotMatchingItsDirectoryIsCorrupt) {
  EXPECT_EQ(refusal(id_mismatch(kId)), Error::Code::kCorrupt);
}

TEST_F(BundleCheckTest, WrongEventCountIsCorrupt) {
  EXPECT_EQ(refusal(wrong_count(kId)), Error::Code::kCorrupt);
}

TEST_F(BundleCheckTest, MinimizedLargerThanOriginalIsCorrupt) {
  EXPECT_EQ(refusal(minimized_larger(kId)), Error::Code::kCorrupt);
}

TEST_F(BundleCheckTest, UnloadableTraceKeepsTheLoadersErrorCode) {
  EXPECT_EQ(refusal(missing_trace(kId)), Error::Code::kIo);

  const std::string dir = sound(kOtherId);
  const std::string path = dir + "/" + kMinimizedTraceFile;
  std::ofstream(path, std::ios::binary | std::ios::trunc) << "not a trace\n";
  const Result<trace::Trace> direct = trace::try_load_trace(path);
  ASSERT_FALSE(direct);
  Result<CheckedBundle> b = check_bundle(dir, cells_);
  ASSERT_FALSE(b);
  EXPECT_EQ(b.error().code, direct.error().code);
  EXPECT_NE(b.error().message.find(kMinimizedTraceFile), std::string::npos)
      << b.error().message;
}

TEST_F(BundleCheckTest, ScenarioDriftIsMismatch) {
  EXPECT_EQ(refusal(drifted(kId)), Error::Code::kMismatch);
  // The same drift seen from the other side: the matrix moved.
  std::vector<campaign::CellConfig> moved = cells_;
  moved[0].scenario.duration = TimeNs::seconds(3);
  Result<CheckedBundle> b = check_bundle(sound(kOtherId), moved);
  ASSERT_FALSE(b);
  EXPECT_EQ(b.error().code, Error::Code::kMismatch);
}

TEST_F(BundleCheckTest, ForeignCellComesBackWithoutACell) {
  Result<CheckedBundle> b = check_bundle(foreign(kId), cells_);
  ASSERT_TRUE(b) << b.error().message;
  EXPECT_EQ(b->cell, nullptr);
}

TEST_F(BundleCheckTest, ReplayCountsEveryRefusedBundleAsBroken) {
  id_mismatch("0000000000000001");
  wrong_count("0000000000000002");
  minimized_larger("0000000000000003");
  missing_trace("0000000000000004");
  drifted("0000000000000005");
  foreign("0000000000000006");
  Result<ReplayStats> rp = replay_findings(cells_, base_.string());
  ASSERT_TRUE(rp) << rp.error().message;
  EXPECT_EQ(rp->bundles, 6);
  EXPECT_EQ(rp->broken, 6);
  EXPECT_EQ(rp->ok, 0);
  EXPECT_EQ(rp->drifted, 0);
}

}  // namespace
}  // namespace ccfuzz::triage
