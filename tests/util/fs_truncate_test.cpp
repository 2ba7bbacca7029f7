// Edge cases for truncate_torn_tail, the crash-repair primitive every
// line-oriented append file (JSONL feeds, quarantine index) leans on. The
// chaos tests exercise the common torn-line path; these pin the boundaries:
// empty files, files that are all tail, and tails longer than one read chunk.
#include "util/fs.h"

#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "test_support.h"

namespace ccfuzz {
namespace {

class TruncateTornTailTest : public test::ScratchDirTest {
 protected:
  void write_raw(const std::string& body) {
    std::ofstream os(path_, std::ios::binary | std::ios::trunc);
    os << body;
  }

  std::string read_back() const { return test::slurp(path_); }

  const std::string path_ = (base_ / "feed.jsonl").string();
};

TEST_F(TruncateTornTailTest, EmptyFileIsAlreadyClean) {
  write_raw("");
  Result<std::uint64_t> dropped = truncate_torn_tail(path_);
  ASSERT_TRUE(dropped) << dropped.error().message;
  EXPECT_EQ(*dropped, 0u);
  EXPECT_EQ(read_back(), "");
}

TEST_F(TruncateTornTailTest, SingleFullyTornLineTruncatesToEmpty) {
  // A crash before the first '\n' ever landed: the whole file is tail.
  write_raw("{\"event\":\"campaign_beg");
  Result<std::uint64_t> dropped = truncate_torn_tail(path_);
  ASSERT_TRUE(dropped) << dropped.error().message;
  EXPECT_EQ(*dropped, 22u);
  EXPECT_EQ(read_back(), "");
}

TEST_F(TruncateTornTailTest, NoTrailingNewlineDropsOnlyTheTornTail) {
  write_raw("{\"a\":1}\n{\"b\":2}\n{\"c\":");
  Result<std::uint64_t> dropped = truncate_torn_tail(path_);
  ASSERT_TRUE(dropped) << dropped.error().message;
  EXPECT_EQ(*dropped, 5u);
  EXPECT_EQ(read_back(), "{\"a\":1}\n{\"b\":2}\n");
}

TEST_F(TruncateTornTailTest, NewlineOnlyFileIsClean) {
  write_raw("\n");
  Result<std::uint64_t> dropped = truncate_torn_tail(path_);
  ASSERT_TRUE(dropped) << dropped.error().message;
  EXPECT_EQ(*dropped, 0u);
  EXPECT_EQ(read_back(), "\n");
}

TEST_F(TruncateTornTailTest, TornTailLongerThanOneReadChunk) {
  // The scan for the last newline must walk backwards across buffer
  // boundaries: bury the newline more than 8 KiB before EOF.
  const std::string good = "complete line\n";
  const std::string torn(10'000, 'x');
  write_raw(good + torn);
  Result<std::uint64_t> dropped = truncate_torn_tail(path_);
  ASSERT_TRUE(dropped) << dropped.error().message;
  EXPECT_EQ(*dropped, torn.size());
  EXPECT_EQ(read_back(), good);
}

TEST_F(TruncateTornTailTest, RepairIsIdempotent) {
  write_raw("{\"a\":1}\n{\"half");
  ASSERT_TRUE(truncate_torn_tail(path_));
  Result<std::uint64_t> again = truncate_torn_tail(path_);
  ASSERT_TRUE(again) << again.error().message;
  EXPECT_EQ(*again, 0u);
  EXPECT_EQ(read_back(), "{\"a\":1}\n");
}

}  // namespace
}  // namespace ccfuzz
