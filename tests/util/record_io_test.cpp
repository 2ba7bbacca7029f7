// The binary record codec: primitives round-trip exactly, and every way a
// file can be damaged maps to its typed Error.
#include "util/record_io.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

namespace ccfuzz::record_io {
namespace {

constexpr std::string_view kMagic = "ccfztest";
constexpr std::uint32_t kTag = 7;

/// One section holding `body`'s payload, then the end marker.
template <typename Body>
std::string one_section(Body body, std::uint32_t version = 1) {
  RecordWriter w;
  w.begin(kMagic, version);
  w.begin_section(kTag);
  body(w);
  w.end_section();
  return std::string(w.finish());
}

TEST(RecordIo, PrimitivesRoundTripExactly) {
  const std::uint64_t words[] = {0, 1, 127, 128, 300, 1ULL << 56,
                                 std::numeric_limits<std::uint64_t>::max()};
  const std::int64_t ints[] = {0, -1, 1, std::numeric_limits<std::int64_t>::min(),
                               std::numeric_limits<std::int64_t>::max()};
  const double reals[] = {0.0, -0.0, 1.0 / 3.0, -1e-308,
                          std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::denorm_min()};
  const std::string file = one_section([&](RecordWriter& w) {
    for (const auto v : words) w.u64(v);
    for (const auto v : ints) w.i64(v);
    for (const auto v : reals) w.f64(v);
    w.f64(std::nan("0x5eed"));
    w.fixed64(0xDEADBEEFCAFEF00DULL);
    w.bytes("name.with spaces");
    w.bytes("");
  });

  Result<RecordReader> r = RecordReader::open(file, kMagic, 1);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->enter(kTag));
  for (const auto v : words) EXPECT_EQ(r->u64(), v);
  for (const auto v : ints) EXPECT_EQ(r->i64(), v);
  for (const auto v : reals) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r->f64()),
              std::bit_cast<std::uint64_t>(v));
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r->f64()),
            std::bit_cast<std::uint64_t>(std::nan("0x5eed")));
  EXPECT_EQ(r->fixed64(), 0xDEADBEEFCAFEF00DULL);
  EXPECT_EQ(r->bytes(), "name.with spaces");
  EXPECT_EQ(r->bytes(), "");
  EXPECT_TRUE(r->leave());
  EXPECT_FALSE(r->finish());
}

TEST(RecordIo, VarintsUseTheFewestBytes) {
  const std::string empty = one_section([](RecordWriter&) {});
  const auto payload = [&](std::uint64_t v) {
    return one_section([v](RecordWriter& w) { w.u64(v); }).size() -
           empty.size();
  };
  EXPECT_EQ(payload(0), 1u);
  EXPECT_EQ(payload(127), 1u);
  EXPECT_EQ(payload(128), 2u);
  EXPECT_EQ(payload(std::numeric_limits<std::uint64_t>::max()), 10u);
}

TEST(RecordIo, WriterReuseStartsAFreshFile) {
  RecordWriter w;
  w.begin(kMagic, 1);
  w.begin_section(kTag);
  for (int i = 0; i < 1000; ++i) w.u64(1ULL << 40);
  w.end_section();
  const std::string big(w.finish());
  const std::string small = one_section([](RecordWriter& x) { x.u64(5); });
  w.begin(kMagic, 1);
  w.begin_section(kTag);
  w.u64(5);
  w.end_section();
  EXPECT_EQ(std::string(w.finish()), small);
  EXPECT_GT(big.size(), small.size());
}

TEST(RecordIo, HeaderFailuresAreTyped) {
  const std::string good = one_section([](RecordWriter& w) { w.u64(1); });
  EXPECT_EQ(RecordReader::open("", kMagic, 1).error().code,
            Error::Code::kTruncated);
  EXPECT_EQ(RecordReader::open(good.substr(0, 5), kMagic, 1).error().code,
            Error::Code::kTruncated);
  EXPECT_EQ(RecordReader::open(good.substr(0, 10), kMagic, 1).error().code,
            Error::Code::kTruncated);
  EXPECT_EQ(RecordReader::open("not a record file", kMagic, 1).error().code,
            Error::Code::kParse);
  EXPECT_EQ(RecordReader::open(good, "ccfzothr", 1).error().code,
            Error::Code::kParse);
  EXPECT_EQ(RecordReader::open(good, kMagic, 2).error().code,
            Error::Code::kVersion);
}

TEST(RecordIo, EveryTruncationIsTypedTruncated) {
  const std::string good = one_section([](RecordWriter& w) {
    w.u64(42);
    w.f64(2.5);
    w.bytes("payload");
  });
  for (std::size_t n = 0; n < good.size(); ++n) {
    const std::string cut = good.substr(0, n);
    Result<RecordReader> r = RecordReader::open(cut, kMagic, 1);
    if (!r) {
      EXPECT_EQ(r.error().code, Error::Code::kTruncated) << n;
      continue;
    }
    EXPECT_EQ(r->verify_all().code, Error::Code::kTruncated) << n;
  }
}

TEST(RecordIo, EveryByteFlipIsCaught) {
  const std::string good = one_section([](RecordWriter& w) {
    w.u64(42);
    w.f64(2.5);
    w.bytes("payload");
  });
  for (std::size_t i = 0; i < good.size(); ++i) {
    std::string bad = good;
    bad[i] = static_cast<char>(bad[i] ^ 0x10);
    Result<RecordReader> r = RecordReader::open(bad, kMagic, 1);
    const Error e = r ? r->verify_all() : r.error();
    EXPECT_TRUE(static_cast<bool>(e)) << "flip at " << i;
  }
}

TEST(RecordIo, StructuralFailuresAreTyped) {
  const std::string good = one_section([](RecordWriter& w) { w.u64(3); });
  {  // Wrong section tag.
    Result<RecordReader> r = RecordReader::open(good, kMagic, 1);
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(r->enter(kTag + 1));
    EXPECT_EQ(r->error().code, Error::Code::kParse);
  }
  {  // Reading past the payload.
    Result<RecordReader> r = RecordReader::open(good, kMagic, 1);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(r->enter(kTag));
    EXPECT_EQ(r->u64(), 3u);
    EXPECT_EQ(r->u64(), 0u);
    EXPECT_EQ(r->error().code, Error::Code::kTruncated);
  }
  {  // Leaving with unread payload.
    Result<RecordReader> r = RecordReader::open(good, kMagic, 1);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(r->enter(kTag));
    EXPECT_FALSE(r->leave());
    EXPECT_EQ(r->error().code, Error::Code::kCorrupt);
  }
  {  // A count larger than the bytes left.
    Result<RecordReader> r = RecordReader::open(good, kMagic, 1);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(r->enter(kTag));
    EXPECT_EQ(r->count(), 0u);
    EXPECT_EQ(r->error().code, Error::Code::kCorrupt);
  }
  {  // An 11-byte varint.
    const std::string overlong = one_section([](RecordWriter& w) {
      for (int i = 0; i < 10; ++i) w.fixed64(~0ULL);
    });
    Result<RecordReader> r = RecordReader::open(overlong, kMagic, 1);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(r->enter(kTag));
    r->u64();
    EXPECT_EQ(r->error().code, Error::Code::kCorrupt);
  }
  {  // Bytes after the end marker.
    const std::string trailing = good + "!";
    Result<RecordReader> r = RecordReader::open(trailing, kMagic, 1);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->verify_all().code, Error::Code::kCorrupt);
  }
  {  // No end marker at all.
    RecordWriter w;
    w.begin(kMagic, 1);
    w.begin_section(kTag);
    w.end_section();
    const std::string body(w.finish());
    const std::string no_end = body.substr(0, body.size() - 20);
    Result<RecordReader> r = RecordReader::open(no_end, kMagic, 1);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(r->enter(kTag));
    ASSERT_TRUE(r->leave());
    EXPECT_EQ(r->finish().code, Error::Code::kTruncated);
  }
}

}  // namespace
}  // namespace ccfuzz::record_io
