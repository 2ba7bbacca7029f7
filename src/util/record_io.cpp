#include "util/record_io.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "trace/hash.h"

namespace ccfuzz::record_io {
namespace {

/// Bytes before a section's payload: tag (u32) + length (u64).
constexpr std::size_t kSectionHeader = 12;
constexpr std::size_t kChecksum = 8;
constexpr std::size_t kMagic = 8;
constexpr std::size_t kFileHeader = kMagic + 4;

std::uint64_t get_le(const char* p, int bytes) {
  std::uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

}  // namespace

// --- RecordWriter -------------------------------------------------------------

void RecordWriter::grow(std::size_t n) {
  buf_.resize(std::max(2 * buf_.size(), len_ + n));
}

void RecordWriter::begin(std::string_view magic, std::uint32_t version) {
  assert(magic.size() == kMagic);
  len_ = 0;
  magic.substr(0, kMagic).copy(room(kMagic), kMagic);
  len_ += kMagic;
  put_le(version, 4);
}

void RecordWriter::begin_section(std::uint32_t tag) {
  section_start_ = len_;
  put_le(tag, 4);
  put_le(0, 8);  // length, back-filled by end_section()
}

void RecordWriter::end_section() {
  const std::uint64_t len = len_ - section_start_ - kSectionHeader;
  for (int i = 0; i < 8; ++i) {
    buf_[section_start_ + 4 + i] = static_cast<char>(len >> (8 * i));
  }
  const std::string_view section(buf_.data() + section_start_,
                                 len_ - section_start_);
  put_le(trace::fnv1a_bytes(trace::kFnvOffset, section), 8);
}

std::string_view RecordWriter::finish() {
  begin_section(kEndTag);
  end_section();
  return {buf_.data(), len_};
}

void RecordWriter::bytes(std::string_view s) {
  u64(s.size());
  std::copy(s.begin(), s.end(), room(s.size()));
  len_ += s.size();
}

// --- RecordReader -------------------------------------------------------------

Result<RecordReader> RecordReader::open(std::string_view file,
                                        std::string_view magic,
                                        std::uint32_t version) {
  assert(magic.size() == kMagic);
  const std::string_view head = file.substr(0, kMagic);
  if (head != magic.substr(0, head.size())) {
    return Error::parse("record: bad magic");
  }
  if (file.size() < kFileHeader) {
    return Error::truncated("record: file ends inside the header");
  }
  const std::uint64_t v = get_le(file.data() + kMagic, 4);
  if (v != version) {
    return Error::version("record: unsupported version " + std::to_string(v) +
                          " (expected " + std::to_string(version) + ")");
  }
  return RecordReader(file, kFileHeader);
}

bool RecordReader::next_section(std::uint32_t& tag) {
  if (!ok()) return false;
  assert(!in_section_);
  const std::size_t left = file_.size() - pos_;
  if (left < kSectionHeader + kChecksum) {
    fail(Error::truncated("record: file ends before the end marker"));
    return false;
  }
  const char* p = file_.data() + pos_;
  tag = static_cast<std::uint32_t>(get_le(p, 4));
  const std::uint64_t len = get_le(p + 4, 8);
  if (len > left - kSectionHeader - kChecksum) {
    fail(Error::truncated("record: file ends inside section " +
                          std::to_string(tag)));
    return false;
  }
  const std::size_t body = kSectionHeader + static_cast<std::size_t>(len);
  const std::uint64_t sum =
      trace::fnv1a_bytes(trace::kFnvOffset, file_.substr(pos_, body));
  if (sum != get_le(p + body, 8)) {
    fail(Error::corrupt("record: checksum mismatch in section " +
                        std::to_string(tag)));
    return false;
  }
  pos_ += kSectionHeader;
  end_ = pos_ + static_cast<std::size_t>(len);
  in_section_ = true;
  return true;
}

bool RecordReader::enter(std::uint32_t tag) {
  std::uint32_t found = 0;
  if (!next_section(found)) return false;
  if (found != tag) {
    fail(Error::parse("record: expected section " + std::to_string(tag) +
                      ", found " + std::to_string(found)));
  }
  return ok();
}

bool RecordReader::leave() {
  if (!in_section_) return ok();
  if (ok() && pos_ != end_) {
    fail(Error::corrupt("record: unread bytes at the end of a section"));
  }
  pos_ = end_ + kChecksum;
  end_ = file_.size();
  in_section_ = false;
  return ok();
}

Error RecordReader::finish() {
  if (enter(kEndTag) && leave() && pos_ != file_.size()) {
    fail(Error::corrupt("record: bytes after the end marker"));
  }
  return err_;
}

Error RecordReader::verify_all() {
  std::uint32_t tag = 0;
  while (next_section(tag) && tag != kEndTag) {
    pos_ = end_;
    leave();
  }
  // Inside the end marker now, unless a section failed.
  if (leave() && pos_ != file_.size()) {
    fail(Error::corrupt("record: bytes after the end marker"));
  }
  return err_;
}

const char* RecordReader::take(std::size_t n) {
  if (!ok()) return nullptr;
  if (end_ - pos_ < n) {
    fail(Error::truncated("record: short read"));
    return nullptr;
  }
  const char* p = file_.data() + pos_;
  pos_ += n;
  return p;
}

std::uint64_t RecordReader::u64() {
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    const char* p = take(1);
    if (p == nullptr) return 0;
    const auto b = static_cast<unsigned char>(*p);
    if (shift == 63 && b > 1) break;  // bits beyond the 64th
    v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) return v;
  }
  fail(Error::corrupt("record: varint overflows 64 bits"));
  return 0;
}

std::int64_t RecordReader::i64() {
  const std::uint64_t u = u64();
  return static_cast<std::int64_t>((u >> 1) ^ (~(u & 1) + 1));
}

double RecordReader::f64() { return std::bit_cast<double>(fixed64()); }

std::uint64_t RecordReader::fixed64() {
  const char* p = take(8);
  return p == nullptr ? 0 : get_le(p, 8);
}

std::string_view RecordReader::bytes() {
  const std::size_t n = count();
  const char* p = take(n);
  return p == nullptr ? std::string_view() : std::string_view(p, n);
}

std::size_t RecordReader::count() {
  const std::uint64_t n = u64();
  if (n > end_ - pos_) {
    fail(Error::corrupt("record: count exceeds the section"));
    return 0;
  }
  return static_cast<std::size_t>(n);
}

void RecordReader::fail(Error e) {
  if (ok()) err_ = std::move(e);
}

}  // namespace ccfuzz::record_io
