// Binary record codec: the on-disk format of campaign checkpoints.
//
// A record file is a header followed by tagged sections and an end marker:
//
//   header   magic (8 bytes) | version (u32 LE)
//   section  tag (u32 LE) | payload length (u64 LE) | payload | checksum
//   end      a section with tag kEndTag and an empty payload
//
// The checksum is FNV-1a-64 (the trace::hash function) over the section's
// tag, length and payload bytes, stored little-endian. Nothing may follow
// the end marker, so a file cut at a section boundary is still detected as
// truncated.
//
// Payload primitives: LEB128 varints for counts, flags and ids (zigzag for
// signed values), and raw little-endian IEEE-754 bits for doubles, which
// round-trip bit-exactly without any decimal formatting.
//
// Every reader failure maps to a typed Error: a short read is kTruncated, a
// checksum mismatch or semantically impossible content is kCorrupt, a
// foreign magic or an unexpected section tag is kParse, and the right magic
// with another version is kVersion. The reader never throws and never reads
// outside its input, whatever the bytes.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/error.h"

namespace ccfuzz::record_io {

/// Tag of the end-marker section. Payload sections use other tags.
inline constexpr std::uint32_t kEndTag = 0;

/// Builds a record file in a buffer that keeps its capacity across files,
/// so a writer reused every generation allocates only while it grows.
class RecordWriter {
 public:
  /// Discards any previous content and writes the header. `magic` must be
  /// exactly 8 bytes.
  void begin(std::string_view magic, std::uint32_t version);
  /// Opens a section; payload writes go into it until end_section().
  void begin_section(std::uint32_t tag);
  /// Closes the open section: back-fills its length, appends its checksum.
  void end_section();
  /// Appends the end marker and returns the finished file, valid until the
  /// next begin().
  std::string_view finish();

  /// Unsigned LEB128 varint.
  void u64(std::uint64_t v) {
    char* const start = room(10);
    char* p = start;
    while (v >= 0x80) {
      *p++ = static_cast<char>(v | 0x80);
      v >>= 7;
    }
    *p++ = static_cast<char>(v);
    len_ += static_cast<std::size_t>(p - start);
  }
  /// Zigzag-encoded signed varint.
  void i64(std::int64_t v) {
    const auto u = static_cast<std::uint64_t>(v);
    u64((u << 1) ^ (v < 0 ? ~std::uint64_t{0} : 0));
  }
  /// Raw little-endian IEEE-754 bits.
  void f64(double v) { fixed64(std::bit_cast<std::uint64_t>(v)); }
  /// Raw little-endian 64-bit word (dense bit sets).
  void fixed64(std::uint64_t v) { put_le(v, 8); }
  /// Varint length, then the bytes.
  void bytes(std::string_view s);

 private:
  /// Makes room for `n` more bytes; returns where they start.
  char* room(std::size_t n) {
    if (buf_.size() - len_ < n) grow(n);
    return buf_.data() + len_;
  }
  void grow(std::size_t n);
  void put_le(std::uint64_t v, int bytes) {
    char* const p = room(8);
    for (int i = 0; i < bytes; ++i) p[i] = static_cast<char>(v >> (8 * i));
    len_ += static_cast<std::size_t>(bytes);
  }

  std::string buf_;      ///< scratch; bytes [0, len_) are the file so far
  std::size_t len_ = 0;
  std::size_t section_start_ = 0;
};

/// Decodes a record file held in memory. Reads are bounds-checked against
/// the current section's payload; the first failure is kept (error()) and
/// every later read returns zero, so decoders check once per structure
/// instead of after every field.
class RecordReader {
 public:
  /// Checks the header. kTruncated when `file` is shorter than it, kParse
  /// for another magic, kVersion for this magic with another version.
  /// `file` must outlive the reader.
  static Result<RecordReader> open(std::string_view file,
                                   std::string_view magic,
                                   std::uint32_t version);

  /// Enters the next section, which must carry `tag` (kParse otherwise), and
  /// verifies its checksum (kCorrupt) before any of its payload is read.
  /// Returns ok().
  bool enter(std::uint32_t tag);
  /// Leaves the current section; unread payload bytes are kCorrupt.
  /// Returns ok().
  bool leave();
  /// Expects the end marker and the end of the file. Returns error().
  Error finish();
  /// Verifies every remaining section's checksum and the end marker
  /// without decoding payloads (structural health checks).
  Error verify_all();

  std::uint64_t u64();
  std::int64_t i64();
  double f64();
  std::uint64_t fixed64();
  /// The view points into the file.
  std::string_view bytes();
  /// A varint element count, refused (kCorrupt) when it exceeds the bytes
  /// left in the section — every element takes at least one byte, so this
  /// bounds reserve() calls on hostile input.
  std::size_t count();

  /// Records `e` unless an earlier failure is already kept.
  void fail(Error e);
  bool ok() const { return err_.ok(); }
  const Error& error() const { return err_; }

 private:
  RecordReader(std::string_view file, std::size_t pos)
      : file_(file), pos_(pos), end_(file.size()) {}

  /// Takes `n` raw bytes of the current section, or nullptr on a short read.
  const char* take(std::size_t n);
  /// Enters the next section whatever its tag; returns the tag.
  bool next_section(std::uint32_t& tag);

  std::string_view file_;
  std::size_t pos_ = 0;  ///< read position in file_
  std::size_t end_ = 0;  ///< end of the current section payload (or file)
  bool in_section_ = false;
  Error err_;
};

}  // namespace ccfuzz::record_io
