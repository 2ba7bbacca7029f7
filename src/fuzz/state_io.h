// Binary codecs for GA runtime state (campaign checkpoints).
//
// Members, evaluations and GenStats are encoded with the util/record_io
// payload primitives: doubles as raw IEEE-754 bits (resumed campaigns must
// be bit-identical), counts as varints, genomes as kind, duration and
// count followed by delta-varint stamps, and coverage bitmaps only when the
// evaluation carries valid coverage. Readers keep their first failure in
// the RecordReader and return RecordReader::ok(); a decoded genome that
// breaks the Trace contract (well_formed()) is kCorrupt.
#pragma once

#include <cstdint>

#include "fuzz/fuzzer.h"
#include "util/record_io.h"

namespace ccfuzz::fuzz::state_io {

/// Section tags of a campaign checkpoint, in file order: one kCampaign
/// header, then per cell a kCell, a kFuzzer and (when the fuzzer tracks
/// one) a kArchive section, then one kCache section.
enum Section : std::uint32_t {
  kCampaign = 1,
  kCell = 2,
  kFuzzer = 3,
  kArchive = 4,
  kCache = 5,
};

void write_eval(record_io::RecordWriter& w, const Evaluation& e);
bool read_eval(record_io::RecordReader& r, Evaluation& e);

/// Kind, duration, stamp count, then each stamp as the unsigned (mod 2^64)
/// difference from its predecessor — one or two bytes per stamp for the
/// sorted genomes the GA breeds, and still exact for any other sequence.
void write_genome(record_io::RecordWriter& w, const trace::Trace& t);
bool read_genome(record_io::RecordReader& r, trace::Trace& t);

void write_member(record_io::RecordWriter& w, const Member& m);
bool read_member(record_io::RecordReader& r, Member& m);

void write_genstats(record_io::RecordWriter& w, const GenStats& gs);
bool read_genstats(record_io::RecordReader& r, GenStats& gs);

}  // namespace ccfuzz::fuzz::state_io
