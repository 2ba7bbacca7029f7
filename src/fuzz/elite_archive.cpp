#include "fuzz/elite_archive.h"

#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "trace/trace_io.h"

namespace ccfuzz::fuzz {
namespace {

/// Saturating quantizer onto kBuckets buckets: exact for small values,
/// log-ish above, so the low end of every axis (where most runs land) keeps
/// resolution while heavy-tailed runs still separate.
std::size_t quantize8(unsigned v) {
  if (v <= 4) return v;
  if (v <= 6) return 5;
  if (v <= 10) return 6;
  return 7;
}

constexpr const char* kMagic = "# ccfuzz-archive v1";

void write_hex_words(std::ostream& os, const coverage::CoverageBitmap& map) {
  os << std::hex;
  for (std::size_t i = 0; i < coverage::CoverageBitmap::kWords; ++i) {
    os << (i == 0 ? "" : " ") << map.words[i];
  }
  os << std::dec;
}

bool read_hex_words(std::istringstream& is, coverage::CoverageBitmap& map) {
  is >> std::hex;
  for (auto& w : map.words) {
    if (!(is >> w)) return false;
  }
  return true;
}

}  // namespace

EliteArchive::EliteArchive() { slot_of_.fill(kNoSlot); }

const EliteArchive::Cell& EliteArchive::cell(std::size_t index) const {
  static const Cell kEmpty;
  const std::uint16_t slot = slot_of_[index];
  return slot == kNoSlot ? kEmpty : slots_[slot];
}

EliteArchive::Cell& EliteArchive::claim(std::size_t index) {
  // Reserved whole on first use (and again in a copy, whose capacity is its
  // size): slots never move, so warm inserts never reallocate.
  if (slots_.capacity() < kCells) {
    slots_.reserve(kCells);
    occupied_.reserve(kCells);
  }
  slot_of_[index] = static_cast<std::uint16_t>(slots_.size());
  occupied_.push_back(static_cast<std::uint16_t>(index));
  Cell& c = slots_.emplace_back();
  c.occupied = true;
  return c;
}

EliteArchive::Cell* EliteArchive::accept(std::size_t index, double score) {
  if (slot_of_[index] == kNoSlot) return &claim(index);
  Cell& c = slots_[slot_of_[index]];
  // Ties keep the incumbent, so re-inserted elites never churn.
  return score > c.eval.score.total() ? &c : nullptr;
}

std::size_t EliteArchive::cell_index(const coverage::BehaviorDescriptor& d) {
  std::size_t idx = quantize8(d.state_transitions);
  idx = idx * kBuckets + quantize8(d.rtt_spread);
  idx = idx * kBuckets + quantize8(d.max_backoff);
  idx = idx * kBuckets + quantize8(d.cwnd_span);
  return idx;
}

EliteArchive::InsertResult EliteArchive::insert(const trace::Trace& genome,
                                                const Evaluation& eval) {
  InsertResult r;
  if (!eval.coverage.valid) return r;
  r.fresh_bits = union_map_.merge_count_new(eval.coverage.bitmap);
  union_bits_ += r.fresh_bits;
  r.cell = cell_index(eval.coverage.descriptor);

  r.new_cell = slot_of_[r.cell] == kNoSlot;
  Cell* c = accept(r.cell, eval.score.total());
  if (c == nullptr) return r;
  r.improved = !r.new_cell;
  // Copy-assign into the incumbent's buffers: warm replacements reuse the
  // stamp/goodput vector capacities and allocate nothing.
  c->genome = genome;
  c->eval = eval;
  return r;
}

std::size_t EliteArchive::merge_from(const EliteArchive& other) {
  union_bits_ += union_map_.merge_count_new(other.union_map_);
  std::size_t changed = 0;
  for (std::size_t k = 0; k < other.slots_.size(); ++k) {
    const Cell& theirs = other.slots_[k];
    Cell* ours = accept(other.occupied_[k], theirs.eval.score.total());
    if (ours == nullptr) continue;
    ours->genome = theirs.genome;
    ours->eval = theirs.eval;
    ++changed;
  }
  return changed;
}

const EliteArchive::Cell& EliteArchive::sample(Rng& rng) const {
  const std::size_t pick = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(occupied_.size()) - 1));
  return slots_[pick];
}

void EliteArchive::save(std::ostream& os) const {
  os << kMagic << "\n";
  os << "# cells " << occupied_.size() << "\n";
  os << "# union ";
  write_hex_words(os, union_map_);
  os << "\n";
  os << std::setprecision(17);
  for (std::size_t k = 0; k < slots_.size(); ++k) {
    const Cell& c = slots_[k];
    os << "# entry " << occupied_[k] << "\n";
    os << "# score " << c.eval.score.performance << " " << c.eval.score.trace
       << "\n";
    const auto& d = c.eval.coverage.descriptor;
    os << "# desc " << +d.state_transitions << " " << +d.rtt_spread << " "
       << +d.max_backoff << " " << +d.cwnd_span << " " << +d.event_mask << " "
       << +d.cca_states << "\n";
    os << "# bits " << c.eval.coverage.bits << "\n";
    os << "# map ";
    write_hex_words(os, c.eval.coverage.bitmap);
    os << "\n";
    trace::write_trace(os, c.genome);
    os << "# end entry\n";
  }
  if (!os) throw std::runtime_error("archive write failed");
}

void EliteArchive::save_file(const std::string& path) const {
  std::ofstream f(path, std::ios::trunc);
  if (!f) {
    throw std::runtime_error("cannot open archive file for write: " + path);
  }
  save(f);
}

Result<EliteArchive> EliteArchive::try_load(std::istream& is) {
  EliteArchive a;
  std::string line;
  if (!std::getline(is, line)) {
    return Error::truncated("archive: empty input");
  }
  if (line != kMagic) {
    if (line.rfind("# ccfuzz-archive", 0) == 0) {
      return Error::version("archive: unsupported format version: " + line);
    }
    return Error::parse("archive: missing magic header");
  }

  bool in_entry = false;
  std::size_t entry_idx = 0;
  Evaluation entry_eval;
  std::ostringstream trace_buf;

  // Returns kOk or the parse failure of the embedded trace block.
  const auto finish_entry = [&]() -> Error {
    std::istringstream ts(trace_buf.str());
    Result<trace::Trace> genome = trace::try_read_trace(ts);
    if (!genome) return genome.error();
    if (entry_idx >= kCells) {
      return Error::corrupt("archive: cell index out of range");
    }
    if (a.slot_of_[entry_idx] != kNoSlot) {
      return Error::corrupt("archive: duplicate cell");
    }
    Cell& c = a.claim(entry_idx);
    c.genome = std::move(*genome);
    c.eval = entry_eval;
    a.union_map_.merge_count_new(c.eval.coverage.bitmap);
    return Error::success();
  };

  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string hash, key;
    if (line[0] == '#') {
      ls >> hash >> key;
    }
    if (key == "cells" || key == "union") {
      if (key == "union" && !read_hex_words(ls, a.union_map_)) {
        return Error::parse("archive: bad union bitmap line");
      }
      continue;
    }
    if (key == "entry") {
      if (in_entry) return Error::corrupt("archive: nested entry");
      if (!(ls >> entry_idx)) {
        return Error::parse("archive: bad entry header");
      }
      in_entry = true;
      entry_eval = Evaluation{};
      entry_eval.coverage.valid = true;
      trace_buf.str("");
      trace_buf.clear();
      continue;
    }
    if (key == "end") {
      if (!in_entry) return Error::corrupt("archive: stray end marker");
      if (Error e = finish_entry()) return e;
      in_entry = false;
      continue;
    }
    if (!in_entry) return Error::corrupt("archive: content outside entry");
    if (key == "score") {
      if (!(ls >> entry_eval.score.performance >> entry_eval.score.trace)) {
        return Error::parse("archive: bad score line");
      }
    } else if (key == "desc") {
      unsigned v[6];
      if (!(ls >> v[0] >> v[1] >> v[2] >> v[3] >> v[4] >> v[5])) {
        return Error::parse("archive: bad descriptor line");
      }
      auto& d = entry_eval.coverage.descriptor;
      d.state_transitions = static_cast<std::uint8_t>(v[0]);
      d.rtt_spread = static_cast<std::uint8_t>(v[1]);
      d.max_backoff = static_cast<std::uint8_t>(v[2]);
      d.cwnd_span = static_cast<std::uint8_t>(v[3]);
      d.event_mask = static_cast<std::uint8_t>(v[4]);
      d.cca_states = static_cast<std::uint8_t>(v[5]);
    } else if (key == "bits") {
      if (!(ls >> entry_eval.coverage.bits)) {
        return Error::parse("archive: bad bits line");
      }
    } else if (key == "map") {
      if (!read_hex_words(ls, entry_eval.coverage.bitmap)) {
        return Error::parse("archive: bad bitmap line");
      }
    } else {
      // Anything else belongs to the embedded trace_io block.
      trace_buf << line << "\n";
    }
  }
  if (in_entry) return Error::truncated("archive: truncated entry");
  a.union_bits_ = a.union_map_.count();
  return a;
}

Result<EliteArchive> EliteArchive::try_load_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) return Error::io("cannot open archive file: " + path);
  return try_load(f);
}

EliteArchive EliteArchive::load(std::istream& is) {
  Result<EliteArchive> r = try_load(is);
  if (!r) throw std::runtime_error(r.error().message);
  return std::move(*r);
}

EliteArchive EliteArchive::load_file(const std::string& path) {
  Result<EliteArchive> r = try_load_file(path);
  if (!r) throw std::runtime_error(r.error().message);
  return std::move(*r);
}

}  // namespace ccfuzz::fuzz
