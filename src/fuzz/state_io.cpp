#include "fuzz/state_io.h"

#include "coverage/probe.h"

namespace ccfuzz::fuzz::state_io {
namespace {

using record_io::RecordReader;
using record_io::RecordWriter;

// Evaluation flag bits.
constexpr std::uint64_t kStalled = 1;
constexpr std::uint64_t kTruncated = 2;
constexpr std::uint64_t kQuarantined = 4;
constexpr std::uint64_t kCoverage = 8;
constexpr std::uint64_t kAllFlags = 15;

std::uint64_t pack(const coverage::BehaviorDescriptor& d) {
  return std::uint64_t{d.state_transitions} | std::uint64_t{d.rtt_spread} << 8 |
         std::uint64_t{d.max_backoff} << 16 | std::uint64_t{d.cwnd_span} << 24 |
         std::uint64_t{d.event_mask} << 32 | std::uint64_t{d.cca_states} << 40;
}

void unpack(std::uint64_t v, coverage::BehaviorDescriptor& d) {
  const auto byte = [v](int i) { return static_cast<std::uint8_t>(v >> 8 * i); };
  d.state_transitions = byte(0);
  d.rtt_spread = byte(1);
  d.max_backoff = byte(2);
  d.cwnd_span = byte(3);
  d.event_mask = byte(4);
  d.cca_states = byte(5);
}

void write_doubles(RecordWriter& w, const std::vector<double>& v) {
  w.u64(v.size());
  for (const double x : v) w.f64(x);
}

void read_doubles(RecordReader& r, std::vector<double>& v) {
  v.resize(r.count());
  for (double& x : v) x = r.f64();
}

}  // namespace

void write_eval(RecordWriter& w, const Evaluation& e) {
  w.f64(e.score.performance);
  w.f64(e.score.trace);
  w.f64(e.goodput_mbps);
  w.i64(e.cca_sent);
  w.i64(e.cca_delivered);
  w.i64(e.cca_drops);
  w.i64(e.cross_sent);
  w.i64(e.cross_drops);
  w.i64(e.rto_count);
  w.f64(e.p10_delay_s);
  w.f64(e.jain_fairness);
  write_doubles(w, e.flow_goodput_mbps);
  const auto& c = e.coverage;
  w.u64((e.stalled ? kStalled : 0) | (e.truncated ? kTruncated : 0) |
        (e.quarantined ? kQuarantined : 0) | (c.valid ? kCoverage : 0));
  w.u64(static_cast<std::uint64_t>(e.truncation));
  if (!c.valid) return;
  w.u64(c.bits);
  w.u64(pack(c.descriptor));
  for (const std::uint64_t word : c.bitmap.words) w.fixed64(word);
}

bool read_eval(RecordReader& r, Evaluation& e) {
  e.score.performance = r.f64();
  e.score.trace = r.f64();
  e.goodput_mbps = r.f64();
  e.cca_sent = r.i64();
  e.cca_delivered = r.i64();
  e.cca_drops = r.i64();
  e.cross_sent = r.i64();
  e.cross_drops = r.i64();
  e.rto_count = r.i64();
  e.p10_delay_s = r.f64();
  e.jain_fairness = r.f64();
  read_doubles(r, e.flow_goodput_mbps);
  const std::uint64_t flags = r.u64();
  const std::uint64_t truncation = r.u64();
  if (flags > kAllFlags ||
      truncation > static_cast<std::uint64_t>(
                       sim::TruncationReason::kWallDeadline)) {
    r.fail(Error::corrupt("state: bad evaluation flags"));
    return false;
  }
  e.stalled = (flags & kStalled) != 0;
  e.truncated = (flags & kTruncated) != 0;
  e.quarantined = (flags & kQuarantined) != 0;
  e.truncation = static_cast<sim::TruncationReason>(truncation);
  auto& c = e.coverage;
  c = coverage::CoverageSignature{};
  if ((flags & kCoverage) == 0) return r.ok();
  c.valid = true;
  const std::uint64_t bits = r.u64();
  const std::uint64_t desc = r.u64();
  if (bits > coverage::CoverageBitmap::kBits || desc >> 48 != 0) {
    r.fail(Error::corrupt("state: bad coverage summary"));
    return false;
  }
  c.bits = static_cast<std::uint32_t>(bits);
  unpack(desc, c.descriptor);
  for (std::uint64_t& word : c.bitmap.words) word = r.fixed64();
  return r.ok();
}

void write_genome(RecordWriter& w, const trace::Trace& t) {
  w.u64(static_cast<std::uint64_t>(t.kind));
  w.i64(t.duration.ns());
  w.u64(t.stamps.size());
  std::uint64_t prev = 0;
  for (const TimeNs s : t.stamps) {
    const auto ns = static_cast<std::uint64_t>(s.ns());
    w.u64(ns - prev);
    prev = ns;
  }
}

bool read_genome(RecordReader& r, trace::Trace& t) {
  const std::uint64_t kind = r.u64();
  if (kind > static_cast<std::uint64_t>(trace::TraceKind::kTraffic)) {
    r.fail(Error::corrupt("state: unknown genome kind"));
    return false;
  }
  t.kind = static_cast<trace::TraceKind>(kind);
  t.duration = TimeNs(r.i64());
  t.stamps.resize(r.count());
  std::uint64_t prev = 0;
  for (TimeNs& s : t.stamps) {
    prev += r.u64();
    s = TimeNs(static_cast<std::int64_t>(prev));
  }
  if (r.ok() && !t.well_formed()) {
    r.fail(Error::corrupt("state: genome stamps not sorted within [0, duration)"));
  }
  return r.ok();
}

void write_member(RecordWriter& w, const Member& m) {
  w.u64(m.evaluated ? 1 : 0);
  w.f64(m.novelty);
  write_eval(w, m.eval);
  write_genome(w, m.genome);
}

bool read_member(RecordReader& r, Member& m) {
  const std::uint64_t evaluated = r.u64();
  if (evaluated > 1) r.fail(Error::corrupt("state: bad member flag"));
  m.evaluated = evaluated != 0;
  m.novelty = r.f64();
  return read_eval(r, m.eval) && read_genome(r, m.genome);
}

void write_genstats(RecordWriter& w, const GenStats& gs) {
  w.i64(gs.generation);
  w.f64(gs.best_score);
  w.f64(gs.mean_score);
  w.f64(gs.topk_mean_packets_sent);
  w.f64(gs.topk_mean_goodput_mbps);
  w.f64(gs.topk_mean_jain_fairness);
  write_doubles(w, gs.topk_mean_flow_goodput_mbps);
  w.i64(gs.stalled_count);
  w.i64(gs.evaluations);
  w.i64(gs.archive_cells);
  w.i64(gs.archive_new_cells);
  w.i64(gs.archive_improved);
  w.i64(gs.coverage_bits);
}

bool read_genstats(RecordReader& r, GenStats& gs) {
  gs.generation = static_cast<int>(r.i64());
  gs.best_score = r.f64();
  gs.mean_score = r.f64();
  gs.topk_mean_packets_sent = r.f64();
  gs.topk_mean_goodput_mbps = r.f64();
  gs.topk_mean_jain_fairness = r.f64();
  read_doubles(r, gs.topk_mean_flow_goodput_mbps);
  gs.stalled_count = static_cast<int>(r.i64());
  gs.evaluations = r.i64();
  gs.archive_cells = r.i64();
  gs.archive_new_cells = r.i64();
  gs.archive_improved = r.i64();
  gs.coverage_bits = r.i64();
  return r.ok();
}

}  // namespace ccfuzz::fuzz::state_io
