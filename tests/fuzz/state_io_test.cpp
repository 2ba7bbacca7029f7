// Round-trip tests for the GA state codecs (state_io + Fuzzer
// save_state/restore_state over util/record_io): a restored fuzzer must
// continue the search bit-identically to one that never stopped.
#include "fuzz/state_io.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <stdexcept>
#include <string>

#include "campaign/campaign.h"
#include "fuzz/fuzzer.h"
#include "fuzz/score.h"
#include "trace/hash.h"

namespace ccfuzz::fuzz {
namespace {

using record_io::RecordReader;
using record_io::RecordWriter;

constexpr std::string_view kTestMagic = "ccfztest";

/// Encodes one section whose payload `body` writes; returns the file.
std::string encode(const std::function<void(RecordWriter&)>& body) {
  RecordWriter w;
  w.begin(kTestMagic, 1);
  w.begin_section(state_io::kFuzzer);
  body(w);
  w.end_section();
  return std::string(w.finish());
}

/// Opens `file` and enters its single section; `file` must outlive the
/// reader.
RecordReader open_section(const std::string& file) {
  Result<RecordReader> r = RecordReader::open(file, kTestMagic, 1);
  // encode() always frames a valid file; gtest reports the throw.
  if (!r) throw std::runtime_error(r.error().message);
  EXPECT_TRUE(r->enter(state_io::kFuzzer));
  return *r;
}

Evaluation sample_eval() {
  Evaluation e;
  e.score = {-3.25, 0.125};
  e.goodput_mbps = 7.123456789012345;
  e.cca_sent = 1234;
  e.cca_delivered = 1200;
  e.cca_drops = 34;
  e.cross_sent = 55;
  e.cross_drops = 5;
  e.rto_count = 2;
  e.p10_delay_s = 0.004321;
  e.stalled = true;
  e.truncated = true;
  e.truncation = sim::TruncationReason::kEventLimit;
  e.quarantined = true;
  e.jain_fairness = 0.875;
  e.flow_goodput_mbps = {3.5, 3.623456789};
  e.coverage.valid = true;
  e.coverage.bits = 42;
  e.coverage.descriptor.state_transitions = 3;
  e.coverage.descriptor.rtt_spread = 7;
  e.coverage.bitmap.words[0] = 0xdeadbeefULL;
  e.coverage.bitmap.words[coverage::CoverageBitmap::kWords - 1] = 0x1;
  return e;
}

TEST(StateIo, EvalRoundTripsExactly) {
  const Evaluation in = sample_eval();
  const std::string file =
      encode([&](RecordWriter& w) { state_io::write_eval(w, in); });
  RecordReader r = open_section(file);
  Evaluation out;
  ASSERT_TRUE(state_io::read_eval(r, out));
  EXPECT_TRUE(r.leave());
  EXPECT_FALSE(r.finish());
  EXPECT_EQ(out.score.performance, in.score.performance);
  EXPECT_EQ(out.score.trace, in.score.trace);
  EXPECT_EQ(out.goodput_mbps, in.goodput_mbps);
  EXPECT_EQ(out.cca_sent, in.cca_sent);
  EXPECT_EQ(out.stalled, in.stalled);
  EXPECT_EQ(out.truncated, in.truncated);
  EXPECT_EQ(out.truncation, in.truncation);
  EXPECT_EQ(out.quarantined, in.quarantined);
  EXPECT_EQ(out.jain_fairness, in.jain_fairness);
  EXPECT_EQ(out.flow_goodput_mbps, in.flow_goodput_mbps);
  EXPECT_EQ(out.coverage.valid, in.coverage.valid);
  EXPECT_EQ(out.coverage.bits, in.coverage.bits);
  EXPECT_EQ(out.coverage.descriptor.state_transitions,
            in.coverage.descriptor.state_transitions);
  EXPECT_EQ(out.coverage.bitmap.words[0], in.coverage.bitmap.words[0]);
  EXPECT_EQ(out.coverage, in.coverage);
}

TEST(StateIo, EvalWithoutCoverageOmitsTheBitmap) {
  Evaluation in = sample_eval();
  in.coverage = coverage::CoverageSignature{};
  const std::string bare =
      encode([&](RecordWriter& w) { state_io::write_eval(w, in); });
  const std::string full = encode(
      [&](RecordWriter& w) { state_io::write_eval(w, sample_eval()); });
  EXPECT_GE(full.size(), bare.size() + 8 * coverage::CoverageBitmap::kWords);
  RecordReader r = open_section(bare);
  Evaluation out = sample_eval();  // stale coverage must be cleared
  ASSERT_TRUE(state_io::read_eval(r, out));
  EXPECT_EQ(out.coverage, coverage::CoverageSignature{});
}

TEST(StateIo, MemberRoundTripsGenomeByHash) {
  Member m;
  m.genome.kind = trace::TraceKind::kTraffic;
  m.genome.duration = TimeNs::seconds(2);
  m.genome.stamps = {TimeNs::millis(10), TimeNs::millis(20),
                     TimeNs::millis(1999)};
  m.eval = sample_eval();
  m.evaluated = true;
  m.novelty = 0.25;

  const std::string file =
      encode([&](RecordWriter& w) { state_io::write_member(w, m); });
  RecordReader r = open_section(file);
  Member out;
  ASSERT_TRUE(state_io::read_member(r, out));
  EXPECT_EQ(out.evaluated, m.evaluated);
  EXPECT_EQ(out.novelty, m.novelty);
  EXPECT_EQ(trace::hash(out.genome), trace::hash(m.genome));
  EXPECT_EQ(out.genome.stamps, m.genome.stamps);
  EXPECT_EQ(out.eval.score.performance, m.eval.score.performance);
}

TEST(StateIo, GenomeStampsAreDeltaVarints) {
  trace::Trace t;
  t.kind = trace::TraceKind::kLink;
  t.duration = TimeNs::seconds(1);
  for (int i = 0; i < 1000; ++i) t.stamps.push_back(TimeNs(i * 100));
  const std::string file =
      encode([&](RecordWriter& w) { state_io::write_genome(w, t); });
  // Each 100 ns step is a one-byte varint.
  EXPECT_LT(file.size(), t.stamps.size() + 64);
  RecordReader r = open_section(file);
  trace::Trace out;
  ASSERT_TRUE(state_io::read_genome(r, out));
  EXPECT_EQ(trace::hash(out), trace::hash(t));
}

TEST(StateIo, MalformedGenomeIsCorrupt) {
  // A stamp equal to the duration breaks the Trace contract; the codec
  // encodes it faithfully and the reader refuses it.
  trace::Trace t;
  t.duration = TimeNs::millis(10);
  t.stamps = {TimeNs::millis(1), TimeNs::millis(10)};
  const std::string file =
      encode([&](RecordWriter& w) { state_io::write_genome(w, t); });
  RecordReader r = open_section(file);
  trace::Trace out;
  EXPECT_FALSE(state_io::read_genome(r, out));
  EXPECT_EQ(r.error().code, Error::Code::kCorrupt);
}

TEST(StateIo, GenStatsRoundTripExactly) {
  GenStats gs;
  gs.generation = 7;
  gs.best_score = -1.2345678901234567;
  gs.mean_score = -5.5;
  gs.topk_mean_packets_sent = 812.5;
  gs.topk_mean_goodput_mbps = 3.25;
  gs.topk_mean_jain_fairness = 0.99;
  gs.topk_mean_flow_goodput_mbps = {1.5, 1.75};
  gs.stalled_count = 3;
  gs.evaluations = 640;
  gs.archive_cells = 12;
  gs.archive_new_cells = 2;
  gs.archive_improved = 1;
  gs.coverage_bits = 99;

  const std::string file =
      encode([&](RecordWriter& w) { state_io::write_genstats(w, gs); });
  RecordReader r = open_section(file);
  GenStats out;
  ASSERT_TRUE(state_io::read_genstats(r, out));
  EXPECT_EQ(out.generation, gs.generation);
  EXPECT_EQ(out.best_score, gs.best_score);
  EXPECT_EQ(out.mean_score, gs.mean_score);
  EXPECT_EQ(out.topk_mean_flow_goodput_mbps, gs.topk_mean_flow_goodput_mbps);
  EXPECT_EQ(out.evaluations, gs.evaluations);
  EXPECT_EQ(out.coverage_bits, gs.coverage_bits);
}

TEST(StateIo, ReadEvalRejectsGarbage) {
  Evaluation e;
  // An empty payload is a short read.
  const std::string nothing = encode([](RecordWriter&) {});
  RecordReader empty = open_section(nothing);
  EXPECT_FALSE(state_io::read_eval(empty, e));
  EXPECT_EQ(empty.error().code, Error::Code::kTruncated);
  // Well-framed bytes that decode to impossible flags are corrupt.
  const std::string garbage = encode([](RecordWriter& w) {
    for (int i = 0; i < 3; ++i) w.f64(0.0);  // score, goodput
    for (int i = 0; i < 6; ++i) w.i64(0);    // packet counters
    w.f64(0.0);                              // p10 delay
    w.f64(1.0);                              // fairness
    w.u64(0);                                // no per-flow goodputs
    w.u64(0xFF);                             // undefined flag bits
    w.u64(0);                                // truncation reason
  });
  RecordReader junk = open_section(garbage);
  EXPECT_FALSE(state_io::read_eval(junk, e));
  EXPECT_EQ(junk.error().code, Error::Code::kCorrupt);
  // A section of the wrong kind is a parse error.
  RecordWriter w;
  w.begin(kTestMagic, 1);
  w.begin_section(state_io::kCache);
  w.end_section();
  const std::string other(w.finish());
  Result<RecordReader> r = RecordReader::open(other, kTestMagic, 1);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->enter(state_io::kFuzzer));
  EXPECT_EQ(r->error().code, Error::Code::kParse);
}

// --- Fuzzer save/restore -----------------------------------------------------

fuzz::GaConfig tiny_ga() {
  GaConfig ga;
  ga.population = 12;
  ga.islands = 2;
  ga.max_generations = 6;
  ga.seed = 31;
  return ga;
}

campaign::CellConfig tiny_cell(bool coverage) {
  campaign::CellConfig cell;
  cell.cca = "reno";
  cell.scenario.duration = TimeNs::seconds(1);
  cell.scenario.coverage = coverage;
  cell.score = std::make_shared<LowGoodputScore>();
  cell.traffic_model.max_packets = 150;
  cell.traffic_model.initial_packets = 75;
  cell.ga = tiny_ga();
  return cell;
}

Fuzzer make_fuzzer(bool coverage = false) {
  const campaign::CellConfig cell = tiny_cell(coverage);
  return Fuzzer(cell.ga, campaign::make_trace_model(cell),
                campaign::make_evaluator(cell));
}

std::string snapshot_of(const Fuzzer& f) {
  RecordWriter w;
  w.begin(kTestMagic, 1);
  f.save_state(w);
  return std::string(w.finish());
}

/// Restores `file` into `f` and requires the file to end right after.
Error restore(Fuzzer& f, const std::string& file) {
  Result<RecordReader> r = RecordReader::open(file, kTestMagic, 1);
  if (!r) return r.error();
  if (Error e = f.restore_state(*r)) return e;
  return r->finish();
}

TEST(FuzzerState, RestoredFuzzerContinuesBitIdentically) {
  // Reference: run 6 generations straight through.
  Fuzzer reference = make_fuzzer();
  for (int g = 0; g < 6; ++g) reference.step();

  // Candidate: run 3, snapshot, restore into a fresh fuzzer, run 3 more.
  Fuzzer first_half = make_fuzzer();
  for (int g = 0; g < 3; ++g) first_half.step();
  const std::string snapshot = snapshot_of(first_half);

  Fuzzer second_half = make_fuzzer();
  ASSERT_FALSE(restore(second_half, snapshot));
  EXPECT_EQ(second_half.generation(), 3);
  for (int g = 0; g < 3; ++g) second_half.step();

  ASSERT_EQ(second_half.history().size(), reference.history().size());
  for (std::size_t g = 0; g < reference.history().size(); ++g) {
    EXPECT_EQ(second_half.history()[g].best_score,
              reference.history()[g].best_score)
        << "generation " << g;
    EXPECT_EQ(second_half.history()[g].mean_score,
              reference.history()[g].mean_score);
    EXPECT_EQ(second_half.history()[g].evaluations,
              reference.history()[g].evaluations);
  }
  EXPECT_EQ(trace::hash(second_half.best().genome),
            trace::hash(reference.best().genome));
}

TEST(FuzzerState, CoverageArchiveSurvivesTheRoundTrip) {
  Fuzzer a = make_fuzzer(/*coverage=*/true);
  for (int g = 0; g < 3; ++g) a.step();
  ASSERT_NE(a.archive(), nullptr);
  const std::size_t filled = a.archive()->filled();

  const std::string snapshot = snapshot_of(a);
  Fuzzer b = make_fuzzer(/*coverage=*/true);
  ASSERT_FALSE(restore(b, snapshot));
  ASSERT_NE(b.archive(), nullptr);
  EXPECT_EQ(b.archive()->filled(), filled);
  EXPECT_EQ(b.archive()->union_bits(), a.archive()->union_bits());
  // The archive rides along as EliteArchive::save's own bytes.
  EXPECT_EQ(snapshot_of(b), snapshot);
}

TEST(FuzzerState, RestoreRejectsShapeMismatch) {
  Fuzzer a = make_fuzzer();
  a.step();
  const std::string snapshot = snapshot_of(a);

  campaign::CellConfig other = tiny_cell(false);
  other.ga.islands = 3;
  Fuzzer b(other.ga, campaign::make_trace_model(other),
           campaign::make_evaluator(other));
  EXPECT_EQ(restore(b, snapshot).code, Error::Code::kMismatch);
  // Coverage switched on since the snapshot: the archive presence differs.
  Fuzzer c = make_fuzzer(/*coverage=*/true);
  EXPECT_EQ(restore(c, snapshot).code, Error::Code::kMismatch);
}

TEST(FuzzerState, RestoreRejectsTruncatedStream) {
  Fuzzer a = make_fuzzer();
  a.step();
  const std::string full = snapshot_of(a);
  Fuzzer b = make_fuzzer();
  EXPECT_EQ(restore(b, full.substr(0, full.size() / 2)).code,
            Error::Code::kTruncated);
}

}  // namespace
}  // namespace ccfuzz::fuzz
