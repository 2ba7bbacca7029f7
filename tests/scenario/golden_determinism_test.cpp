// Golden equivalence tests for the determinism contract (paper §3.6).
//
// Every registered CCA runs on fixed scenarios + traces and must produce
// (a) bit-identical RunResults across repeated runs — including runs sharing
// one warm RunContext — and (b) the exact event counts and FNV fingerprints
// recorded from the event core as it existed BEFORE the zero-allocation
// rewrite (slab/generation EventQueue, PacketPool, RunContext). Any change
// to event ordering, packet bookkeeping or clock behavior trips these.
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cca/registry.h"
#include "scenario/presets.h"
#include "scenario/runner.h"
#include "trace/dist_packets.h"
#include "util/rng.h"

namespace ccfuzz::scenario {
namespace {

std::uint64_t fnv1a(std::uint64_t h, std::int64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= static_cast<std::uint64_t>(v >> (i * 8)) & 0xffu;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Order-sensitive digest of everything observable from a run: outcome
/// counters plus the full per-packet bottleneck record streams.
std::uint64_t fingerprint(const RunResult& r) {
  std::uint64_t h = 1469598103934665603ULL;
  h = fnv1a(h, r.primary().segments_delivered);
  h = fnv1a(h, r.primary().egress_packets);
  h = fnv1a(h, r.primary().sent);
  h = fnv1a(h, r.primary().retransmissions);
  h = fnv1a(h, r.primary().drops);
  h = fnv1a(h, r.primary().rto_count);
  h = fnv1a(h, r.primary().fast_recovery_count);
  h = fnv1a(h, r.primary().spurious_retx_count);
  h = fnv1a(h, r.primary().final_rto_backoff);
  h = fnv1a(h, r.cross_sent);
  h = fnv1a(h, r.cross_drops);
  h = fnv1a(h, r.queue_stats.total_enqueued());
  h = fnv1a(h, r.queue_stats.total_dropped());
  for (const auto& e : r.recorder.ingress()) {
    h = fnv1a(h, e.time.ns());
    h = fnv1a(h, static_cast<std::int64_t>(e.flow));
  }
  for (const auto& e : r.recorder.egress()) {
    h = fnv1a(h, e.time.ns());
    h = fnv1a(h, static_cast<std::int64_t>(e.flow));
  }
  for (const auto& e : r.recorder.drops()) {
    h = fnv1a(h, e.time.ns());
    h = fnv1a(h, static_cast<std::int64_t>(e.flow));
  }
  for (const auto& d : r.recorder.delays()) {
    h = fnv1a(h, d.queue_delay.ns());
  }
  return h;
}

struct GoldenCase {
  const char* cca;
  FuzzMode mode;
  std::int64_t delivered;
  std::int64_t sent;
  std::int64_t retx;
  std::int64_t drops;
  std::int64_t rto;
  std::uint64_t hash;
};

// Recorded from the pre-refactor event core (std::function heap,
// unordered_set cancellation, per-run allocation) at 2 s durations with the
// traces built below. The rewrite must reproduce these bit for bit.
constexpr GoldenCase kGolden[] = {
    {"reno", FuzzMode::kLink, 1118, 1209, 38, 40, 0, 0x1b7938079fd48a03ULL},
    {"reno", FuzzMode::kTraffic, 363, 418, 44, 44, 1, 0xb84d8247a1235b40ULL},
    {"cubic", FuzzMode::kLink, 273, 408, 60, 72, 1, 0x3c0e9eb738290ae8ULL},
    {"cubic", FuzzMode::kTraffic, 180, 261, 55, 59, 1, 0xaadaf794bbdbb6beULL},
    {"bbr", FuzzMode::kLink, 377, 510, 62, 64, 0, 0x38af1559ec08e174ULL},
    {"bbr", FuzzMode::kTraffic, 416, 513, 71, 71, 1, 0x3bf5414bac262fc5ULL},
};

ScenarioConfig golden_config(FuzzMode mode) {
  ScenarioConfig cfg;
  cfg.duration = TimeNs::seconds(2);
  cfg.mode = mode;
  // The fingerprints digest the raw event streams recorded before the
  // streaming-metrics refactor; keep recording them here.
  cfg.record_mode = RecordMode::kFullEvents;
  return cfg;
}

std::vector<TimeNs> golden_trace(FuzzMode mode, TimeNs duration) {
  Rng rng(mode == FuzzMode::kLink ? 42 : 7);
  return trace::dist_packets(mode == FuzzMode::kLink ? 2000 : 1500,
                             TimeNs::zero(), duration, rng);
}

TEST(GoldenDeterminism, MatchesPreRefactorFingerprints) {
  for (const auto& g : kGolden) {
    SCOPED_TRACE(std::string(g.cca) + "/" + to_string(g.mode));
    const ScenarioConfig cfg = golden_config(g.mode);
    const auto run =
        run_scenario(cfg, cca::make_factory(g.cca),
                     golden_trace(g.mode, cfg.duration));
    EXPECT_EQ(run.primary().segments_delivered, g.delivered);
    EXPECT_EQ(run.primary().sent, g.sent);
    EXPECT_EQ(run.primary().retransmissions, g.retx);
    EXPECT_EQ(run.primary().drops, g.drops);
    EXPECT_EQ(run.primary().rto_count, g.rto);
    EXPECT_EQ(fingerprint(run), g.hash);
  }
}

TEST(GoldenDeterminism, BandMigrationMatchesPreTwoBandFingerprints) {
  // Forces the two-band event core through every band transition mid-run:
  // RTO expiries with exponential backoff park multi-second timers in the
  // overflow band (case A: service burst, 3 s dead air, service burst),
  // staggered flow stop times schedule far-future events at start (case B),
  // and both run long enough (6 s) for the far wheel to wrap several times.
  // Expected values recorded from the single-heap core as it existed before
  // the two-band rewrite; execution order must be bit-identical.
  {
    ScenarioConfig cfg;
    cfg.duration = TimeNs::seconds(6);
    cfg.mode = FuzzMode::kLink;
    cfg.record_mode = RecordMode::kFullEvents;
    std::vector<TimeNs> trace;
    for (int i = 0; i < 400; ++i) trace.push_back(TimeNs(2'500'000ll * i));
    for (int i = 0; i < 800; ++i) {
      trace.push_back(TimeNs::seconds(4) + DurationNs(2'500'000ll * i));
    }
    const auto run =
        run_scenario(cfg, cca::make_factory("reno"), std::move(trace));
    EXPECT_EQ(run.primary().segments_delivered, 986);
    EXPECT_EQ(run.primary().sent, 1070);
    EXPECT_EQ(run.primary().retransmissions, 58);
    EXPECT_EQ(run.primary().drops, 38);
    EXPECT_EQ(run.primary().rto_count, 2);
    EXPECT_EQ(fingerprint(run), 0xde52f07b9e650cd2ULL);
  }
  {
    ScenarioConfig cfg;
    cfg.duration = TimeNs::seconds(6);
    cfg.mode = FuzzMode::kTraffic;
    cfg.record_mode = RecordMode::kFullEvents;
    cfg.flows.resize(2);
    cfg.flows[0].stop = TimeNs::millis(5500);
    cfg.flows[1].cca = "cubic";
    cfg.flows[1].start = TimeNs::millis(1500);
    cfg.flows[1].stop = TimeNs::millis(4500);
    Rng rng(202);
    const auto run =
        run_scenario(cfg, cca::make_factory("reno"),
                     trace::dist_packets(3000, TimeNs::zero(), cfg.duration,
                                         rng));
    EXPECT_EQ(run.primary().segments_delivered, 1228);
    EXPECT_EQ(run.primary().sent, 1265);
    EXPECT_EQ(run.primary().retransmissions, 37);
    EXPECT_EQ(run.primary().drops, 37);
    EXPECT_EQ(run.primary().rto_count, 2);
    EXPECT_EQ(fingerprint(run), 0xd350048e40190f88ULL);
  }
}

/// One seeded random-genome case of the event-order contract.
struct RandomCase {
  std::string name;
  ScenarioConfig cfg;
  std::string cca;
  std::vector<TimeNs> trace;
};

/// Seeded random genomes for every registered CCA in both modes — traffic
/// traces run 3-5 s, several times the far band's 1.07 s wheel span — plus
/// shaped cases aimed at the lazy event chains: equal-stamp service bursts,
/// a zero-delay access pipe, a multi-flow preset and armed invariants.
std::vector<RandomCase> random_cases() {
  std::vector<RandomCase> cases;
  Rng rng(0x601D);
  const auto base = [](FuzzMode mode, std::int64_t seconds) {
    ScenarioConfig cfg;
    cfg.duration = TimeNs::seconds(seconds);
    cfg.mode = mode;
    cfg.record_mode = RecordMode::kFullEvents;
    return cfg;
  };
  for (const std::string& cca : cca::known_ccas()) {
    for (const FuzzMode mode : {FuzzMode::kLink, FuzzMode::kTraffic}) {
      const std::int64_t seconds = rng.uniform_int(3, 5);
      ScenarioConfig cfg = base(mode, seconds);
      const std::int64_t stamps = mode == FuzzMode::kLink
                                      ? rng.uniform_int(600, 2400) * seconds
                                      : rng.uniform_int(200, 700) * seconds;
      cases.push_back({cca + "/" + to_string(mode), cfg, cca,
                       trace::dist_packets(stamps, TimeNs::zero(),
                                           cfg.duration, rng)});
    }
  }
  {
    // Service bursts: runs of up to 8 opportunities on one stamp.
    std::vector<TimeNs> trace;
    for (std::int64_t t = 0; t < 4'000'000'000;
         t += rng.uniform_int(1, 12) * 1'000'000) {
      const std::int64_t burst = rng.uniform_int(1, 8);
      for (std::int64_t k = 0; k < burst; ++k) trace.push_back(TimeNs(t));
    }
    cases.push_back({"reno/link-equal-stamp-bursts",
                     base(FuzzMode::kLink, 4), "reno", std::move(trace)});
  }
  {
    ScenarioConfig cfg = base(FuzzMode::kTraffic, 3);
    cfg.net.access_delay = DurationNs::zero();
    cases.push_back({"cubic/traffic-zero-access-delay", cfg, "cubic",
                     trace::dist_packets(1500, TimeNs::zero(), cfg.duration,
                                         rng)});
  }
  {
    ScenarioConfig cfg = base(FuzzMode::kLink, 3);
    cfg.flows.resize(1);
    cfg.flows[0].access_delay = DurationNs::zero();
    cfg.flows[0].ack_path_delay = DurationNs::zero();
    cases.push_back({"bbr/link-zero-delay-flow", cfg, "bbr",
                     trace::dist_packets(4000, TimeNs::zero(), cfg.duration,
                                         rng)});
  }
  {
    const ScenarioConfig cfg =
        apply_preset("late_starter", base(FuzzMode::kTraffic, 4));
    cases.push_back({"reno/traffic-late-starter", cfg, "reno",
                     trace::dist_packets(1800, TimeNs::zero(), cfg.duration,
                                         rng)});
  }
  {
    ScenarioConfig cfg = apply_preset("incast", base(FuzzMode::kLink, 3));
    cfg.invariants = true;
    cases.push_back({"cubic/link-incast-invariants", cfg, "cubic",
                     trace::dist_packets(6000, TimeNs::zero(), cfg.duration,
                                         rng)});
  }
  {
    ScenarioConfig cfg = base(FuzzMode::kTraffic, 5);
    cfg.invariants = true;
    cases.push_back({"bbr/traffic-invariants", cfg, "bbr",
                     trace::dist_packets(3000, TimeNs::zero(), cfg.duration,
                                         rng)});
  }
  {
    // Truncated by the event limit mid-run, with the wall-clock guard armed
    // (never hit) so its sampling points are live too.
    ScenarioConfig cfg = base(FuzzMode::kTraffic, 5);
    cfg.budget.max_events = 7'001;
    cfg.budget.max_wall_time = DurationNs::seconds(300);
    cases.push_back({"reno/traffic-event-limit", cfg, "reno",
                     trace::dist_packets(2500, TimeNs::zero(), cfg.duration,
                                         rng)});
  }
  return cases;
}

struct RandomGolden {
  const char* name;
  std::uint64_t events;
  std::uint64_t hash;
};

// Recorded from the eager event core (one queued event per in-flight packet
// and per cross-traffic stamp), in random_cases() order.
constexpr RandomGolden kRandomGolden[] = {
    {"reno/link", 5872, 0x9ac8940b0b45b96eULL},
    {"reno/traffic", 16498, 0xe83fd0b75db07e96ULL},
    {"cubic/link", 9494, 0xccbdabdf8345d951ULL},
    {"cubic/traffic", 12827, 0x9a3fb915a992dafdULL},
    {"cubic-ns3bug/link", 14243, 0xa4151048b070d95cULL},
    {"cubic-ns3bug/traffic", 14438, 0x315c30d081e9786bULL},
    {"bbr/link", 6508, 0x53f585bd5abb2edeULL},
    {"bbr/traffic", 14430, 0x94c0524ddb1aec3fULL},
    {"bbr-linux-strict/link", 26795, 0x945574a79a5c0158ULL},
    {"bbr-linux-strict/traffic", 11806, 0x623b9b124442bec0ULL},
    {"bbr-probertt-on-rto/link", 15872, 0x2292208d313f7fd4ULL},
    {"bbr-probertt-on-rto/traffic", 12512, 0x31b20ecee7a7071fULL},
    {"reno/link-equal-stamp-bursts", 6708, 0x4ca184f00055fe65ULL},
    {"cubic/traffic-zero-access-delay", 10111, 0xa1db00f503fae16dULL},
    {"bbr/link-zero-delay-flow", 13123, 0x707eb76edd8c567eULL},
    {"reno/traffic-late-starter", 12820, 0xb0baa46ba12cf9c4ULL},
    {"cubic/link-incast-invariants", 14107, 0xe756191332dd79eaULL},
    {"bbr/traffic-invariants", 20090, 0x44334379a12ae5b1ULL},
    {"reno/traffic-event-limit", 7001, 0xf6b06c5423ae4bc9ULL},
};

TEST(GoldenDeterminism, RandomGenomesMatchEagerEventCore) {
  // Lazy FIFO chains must reproduce the eager core's event order exactly:
  // same fingerprints and the same number of executed events.
  const std::vector<RandomCase> cases = random_cases();
  ASSERT_EQ(cases.size(), std::size(kRandomGolden));
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const RandomCase& c = cases[i];
    SCOPED_TRACE(c.name);
    const auto run = run_scenario(c.cfg, cca::make_factory(c.cca), c.trace);
    const RandomGolden& g = kRandomGolden[i];
    EXPECT_EQ(c.name, g.name);
    EXPECT_EQ(run.events, g.events);
    EXPECT_EQ(fingerprint(run), g.hash);
    if (c.cfg.invariants) {
      EXPECT_TRUE(run.invariants.clean());
    }
  }
}

TEST(GoldenDeterminism, CoverageProbeIsPurelyPassive) {
  // Arming the behavior probe must not perturb the simulation by one bit:
  // the same pre-refactor fingerprints hold with coverage on, and the runs
  // now additionally carry a signature.
  for (const auto& g : kGolden) {
    SCOPED_TRACE(std::string(g.cca) + "/" + to_string(g.mode));
    ScenarioConfig cfg = golden_config(g.mode);
    cfg.coverage = true;
    const auto run = run_scenario(cfg, cca::make_factory(g.cca),
                                  golden_trace(g.mode, cfg.duration));
    EXPECT_EQ(fingerprint(run), g.hash);
    EXPECT_TRUE(run.coverage_signature().valid);
    EXPECT_GT(run.coverage_signature().bits, 0u);
  }
}

TEST(GoldenDeterminism, ArmedBudgetGuardsAreFingerprintNeutral) {
  // Arming the run guards (event / sim-time / wall-clock budgets) with
  // limits a golden run never reaches must leave execution bit-identical:
  // the guard is a branch on the hot path, not a behavior change.
  for (const auto& g : kGolden) {
    SCOPED_TRACE(std::string(g.cca) + "/" + to_string(g.mode));
    ScenarioConfig cfg = golden_config(g.mode);
    cfg.budget.max_events = 1'000'000'000ull;
    cfg.budget.max_sim_time = DurationNs::seconds(3600);
    cfg.budget.max_wall_time = DurationNs::seconds(300);
    const auto run = run_scenario(cfg, cca::make_factory(g.cca),
                                  golden_trace(g.mode, cfg.duration));
    EXPECT_FALSE(run.truncated);
    EXPECT_EQ(fingerprint(run), g.hash);
  }
}

TEST(GoldenDeterminism, RepeatedRunsAreBitIdentical) {
  for (const auto& g : kGolden) {
    SCOPED_TRACE(std::string(g.cca) + "/" + to_string(g.mode));
    const ScenarioConfig cfg = golden_config(g.mode);
    const auto factory = cca::make_factory(g.cca);
    const auto first =
        run_scenario(cfg, factory, golden_trace(g.mode, cfg.duration));
    const auto second =
        run_scenario(cfg, factory, golden_trace(g.mode, cfg.duration));
    EXPECT_EQ(fingerprint(first), fingerprint(second));
    EXPECT_EQ(first.recorder.egress().size(), second.recorder.egress().size());
  }
}

TEST(GoldenDeterminism, WarmRunContextMatchesColdContext) {
  // One context run back-to-back (warm slab/pool/recorder) must equal a
  // freshly constructed context's result exactly.
  const ScenarioConfig cfg = golden_config(FuzzMode::kTraffic);
  const auto factory = cca::make_factory("bbr");

  RunContext warm;
  std::uint64_t warm_hash = 0;
  for (int i = 0; i < 3; ++i) {
    warm_hash =
        fingerprint(warm.run(cfg, factory,
                             golden_trace(FuzzMode::kTraffic, cfg.duration)));
  }

  RunContext cold;
  const auto cold_run =
      cold.run(cfg, factory, golden_trace(FuzzMode::kTraffic, cfg.duration));
  EXPECT_EQ(warm_hash, fingerprint(cold_run));
}

}  // namespace
}  // namespace ccfuzz::scenario
