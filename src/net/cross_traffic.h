// Cross-traffic injector for traffic fuzzing (paper §3.3).
//
// The fuzzer's traffic trace is a sequence of timestamps; at each timestamp
// one cross-traffic packet is pushed into the bottleneck queue. Packets that
// find the queue full are dropped and counted — the trace score uses both the
// total injected and the drops to steer the GA toward minimal traffic
// vectors (§3.4).
//
// Lazy FIFO chain: start() does not park one event per stamp (thousands of
// far-band events for a multi-second trace). It reserves the block of FIFO
// sequence numbers the eager schedule would have taken at that point
// (sim::Simulator::reserve_seq) and queues only the first injection; each
// injection queues — or, via Simulator::advance_inline, runs in place — its
// successor, keyed (stamp, first_seq + index). The sorted trace never
// reorders, so every injection fires with exactly its eager (time, seq) key.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "net/packet.h"
#include "net/queue.h"
#include "sim/simulator.h"
#include "util/time.h"

namespace ccfuzz::net {

/// Schedules injection of one packet per trace timestamp into a queue.
class CrossTrafficInjector {
 public:
  /// `times` must be sorted ascending. Packets use `packet_bytes` frames and
  /// carry `flow_index` (the scenario assigns the aggregate the index after
  /// the last CCA flow) so recorder per-flow counters see a real flow id.
  CrossTrafficInjector(sim::Simulator& sim, DropTailQueue& queue,
                       std::vector<TimeNs> times,
                       std::int32_t packet_bytes = kDefaultPacketBytes,
                       FlowIndex flow_index = 1)
      : sim_(sim), queue_(queue), times_(std::move(times)),
        packet_bytes_(packet_bytes), flow_index_(flow_index) {}

  /// Schedules all injections. Call once before running the simulation.
  /// Stamps before the current time fire at it (Simulator::schedule_at).
  void start() {
    next_ = 0;
    if (times_.empty()) return;
    floor_ = sim_.now();
    first_seq_ = sim_.reserve_seq(static_cast<std::uint32_t>(times_.size()));
    schedule_next();
  }

  /// Rearms the injector for a fresh run with a new schedule, reusing the
  /// schedule storage's capacity. Previously scheduled injections must be
  /// gone (Simulator::reset first); the observer callback is kept.
  void reset(std::span<const TimeNs> times, std::int32_t packet_bytes,
             FlowIndex flow_index) {
    times_.assign(times.begin(), times.end());
    packet_bytes_ = packet_bytes;
    flow_index_ = flow_index;
    sent_ = 0;
    dropped_ = 0;
    next_ = 0;
  }

  std::int64_t packets_sent() const { return sent_; }
  std::int64_t packets_dropped() const { return dropped_; }
  std::int64_t packets_queued() const { return sent_ - dropped_; }

  /// Observes every injected packet at the instant it reaches the gateway
  /// (before the enqueue attempt). Used for ingress-rate recording.
  void set_inject_observer(std::function<void(const Packet&, TimeNs)> fn) {
    on_inject_ = std::move(fn);
  }

 private:
  TimeNs next_time() const { return std::max(times_[next_], floor_); }
  std::uint32_t next_seq() const {
    return first_seq_ + static_cast<std::uint32_t>(next_);
  }
  void schedule_next() {
    sim_.schedule_reserved(next_time(), next_seq(), [this] { on_stamp(); });
  }

  /// The chain event: injects, then runs successors in place while they are
  /// the global minimum, else queues the next stamp.
  void on_stamp() {
    do {
      inject_one();
      if (++next_ == times_.size()) return;
    } while (sim_.advance_inline(next_time(), next_seq()));
    schedule_next();
  }

  void inject_one() {
    Packet p;
    p.id = 0x8000000000000000ULL + static_cast<std::uint64_t>(sent_);
    p.flow = FlowId::kCrossTraffic;
    p.flow_index = flow_index_;
    p.size_bytes = packet_bytes_;
    p.created_at = sim_.now();
    ++sent_;
    if (on_inject_) on_inject_(p, sim_.now());
    if (!queue_.try_enqueue(std::move(p), sim_.now())) ++dropped_;
  }

  sim::Simulator& sim_;
  DropTailQueue& queue_;
  std::vector<TimeNs> times_;
  std::size_t next_ = 0;             ///< index of the next stamp to fire
  TimeNs floor_ = TimeNs::zero();    ///< clock at start(): earliest fire time
  std::uint32_t first_seq_ = 0;      ///< reserved seq of stamp 0
  std::int32_t packet_bytes_;
  FlowIndex flow_index_;
  std::function<void(const Packet&, TimeNs)> on_inject_;
  std::int64_t sent_ = 0;
  std::int64_t dropped_ = 0;
};

}  // namespace ccfuzz::net
