// Fixed-delay, infinite-capacity pipe: models uncongested paths (source →
// gateway access links, the ACK return path in the paper's dumbbell, and the
// bottleneck's propagation delay).
//
// Lazy FIFO chain: send() does not queue a delivery event per packet. It
// reserves the FIFO sequence number the eager delivery event would have
// taken (sim::Simulator::reserve_seq), parks the packet in the PacketPool and
// appends {time, seq, pool index} to a ring; only the ring's head has an
// event in the simulator. With a constant delay the ring is sorted by time
// and by seq, so the head is always the pipe's earliest delivery, and each
// successor is queued (or, via Simulator::advance_inline, run in place)
// while its predecessor runs — before any later-keyed event can fire. Every
// delivery therefore fires with the exact (time, seq) key the eager event
// had: execution order, event counts and fingerprints are unchanged, while
// the event queue holds one event per pipe instead of one per packet.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "net/packet.h"
#include "net/packet_pool.h"
#include "sim/simulator.h"
#include "util/time.h"

namespace ccfuzz::net {

/// Delivers every packet exactly `delay` after send(); preserves ordering
/// (equal-time packets keep their send order).
///
/// In-flight packets park in a PacketPool and the ring carries only the pool
/// index, so send() never heap-allocates in steady state: the pool and ring
/// keep their high-water capacity across reset(). Pass a shared pool to reuse
/// its warm slab across components/runs; by default the pipe owns a private
/// one.
class DelayPipe {
 public:
  DelayPipe(sim::Simulator& sim, DurationNs delay,
            std::function<void(Packet&&)> deliver, PacketPool* pool = nullptr)
      : sim_(sim), delay_(delay), deliver_(std::move(deliver)),
        pool_(pool != nullptr ? pool : &own_pool_) {}

  // pool_ may point at own_pool_; a compiler-generated copy would dangle.
  DelayPipe(const DelayPipe&) = delete;
  DelayPipe& operator=(const DelayPipe&) = delete;

  /// Sends a packet into the pipe at the current simulation time.
  void send(Packet&& p) {
    const Flight f{sim_.now() + delay_, sim_.reserve_seq(),
                   pool_->put(std::move(p))};
    ring_.push(f);
    // While the chain is armed its tail picks the new packet up.
    if (!armed_) {
      armed_ = true;
      schedule_head();
    }
  }

  /// Reinitializes the pipe for a fresh run (possibly with a new delay). Any
  /// scheduled delivery must already be gone (Simulator::reset); the
  /// delivery callback and the ring's capacity are kept.
  void reset(DurationNs delay) {
    delay_ = delay;
    ring_.clear();
    armed_ = false;
  }

  DurationNs delay() const { return delay_; }
  std::int64_t in_flight() const {
    return static_cast<std::int64_t>(ring_.size());
  }

 private:
  /// One in-flight packet: its delivery key and its pool slot.
  struct Flight {
    TimeNs at;
    std::uint32_t seq;
    PacketPool::Index idx;
  };

  /// Power-of-two FIFO of flights; grows to the in-flight high-water mark
  /// and never shrinks.
  class Ring {
   public:
    bool empty() const { return head_ == tail_; }
    std::size_t size() const { return tail_ - head_; }
    const Flight& front() const { return slots_[head_ & mask_]; }
    void pop() { ++head_; }
    void push(const Flight& f) {
      if (size() == slots_.size()) grow();
      slots_[tail_++ & mask_] = f;
    }
    void clear() { head_ = tail_ = 0; }

   private:
    void grow() {
      std::vector<Flight> next(slots_.empty() ? 16 : 2 * slots_.size());
      for (std::size_t i = 0; i < size(); ++i) {
        next[i] = slots_[(head_ + i) & mask_];
      }
      tail_ = size();
      head_ = 0;
      slots_ = std::move(next);
      mask_ = slots_.size() - 1;
    }

    std::vector<Flight> slots_;
    std::size_t mask_ = 0;
    std::size_t head_ = 0;  // monotone; slot = index & mask_
    std::size_t tail_ = 0;
  };

  void schedule_head() {
    const Flight& f = ring_.front();
    sim_.schedule_reserved(f.at, f.seq, [this] { deliver_chain(); });
  }

  /// The chain event: delivers the head, then runs successors in place
  /// while they are the global minimum, else queues the next head.
  void deliver_chain() {
    do {
      const PacketPool::Index idx = ring_.front().idx;
      ring_.pop();
      // deliver_ may send() into this pipe again; armed_ keeps that from
      // queueing a second chain event.
      deliver_(pool_->take(idx));
      if (ring_.empty()) {
        armed_ = false;
        return;
      }
    } while (sim_.advance_inline(ring_.front().at, ring_.front().seq));
    schedule_head();
  }

  sim::Simulator& sim_;
  DurationNs delay_;
  std::function<void(Packet&&)> deliver_;
  PacketPool own_pool_;
  PacketPool* pool_;
  Ring ring_;
  bool armed_ = false;  ///< the head's event is queued or running
};

}  // namespace ccfuzz::net
