// Discrete-event core: a priority queue of timestamped callbacks.
//
// Determinism contract: events at equal timestamps fire in insertion order
// (FIFO tie-break via a monotone sequence number). This makes every
// simulation bit-reproducible, which the GA depends on for convergence
// (paper §3.6).
//
// Design — slab + generation tags + a two-band timer core (zero steady-state
// allocations):
//
//   * Callbacks live in a slab of fixed-size slots holding an
//     InlineCallback<kEventCallbackCapacity> (32-byte inline budget,
//     compile-time asserted — capture pool indices, not payloads). A
//     free list recycles slots, so after the high-water mark is reached
//     schedule()/cancel()/run_next() never touch the allocator.
//   * The ordering structure is split in two bands. The *near band* is a
//     4-ary index heap of 16-byte {time, seq, slot} handles (~half the depth
//     of a binary heap, branch-predictable four-child scan) holding only
//     events within kNearEpochs epochs (~67 ms) of the current heap top.
//     The *far band* parks everything beyond the horizon — RTO timers,
//     sender stop times, trace tail events — in a wheel of kWheelSize epoch
//     buckets (one per 2^kEpochShift ns ≈ 4.2 ms of virtual time) plus a
//     single overflow vector for epochs beyond the wheel span
//     (~1.07 s). Far scheduling is an O(1) vector push; far handles migrate
//     into the heap lazily, whole epochs at a time, as the clock approaches.
//   * Bucket storage is one node slab shared by the whole wheel: each bucket
//     is an intrusive singly-linked list of {handle, next} nodes, and
//     migration returns a bucket's nodes to a free list. Capacity therefore
//     tracks the most handles parked at once across the wheel, not each
//     bucket's own high-water mark — a periodic pattern drifting into a
//     bucket it never used before (per-bucket vectors took about five wheel
//     revolutions, ~5 s of virtual time, to see every phase) finds storage
//     already warm.
//   * Why it pays: the dominant far-timer pattern is armed-then-cancelled
//     (the RTO is re-armed on every cumulative ACK, tcp_rearm_rto-style).
//     In a single heap each re-arm left a stale handle that inflated every
//     sift until the clock finally reached it ~1 s later; in the far band
//     the stale handles sit inert in their epoch bucket and are discarded
//     wholesale at migration without ever entering the heap. Heap depth is
//     set by the in-flight near events alone.
//   * An EventId encodes (slot, generation). Each slot counts its
//     occupancies in a generation counter that never resets, so cancel()
//     is an O(1) generation compare — no cancelled-id set, no band
//     knowledge — and cancelling a fired, cancelled or pre-reset() id is a
//     guaranteed no-op even after the slot has been recycled (a single slot
//     would need 2^32 occupancies for an id to alias).
//   * Heap and bucket handles carry a separate 32-bit FIFO sequence number;
//     the slot remembers its current occupant's seq, so a handle whose seq
//     no longer matches is stale and gets skipped when it surfaces (heap) or
//     migrates (far band). Migration preserves the original seq, so events
//     that meet at equal timestamps fire in schedule order no matter which
//     band they travelled through — execution order is bit-identical to a
//     single heap. seq restarts on reset() (both bands are empty then),
//     bounding the tie-break at 2^32 schedules per run — orders of magnitude
//     above any simulation (scenario::RunContext resets per run).
//   * Reserved sequence numbers (lazy FIFO chains): reserve_seq() hands out
//     the seq a schedule() would have taken, without queueing anything, and
//     schedule_reserved() queues an event under such a seq later. A
//     component with a FIFO of future events (a constant-delay pipe, a
//     sorted injection trace) reserves one seq per event at the moment it
//     would have scheduled it eagerly, keeps the (time, seq) keys in its own
//     ring, and keeps only its earliest one queued. Its FIFO never reorders
//     (times are non-decreasing, seqs increasing), and each successor is
//     queued while its predecessor runs — before any event with a larger
//     key can fire — so every event fires with exactly the key, and in
//     exactly the order, of the eager schedule.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/inline_callback.h"
#include "util/time.h"

namespace ccfuzz::sim {

/// Opaque handle used to cancel a scheduled event. 0 is never a valid id.
using EventId = std::uint64_t;

/// Inline-storage budget for event callbacks. 32 bytes keeps one event slot
/// to exactly one cache line and fits every closure in the simulator (the
/// largest are [this, pool-index] pairs) plus typical test lambdas;
/// oversized captures fail to compile — route payloads through a pool and
/// capture the index instead.
inline constexpr std::size_t kEventCallbackCapacity = 32;
using EventCallback = InlineCallback<kEventCallbackCapacity>;

/// Two-band min-queue of (time, seq) → callback: O(log near) push/pop for
/// near events, O(1) amortized parking for far-future ones, O(1)
/// generation-based cancellation, and no steady-state allocations.
class EventQueue {
 public:
  /// Schedules `fn` at absolute time `at`; returns a cancellation handle.
  template <typename F>
  EventId schedule(TimeNs at, F&& fn) {
    return schedule_impl(at, next_seq_++, EventCallback(std::forward<F>(fn)));
  }

  /// Schedules `fn` at `at` under a FIFO sequence number obtained earlier
  /// from reserve_seq(): it orders among equal-time events as if it had been
  /// scheduled at the moment the seq was reserved. Each reserved seq may be
  /// scheduled at most once.
  template <typename F>
  EventId schedule_reserved(TimeNs at, std::uint32_t seq, F&& fn) {
    return schedule_impl(at, seq, EventCallback(std::forward<F>(fn)));
  }

  /// Reserves `n` consecutive FIFO sequence numbers and returns the first —
  /// the seqs the next `n` schedule() calls would have taken.
  std::uint32_t reserve_seq(std::uint32_t n = 1) {
    const std::uint32_t first = next_seq_;
    next_seq_ += n;
    return first;
  }

  /// The seq the next schedule() or reserve_seq() will hand out.
  std::uint32_t peek_seq() const { return next_seq_; }

  /// True if an event keyed (at, seq) would fire before every live event
  /// (also when none is left).
  bool precedes_next(TimeNs at, std::uint32_t seq);

  /// Cancels a pending event in O(1). Cancelling an already-fired or unknown
  /// id is a no-op.
  void cancel(EventId id);

  /// True if no live events remain.
  bool empty() const { return live_ == 0; }

  /// Number of live (non-cancelled, not-yet-fired) events.
  std::size_t size() const { return live_; }

  /// Timestamp of the earliest live event; TimeNs::infinite() if none.
  TimeNs next_time();

  /// Pops and runs the earliest live event; returns its timestamp.
  /// Requires !empty().
  TimeNs run_next();

  /// If the earliest live event fires at or before `deadline`, stores its
  /// timestamp in `clock` (before the callback runs, so callbacks observe
  /// the advanced clock), runs it and returns true; otherwise leaves `clock`
  /// untouched and returns false. One prune per event — this is the
  /// simulation driver's hot loop.
  bool run_next_due(TimeNs deadline, TimeNs& clock);

  /// Discards all pending events but keeps slab/heap/bucket capacity, so a
  /// reused queue (scenario::RunContext) schedules without allocating.
  void reset();

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;
  // --- Two-band geometry ---
  /// Virtual-time width of one far-band epoch: 2^22 ns ≈ 4.19 ms.
  static constexpr int kEpochShift = 22;
  /// Near-band horizon in epochs beyond the heap top (~67 ms): events this
  /// close schedule straight into the heap; farther ones park in the wheel.
  /// Must stay under any realistic RTO (min_rto defaults to 1 s; Linux uses
  /// 200 ms) so re-armed RTO timers never churn the heap.
  static constexpr std::int64_t kNearEpochs = 16;
  /// Wheel span: 256 epochs ≈ 1.07 s. Epochs beyond it overflow into a
  /// single vector and redistribute when the wheel advances within range.
  static constexpr std::size_t kWheelSize = 256;
  static constexpr std::size_t kWheelMask = kWheelSize - 1;
  static constexpr std::size_t kWheelWords = kWheelSize / 64;
  static constexpr std::int64_t kNoEpoch =
      std::numeric_limits<std::int64_t>::max();

  struct Slot {
    EventCallback fn;
    std::uint32_t generation = 0;  ///< occupancy count; never resets
    std::uint32_t seq = 0;         ///< FIFO seq of the current occupant
    std::uint32_t next_free = kNil;
    bool live = false;
  };
  static_assert(sizeof(Slot) <= 64, "one event slot should fit a cache line");
  struct HeapHandle {  // 16 bytes; what sift operations actually move
    std::int64_t at_ns;
    std::uint32_t seq;
    std::uint32_t slot;
  };

  static std::int64_t epoch_of(std::int64_t at_ns) {
    // Arithmetic shift: negative times land in epoch <= 0, i.e. always near.
    return at_ns >> kEpochShift;
  }

  // if/else (not ?:) so the compiler keeps the highly-predictable time
  // comparison a branch; a cmov dependency chain here measurably slows the
  // sift loops.
  static bool earlier(const HeapHandle& a, const HeapHandle& b) {
    if (a.at_ns != b.at_ns) return a.at_ns < b.at_ns;
    return a.seq < b.seq;
  }
  bool stale(const HeapHandle& h) const {
    const Slot& s = slots_[h.slot];
    return !s.live || s.seq != h.seq;
  }

  EventId schedule_impl(TimeNs at, std::uint32_t seq, EventCallback fn);
  /// Parks a handle in wheel bucket `slot`.
  void bucket_push(std::size_t slot, HeapHandle h);
  void heap_push(HeapHandle h);
  void heap_pop_top();
  /// Parks a handle in the far band (wheel bucket or overflow).
  void far_push(HeapHandle h, std::int64_t epoch);
  /// Migrates the earliest far epoch's handles into the heap (stale handles
  /// are dropped without ever touching it). Requires far_size_ != 0.
  void flush_min_far();
  /// Moves overflow handles whose epoch now fits the wheel into buckets.
  void redistribute_overflow();
  /// Epoch of the earliest non-empty wheel bucket; kNoEpoch if all empty.
  std::int64_t first_bucket_epoch() const;
  /// Discards stale heap-top handles and migrates any far epochs that are
  /// due (or within the near horizon of) the surfacing heap top.
  void prune();

  std::size_t bucket_count() const { return far_size_ - overflow_.size(); }

  std::vector<Slot> slots_;
  std::vector<HeapHandle> heap_;  // 4-ary min-heap; may hold stale handles
  std::uint32_t free_head_ = kNil;
  std::uint32_t next_seq_ = 0;
  std::size_t live_ = 0;

  // --- Far band ---
  /// Every epoch <= horizon_ has been migrated (or was never populated);
  /// schedule() sends events with epoch <= horizon_ straight to the heap.
  /// Monotone within a run; all parked handles have epoch > horizon_ and,
  /// for wheel buckets, epoch <= horizon_ + kWheelSize — which makes the
  /// epoch → bucket mapping (epoch & kWheelMask) collision-free.
  std::int64_t horizon_ = kNearEpochs;
  std::size_t far_size_ = 0;            ///< parked handles, stale included
  std::int64_t far_min_epoch_ = kNoEpoch;       ///< min parked epoch
  std::int64_t overflow_min_epoch_ = kNoEpoch;  ///< min epoch in overflow_
  struct FarNode {
    HeapHandle h;
    std::uint32_t next;  ///< next node of the same bucket (or free list)
  };
  std::vector<FarNode> far_nodes_;  ///< node slab shared by all buckets
  std::uint32_t far_free_ = kNil;   ///< free-list head in far_nodes_
  /// First node of each bucket; meaningful only while its wheel_bits_ bit
  /// is set.
  std::array<std::uint32_t, kWheelSize> bucket_head_{};
  std::array<std::uint64_t, kWheelWords> wheel_bits_{};  ///< non-empty map
  std::vector<HeapHandle> overflow_;
};

}  // namespace ccfuzz::sim
