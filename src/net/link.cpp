#include "net/link.h"

#include <algorithm>
#include <cassert>

namespace ccfuzz::net {

void BottleneckLink::complete_transmission(Packet&& p) {
  ++served_;
  if (egress_) egress_(p, sim_.now());
  if (deliver_) propagation_.send(std::move(p));
}

TraceDrivenLink::TraceDrivenLink(sim::Simulator& sim, DropTailQueue& queue,
                                 DurationNs prop_delay,
                                 std::vector<TimeNs> service_times,
                                 PacketPool* pool)
    : BottleneckLink(sim, queue, prop_delay, pool),
      times_(std::move(service_times)) {
#ifndef NDEBUG
  for (std::size_t i = 1; i < times_.size(); ++i) {
    assert(times_[i - 1] <= times_[i] && "service trace must be sorted");
  }
#endif
}

void TraceDrivenLink::reset(DurationNs prop_delay,
                            std::span<const TimeNs> service_times) {
  reset_base(prop_delay);
  times_.assign(service_times.begin(), service_times.end());
#ifndef NDEBUG
  for (std::size_t i = 1; i < times_.size(); ++i) {
    assert(times_[i - 1] <= times_[i] && "service trace must be sorted");
  }
#endif
  next_ = 0;
  wasted_ = 0;
}

void TraceDrivenLink::start() {
  if (next_ < times_.size()) {
    sim_.schedule_at(times_[next_], [this] { on_opportunity(); });
  }
}

void TraceDrivenLink::on_opportunity() {
  TimeNs at;
  do {
    if (auto p = queue_.dequeue()) {
      complete_transmission(std::move(*p));
    } else {
      ++wasted_;
    }
    if (++next_ == times_.size()) return;
    // schedule_at() semantics: a stamp in the past fires now.
    at = std::max(times_[next_], sim_.now());
  } while (sim_.advance_inline(at));
  sim_.schedule_at(at, [this] { on_opportunity(); });
}

FixedRateLink::FixedRateLink(sim::Simulator& sim, DropTailQueue& queue,
                             DurationNs prop_delay, DataRate rate,
                             PacketPool* pool)
    : BottleneckLink(sim, queue, prop_delay, pool), rate_(rate) {
  queue_.set_nonempty_notifier([this] { maybe_begin_service(); });
}

void FixedRateLink::reset(DurationNs prop_delay, DataRate rate) {
  reset_base(prop_delay);
  rate_ = rate;
  busy_ = false;
  queue_.set_nonempty_notifier([this] { maybe_begin_service(); });
}

void FixedRateLink::start() { maybe_begin_service(); }

void FixedRateLink::maybe_begin_service() {
  if (busy_ || queue_.empty()) return;
  auto p = queue_.dequeue();
  busy_ = true;
  const DurationNs tx = rate_.transfer_time(p->size_bytes);
  const PacketPool::Index idx = pool().put(std::move(*p));
  sim_.schedule_in(tx, [this, idx] { on_transmit_done(pool().take(idx)); });
}

void FixedRateLink::on_transmit_done(Packet&& p) {
  complete_transmission(std::move(p));
  busy_ = false;
  maybe_begin_service();
}

}  // namespace ccfuzz::net
