#include "sim/simulator.h"

#include <ctime>

namespace ccfuzz::sim {

namespace {

std::int64_t monotonic_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

}  // namespace

void Simulator::arm_budget(const Budget& b) {
  event_limit_ =
      b.max_events > 0 ? executed_ + b.max_events : UINT64_MAX;
  wall_deadline_ns_ = b.max_wall_time > DurationNs::zero()
                          ? monotonic_ns() + b.max_wall_time.ns()
                          : -1;
  truncation_ = TruncationReason::kNone;
}

std::uint64_t Simulator::run_until(TimeNs deadline) {
  const bool wall_armed = wall_deadline_ns_ >= 0;
  running_ = true;
  deadline_ = deadline;
  run_start_ = executed_;
  while (queue_.run_next_due(deadline, now_)) {
    ++executed_;
    if (executed_ >= event_limit_) [[unlikely]] {
      truncation_ = TruncationReason::kEventLimit;
      break;
    }
    if (wall_armed && ((executed_ - run_start_) & 0xFFF) == 0 &&
        monotonic_ns() >= wall_deadline_ns_) [[unlikely]] {
      truncation_ = TruncationReason::kWallDeadline;
      break;
    }
  }
  running_ = false;
  // Advancing the clock to the deadline only makes sense for a run that
  // drained everything due; a truncated run stops at the last event fired.
  if (truncation_ == TruncationReason::kNone && !deadline.is_infinite() &&
      now_ < deadline) {
    now_ = deadline;
  }
  return executed_ - run_start_;
}

bool Simulator::advance_inline(TimeNs at, std::uint32_t seq) {
  assert(running_ && "advance_inline outside an event callback");
  assert(at >= now_ && "inline successor in the past");
  // The calling event is done; the run_until() loop would count it, check
  // the guards on it, and pop the global minimum next.
  const std::uint64_t done = executed_ + 1;
  if (!running_ || at > deadline_ || done >= event_limit_) return false;
  if (wall_deadline_ns_ >= 0 && ((done - run_start_) & 0xFFF) == 0) {
    return false;  // a wall-clock sampling point: let the loop take it
  }
  if (!queue_.precedes_next(at, seq)) return false;
  executed_ = done;
  now_ = at;
  return true;
}

bool Simulator::advance_inline(TimeNs at) {
  if (!advance_inline(at, queue_.peek_seq())) return false;
  queue_.reserve_seq();
  return true;
}

}  // namespace ccfuzz::sim
