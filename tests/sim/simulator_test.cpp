// Unit tests for the Simulator clock/driver and the restartable Timer.
#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <functional>
#include <vector>

namespace ccfuzz::sim {
namespace {

TEST(Simulator, ClockAdvancesWithEvents) {
  Simulator sim;
  EXPECT_EQ(sim.now(), TimeNs::zero());
  std::vector<std::int64_t> seen;
  sim.schedule_in(DurationNs::millis(10),
                  [&] { seen.push_back(sim.now().to_millis()); });
  sim.schedule_in(DurationNs::millis(5),
                  [&] { seen.push_back(sim.now().to_millis()); });
  sim.run_all();
  EXPECT_EQ(seen, (std::vector<std::int64_t>{5, 10}));
  EXPECT_EQ(sim.now(), TimeNs::millis(10));
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.schedule_in(DurationNs::millis(5), [&] { ++fired; });
  sim.schedule_in(DurationNs::millis(50), [&] { ++fired; });
  sim.run_until(TimeNs::millis(20));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), TimeNs::millis(20));  // clock parked at the deadline
  sim.run_until(TimeNs::millis(100));
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, EventAtDeadlineFires) {
  Simulator sim;
  bool fired = false;
  sim.schedule_at(TimeNs::millis(10), [&] { fired = true; });
  sim.run_until(TimeNs::millis(10));
  EXPECT_TRUE(fired);
}

TEST(Simulator, ScheduleAtPastClampsToNow) {
  Simulator sim;
  sim.schedule_in(DurationNs::millis(10), [] {});
  sim.run_all();
  bool fired = false;
  sim.schedule_at(TimeNs::millis(1), [&] { fired = true; });  // in the past
  sim.run_all();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.now(), TimeNs::millis(10));  // clock never went backwards
}

TEST(Simulator, CountsExecutedEvents) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule_in(DurationNs::millis(i), [] {});
  EXPECT_EQ(sim.run_all(), 7u);
  EXPECT_EQ(sim.events_executed(), 7u);
}

TEST(Simulator, CancelledEventDoesNotFire) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.schedule_in(DurationNs::millis(1), [&] { fired = true; });
  sim.cancel(id);
  sim.run_all();
  EXPECT_FALSE(fired);
}

TEST(Timer, FiresAfterDelay) {
  Simulator sim;
  int fired = 0;
  Timer t(sim, [&] { ++fired; });
  t.arm(DurationNs::millis(3));
  EXPECT_TRUE(t.pending());
  EXPECT_EQ(t.expiry(), TimeNs::millis(3));
  sim.run_all();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(t.pending());
}

TEST(Timer, RearmCancelsPrevious) {
  Simulator sim;
  std::vector<std::int64_t> fire_times;
  Timer t(sim, [&] { fire_times.push_back(sim.now().to_millis()); });
  t.arm(DurationNs::millis(5));
  t.arm(DurationNs::millis(10));  // replaces the 5 ms expiry
  sim.run_all();
  EXPECT_EQ(fire_times, (std::vector<std::int64_t>{10}));
}

TEST(Timer, CancelStopsPending) {
  Simulator sim;
  int fired = 0;
  Timer t(sim, [&] { ++fired; });
  t.arm(DurationNs::millis(5));
  t.cancel();
  EXPECT_FALSE(t.pending());
  sim.run_all();
  EXPECT_EQ(fired, 0);
}

TEST(Timer, CanRearmFromItsOwnCallback) {
  Simulator sim;
  int fired = 0;
  Timer* tp = nullptr;
  Timer t(sim, [&] {
    if (++fired < 3) tp->arm(DurationNs::millis(1));
  });
  tp = &t;
  t.arm(DurationNs::millis(1));
  sim.run_all();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.now(), TimeNs::millis(3));
}

TEST(Simulator, AdvanceInlineRunsASuccessorInPlace) {
  Simulator sim;
  std::vector<std::int64_t> seen;
  sim.schedule_at(TimeNs::millis(1), [&] {
    seen.push_back(sim.now().to_millis());
    ASSERT_TRUE(sim.advance_inline(TimeNs::millis(2)));
    seen.push_back(sim.now().to_millis());
  });
  sim.schedule_at(TimeNs::millis(3), [&] { seen.push_back(-3); });
  EXPECT_EQ(sim.run_all(), 3u);  // the inline successor counts as an event
  EXPECT_EQ(seen, (std::vector<std::int64_t>{1, 2, -3}));
}

TEST(Simulator, AdvanceInlineRefusesPastTheDeadline) {
  Simulator sim;
  bool advanced = true;
  sim.schedule_at(TimeNs::millis(5),
                  [&] { advanced = sim.advance_inline(TimeNs::millis(11)); });
  EXPECT_EQ(sim.run_until(TimeNs::millis(10)), 1u);
  EXPECT_FALSE(advanced);
  EXPECT_EQ(sim.now(), TimeNs::millis(10));
}

TEST(Simulator, AdvanceInlineRefusesATieWithAnEarlierSeq) {
  // An equal-time event queued earlier (lower seq) fires first, so a fresh
  // successor at its time must not jump ahead; a seq reserved before it may.
  Simulator sim;
  std::vector<int> order;
  const std::uint32_t reserved = sim.reserve_seq();
  sim.schedule_at(TimeNs::millis(2), [&] { order.push_back(2); });
  sim.schedule_at(TimeNs::millis(1), [&] {
    order.push_back(0);
    EXPECT_FALSE(sim.advance_inline(TimeNs::millis(2)));
    EXPECT_EQ(sim.now(), TimeNs::millis(1));
    ASSERT_TRUE(sim.advance_inline(TimeNs::millis(2), reserved));
    order.push_back(1);
  });
  EXPECT_EQ(sim.run_all(), 3u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Simulator, AdvanceInlineRefusesPastTheEventLimit) {
  Simulator sim;
  Budget b;
  b.max_events = 1;
  sim.arm_budget(b);
  bool advanced = true;
  sim.schedule_at(TimeNs::millis(1),
                  [&] { advanced = sim.advance_inline(TimeNs::millis(2)); });
  EXPECT_EQ(sim.run_all(), 1u);
  EXPECT_FALSE(advanced);
  EXPECT_EQ(sim.truncation(), TruncationReason::kEventLimit);
}

/// A 1 ms tick chain interleaved with a 3 ms timer, truncated at `limit`
/// events. The lazy variant runs tick successors in place when it can; the
/// eager one re-queues every tick. Returns the ticks that ran.
std::vector<std::int64_t> run_tick_chain(bool lazy, std::uint64_t limit,
                                         Simulator& sim) {
  std::vector<std::int64_t> ticks;
  Budget b;
  b.max_events = limit;
  sim.arm_budget(b);
  std::function<void()> tick;
  tick = [&] {
    TimeNs next;
    do {
      ticks.push_back(sim.now().to_millis());
      next = sim.now() + DurationNs::millis(1);
    } while (lazy && sim.advance_inline(next));
    sim.schedule_at(next, [&] { tick(); });
  };
  std::function<void()> timer;
  timer = [&] {
    ticks.push_back(-sim.now().to_millis());
    sim.schedule_in(DurationNs::millis(3), [&] { timer(); });
  };
  sim.schedule_at(TimeNs::zero(), [&] { tick(); });
  sim.schedule_at(TimeNs::millis(1), [&] { timer(); });
  sim.run_until(TimeNs::millis(1000));
  return ticks;
}

TEST(Simulator, EventLimitTruncationLandsOnTheSameEventAsEagerChain) {
  for (const std::uint64_t limit : {1u, 2u, 7u, 50u}) {
    SCOPED_TRACE(limit);
    Simulator eager;
    Simulator lazy;
    const auto a = run_tick_chain(false, limit, eager);
    const auto b = run_tick_chain(true, limit, lazy);
    EXPECT_EQ(a, b);
    EXPECT_EQ(eager.events_executed(), limit);
    EXPECT_EQ(lazy.events_executed(), limit);
    EXPECT_EQ(eager.now(), lazy.now());
    EXPECT_EQ(lazy.truncation(), TruncationReason::kEventLimit);
  }
}

TEST(Simulator, DeterministicReplay) {
  // Two identical schedules must produce identical execution traces.
  auto run = [] {
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 100; ++i) {
      sim.schedule_in(DurationNs::millis((i * 37) % 50),
                      [&order, i] { order.push_back(i); });
    }
    sim.run_all();
    return order;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace ccfuzz::sim
