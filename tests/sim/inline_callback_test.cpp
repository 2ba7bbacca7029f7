// InlineCallback moves: closures smaller than the inline buffer (a
// capture-less lambda, a `[this]` lambda) survive move construction and move
// assignment through an inline helper and still run. The move copies the
// whole buffer, so these closures' unused bytes must be initialised; with
// the moves inlined at the construction site, GCC's -Wuninitialized (an
// error in the -Werror Release build) checks that at compile time.
#include "sim/inline_callback.h"

#include <gtest/gtest.h>

#include <utility>

#include "sim/event_queue.h"

namespace ccfuzz::sim {
namespace {

/// Move-constructs, then move-assigns, `cb` — inline, so the compiler sees
/// the buffer copy next to the closure's construction.
inline EventCallback relay(EventCallback cb) {
  EventCallback moved(std::move(cb));
  EventCallback assigned;
  assigned = std::move(moved);
  return assigned;
}

int g_captureless_calls = 0;

TEST(InlineCallback, CapturelessClosureSurvivesMoves) {
  g_captureless_calls = 0;
  EventCallback cb = relay([] { ++g_captureless_calls; });
  ASSERT_TRUE(cb);
  cb();
  cb();
  EXPECT_EQ(g_captureless_calls, 2);
}

struct Counter {
  int calls = 0;
  EventCallback bump() {
    return relay([this] { ++calls; });
  }
};

TEST(InlineCallback, ThisClosureSurvivesMoves) {
  Counter counter;
  EventCallback cb = counter.bump();
  ASSERT_TRUE(cb);
  cb();
  EXPECT_EQ(counter.calls, 1);

  // The moved-from side is empty; the moved-to side keeps the closure.
  EventCallback other = std::move(cb);
  EXPECT_FALSE(cb);
  ASSERT_TRUE(other);
  other();
  EXPECT_EQ(counter.calls, 2);
}

}  // namespace
}  // namespace ccfuzz::sim
