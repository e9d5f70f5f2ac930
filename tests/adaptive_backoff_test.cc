// The AdaptiveBackoff rule (parallel/park.h, DESIGN.md §13.2), driven with
// an injected clock so each wait and each ladder takes exactly the time
// the test says: after a wait that outlasted the full spin→yield ladder
// the next wait parks after kShortSpins relaxes; after a wait the ladder
// would have covered, the full ladder runs again.

#include "parallel/park.h"

#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

namespace qf {
namespace {

uint64_t g_now_ns = 0;
uint64_t FakeNow() { return g_now_ns; }

constexpr uint32_t kFull = AdaptiveBackoff::kSpins + AdaptiveBackoff::kYields;
constexpr uint32_t kShort = AdaptiveBackoff::kShortSpins;
constexpr uint32_t kNever = std::numeric_limits<uint32_t>::max();

/// Runs one wait on `b`. The clock reads `ladder_ns` past the wait's start
/// when the ladder runs out, and `wait_ns` past it when the wait ends (work
/// arrives after `steps_before_work` non-park steps, or after the park).
/// Returns the number of steps taken before ShouldPark said "park".
uint32_t RunWait(AdaptiveBackoff& b, uint64_t ladder_ns, uint64_t wait_ns,
                 uint32_t steps_before_work = kNever) {
  const uint64_t start = g_now_ns;
  uint32_t steps = 0;
  while (steps < steps_before_work) {
    const bool park = b.ShouldPark();  // the first call stamps `start`
    g_now_ns = start + ladder_ns;
    if (park) break;
    ++steps;
  }
  g_now_ns = start + wait_ns;
  b.Reset();
  return steps;
}

TEST(AdaptiveBackoffTest, FreshBackoffRunsTheFullLadder) {
  g_now_ns = 1000;
  AdaptiveBackoff b(&FakeNow);
  EXPECT_FALSE(b.short_ladder());
  EXPECT_EQ(RunWait(b, 10'000, 50'000), kFull);
}

TEST(AdaptiveBackoffTest, WaitThatOutlastedTheLadderShortensTheNext) {
  g_now_ns = 1000;
  AdaptiveBackoff b(&FakeNow);
  EXPECT_EQ(RunWait(b, 10'000, 1'000'000), kFull);  // parked, long gap
  EXPECT_TRUE(b.short_ladder());
  // Still a long gap: the short spin keeps being the right call.
  EXPECT_EQ(RunWait(b, 1'000, 2'000'000), kShort);
  EXPECT_TRUE(b.short_ladder());
  EXPECT_EQ(RunWait(b, 1'000, 20'000), kShort);
  EXPECT_TRUE(b.short_ladder());
}

TEST(AdaptiveBackoffTest, WaitTheLadderWouldHaveCoveredRestoresIt) {
  g_now_ns = 1000;
  AdaptiveBackoff b(&FakeNow);
  EXPECT_EQ(RunWait(b, 10'000, 1'000'000), kFull);
  // Parked after the short spin, but the wake came 4 µs in — inside the
  // 10 µs ladder, which would have caught it without a futex round trip.
  EXPECT_EQ(RunWait(b, 1'000, 4'000), kShort);
  EXPECT_FALSE(b.short_ladder());
  EXPECT_EQ(RunWait(b, 10'000, 1'000'000), kFull);
}

TEST(AdaptiveBackoffTest, WorkFoundMidLadderKeepsTheFullLadder) {
  g_now_ns = 1000;
  AdaptiveBackoff b(&FakeNow);
  EXPECT_EQ(RunWait(b, 10'000, 1'000'000), kFull);
  // A short-ladder wait that found work before parking.
  EXPECT_EQ(RunWait(b, 1'000, 500, /*steps_before_work=*/5), 5u);
  EXPECT_FALSE(b.short_ladder());
  // A full-ladder wait that found work in its spin phase: the ladder
  // covered it, so the next wait runs the full ladder too.
  EXPECT_EQ(RunWait(b, 10'000, 3'000, /*steps_before_work=*/100), 100u);
  EXPECT_FALSE(b.short_ladder());
  EXPECT_EQ(RunWait(b, 10'000, 1'000'000), kFull);
}

TEST(AdaptiveBackoffTest, TheLatestFullLadderIsTheYardstick) {
  g_now_ns = 1000;
  AdaptiveBackoff b(&FakeNow);
  EXPECT_EQ(RunWait(b, 10'000, 1'000'000), kFull);
  EXPECT_EQ(RunWait(b, 1'000, 5'000), kShort);  // inside the 10 µs ladder
  // This ladder took 30 µs (a slower moment); it becomes the yardstick.
  EXPECT_EQ(RunWait(b, 30'000, 40'000), kFull);
  EXPECT_TRUE(b.short_ladder());
  // 20 µs outlasts the first ladder but not the latest one.
  EXPECT_EQ(RunWait(b, 1'000, 20'000), kShort);
  EXPECT_FALSE(b.short_ladder());
}

TEST(AdaptiveBackoffTest, ResetWithoutAWaitChangesNothing) {
  g_now_ns = 1000;
  AdaptiveBackoff b(&FakeNow);
  EXPECT_EQ(RunWait(b, 10'000, 1'000'000), kFull);
  g_now_ns += 5'000'000;
  b.Reset();  // work found on the first poll: no wait was open
  EXPECT_TRUE(b.short_ladder());
  EXPECT_EQ(RunWait(b, 1'000, 2'000'000), kShort);
}

}  // namespace
}  // namespace qf
