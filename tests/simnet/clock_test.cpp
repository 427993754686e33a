#include "simnet/clock.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace now::sim {
namespace {

TEST(VirtualClock, AdvanceAccumulates) {
  VirtualClock c;
  c.advance_ns(1000);
  c.advance_us(2.0);
  EXPECT_EQ(c.now_ns(), 3000u);
  EXPECT_DOUBLE_EQ(c.now_us(), 3.0);
}

TEST(VirtualClock, AdvanceToNeverMovesBackwards) {
  VirtualClock c;
  c.advance_ns(5000);
  c.advance_to_ns(3000);
  EXPECT_EQ(c.now_ns(), 5000u);
  c.advance_to_ns(9000);
  EXPECT_EQ(c.now_ns(), 9000u);
}

TEST(VirtualClock, ConcurrentAdvanceIsLossless) {
  VirtualClock c;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t)
    threads.emplace_back([&c] {
      for (int i = 0; i < 10000; ++i) c.advance_ns(3);
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.now_ns(), 8u * 10000u * 3u);
}

TEST(VirtualClock, ConcurrentAdvanceToTakesMax) {
  VirtualClock c;
  std::vector<std::thread> threads;
  for (int t = 1; t <= 8; ++t)
    threads.emplace_back([&c, t] { c.advance_to_ns(static_cast<std::uint64_t>(t) * 100); });
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.now_ns(), 800u);
}

TEST(TimeModel, ComputeChargeAtScaleZeroAdvancesNothing) {
  TimeModel tm;
  tm.cpu_scale = 0.0;
  VirtualClock c;
  c.advance_ns(tm.compute_ns(1000000, 37.5));
  EXPECT_EQ(c.now_ns(), 0u);
}

TEST(TimeModel, ComputeChargeIsUnitsTimesPriceTimesScale) {
  TimeModel tm;
  tm.cpu_scale = 150.0;
  VirtualClock c;
  c.advance_ns(tm.compute_ns(4096, 2.5));
  EXPECT_EQ(c.now_ns(), 4096u * 375u);  // 2.5 host ns x 150 per unit
  // The charge depends on nothing but its arguments.
  c.advance_ns(tm.compute_ns(4096, 2.5));
  EXPECT_EQ(c.now_ns(), 2u * 4096u * 375u);
}

}  // namespace
}  // namespace now::sim
