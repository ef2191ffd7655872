#include "common/stopwatch.h"

#include <thread>

#include <gtest/gtest.h>

namespace antimr {
namespace {

uint64_t Nanos(const PhaseClock& clock, Phase phase) {
  return clock.nanos[static_cast<size_t>(phase)];
}

uint64_t Sum(const PhaseClock& clock) {
  uint64_t total = 0;
  for (uint64_t n : clock.nanos) total += n;
  return total;
}

void SleepMs(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

TEST(Clock, NowNanosIsMonotonic) {
  uint64_t last = NowNanos();
  for (int i = 0; i < 1000; ++i) {
    const uint64_t now = NowNanos();
    EXPECT_GE(now, last);
    last = now;
  }
}

TEST(Clock, ThreadCpuExcludesSleep) {
  const uint64_t cpu_start = ThreadCpuNanos();
  const uint64_t wall_start = NowNanos();
  SleepMs(50);
  const uint64_t cpu = ThreadCpuNanos() - cpu_start;
  const uint64_t wall = NowNanos() - wall_start;
  EXPECT_GE(wall, 40'000'000u);
  // Sleeping burns (almost) no CPU.
  EXPECT_LT(cpu, wall / 2);
}

TEST(PhaseClock, NestedSwitchRestoresOuterPhase) {
  StartPhaseClock();
  EXPECT_EQ(CurrentPhase(), Phase::other);
  {
    ScopedPhase outer(Phase::map_fn);
    SleepMs(5);
    {
      ScopedPhase inner(Phase::partition_fn);
      EXPECT_EQ(CurrentPhase(), Phase::partition_fn);
      SleepMs(5);
    }
    EXPECT_EQ(CurrentPhase(), Phase::map_fn);
    SleepMs(5);
  }
  EXPECT_EQ(CurrentPhase(), Phase::other);
  const PhaseClock& clock = StopPhaseClock();
  EXPECT_GE(Nanos(clock, Phase::map_fn), 10'000'000u);
  EXPECT_GE(Nanos(clock, Phase::partition_fn), 5'000'000u);
  // Exclusive: the inner sleep is charged to partition_fn only, so the
  // totals still add up to the task's duration.
  EXPECT_EQ(Sum(clock), clock.last - clock.start);
}

// Each switch is one clock read: the interval it returns starts at the
// previous switch's read and ends at its own, so back-to-back switches tile
// the task with no gap and no overlap.
TEST(PhaseClock, BackToBackSwitchesCostOneReadEach) {
  const uint64_t start = StartPhaseClock();
  const uint64_t to_map = SwitchPhase(Phase::map_fn);
  const uint64_t first_read = internal::tls_phase_clock.last;
  const uint64_t to_encode = SwitchPhase(Phase::encode);
  const uint64_t second_read = internal::tls_phase_clock.last;
  EXPECT_EQ(to_map, first_read - start);
  EXPECT_EQ(to_encode, second_read - first_read);
  const PhaseClock& clock = StopPhaseClock();
  EXPECT_EQ(Nanos(clock, Phase::map_fn), to_encode);
  EXPECT_EQ(Nanos(clock, Phase::encode), clock.last - second_read);
  EXPECT_EQ(Nanos(clock, Phase::other), to_map);
  EXPECT_EQ(Sum(clock), clock.last - start);
}

// A switch inside a scope moves the scope's remainder to the new phase: the
// exit read charges whichever phase is current, then restores the outer one.
TEST(PhaseClock, ScopeExitChargesThePhaseLeftCurrent) {
  StartPhaseClock();
  {
    ScopedPhase scope(Phase::map_fn);
    SwitchPhase(Phase::encode);
    SleepMs(5);
  }
  EXPECT_EQ(CurrentPhase(), Phase::other);
  const PhaseClock& clock = StopPhaseClock();
  EXPECT_GE(Nanos(clock, Phase::encode), 5'000'000u);
  EXPECT_LT(Nanos(clock, Phase::map_fn), 5'000'000u);
  EXPECT_EQ(Sum(clock), clock.last - clock.start);
}

TEST(PhaseClock, StartResetsTheTotals) {
  StartPhaseClock();
  SwitchPhase(Phase::sort);
  SleepMs(2);
  StopPhaseClock();
  StartPhaseClock();
  const PhaseClock& clock = StopPhaseClock();
  EXPECT_EQ(Nanos(clock, Phase::sort), 0u);
  EXPECT_EQ(Sum(clock), clock.last - clock.start);
}

}  // namespace
}  // namespace antimr
