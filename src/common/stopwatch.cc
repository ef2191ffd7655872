#include "common/stopwatch.h"

#include <ctime>

namespace antimr {

namespace {
inline uint64_t ClockNanos(clockid_t id) {
  timespec ts;
  clock_gettime(id, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<uint64_t>(ts.tv_nsec);
}
}  // namespace

uint64_t NowNanos() { return ClockNanos(CLOCK_MONOTONIC); }

uint64_t ThreadCpuNanos() { return ClockNanos(CLOCK_THREAD_CPUTIME_ID); }

namespace internal {
constinit thread_local PhaseClock tls_phase_clock;
}  // namespace internal

uint64_t StartPhaseClock() {
  PhaseClock& c = internal::tls_phase_clock;
  c = PhaseClock();
  c.cpu_start = ThreadCpuNanos();
  c.start = c.last = NowNanos();
  return c.start;
}

const PhaseClock& StopPhaseClock() {
  SwitchPhase(Phase::other);
  return internal::tls_phase_clock;
}

}  // namespace antimr
