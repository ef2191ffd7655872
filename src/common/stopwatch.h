// Clock reads and the per-thread phase clock, which splits one task's wall
// time into exclusive phases. A task starts the clock with one read; each
// phase switch is one read that charges the interval since the previous
// read to the phase being left; the end read charges what is left. The
// intervals tile the task, so the phase totals (with `other`, the time in
// no named phase) sum to its wall time to the nanosecond. A ScopedPhase
// restores the phase it interrupted, so nested work is charged to the inner
// phase only. AntiMapper's adaptive test (paper Fig. 7) takes the cost of a
// Map call from the switch that ends it.
#ifndef ANTIMR_COMMON_STOPWATCH_H_
#define ANTIMR_COMMON_STOPWATCH_H_

#include <cstddef>
#include <cstdint>

namespace antimr {

/// Monotonic wall-clock time in nanoseconds.
uint64_t NowNanos();

/// CPU time of the calling thread in nanoseconds (CLOCK_THREAD_CPUTIME_ID).
uint64_t ThreadCpuNanos();

// Task phases in pipeline order; also the "cpu_<phase>_nanos" JobMetrics
// fields, the trace's phase span names and the paper's Table 2 columns.
//   map_fn, reduce_fn  user Map / Reduce with their Setup and Cleanup
//                      (reduce_fn includes iterating a group's values)
//   partition_fn       map-side Partitioner calls
//   encode             map-side Anti-Combining encoding and emission
//   sort               map-side buffer sorts
//   combine            Combiner calls, the AntiCombiner's accumulation and
//                      re-encoding, Shared's in-memory combining
//   compress           block compression (map segments, Shared spills)
//   decompress         block CRC checks and decompression
//   merge              merging and grouping runs, minus what nests in it
//   decode             Anti-Combining payload decoding (both sides)
//   remap              LazySH Map re-execution and its Partition filter
//   shared             Shared inserts, pops and spill writes
//   other              reading input, fetching remote segments, opening
//                      readers, serializing segments
#define ANTIMR_PHASE_CPU_FIELDS(X) \
  X(map_fn)                        \
  X(partition_fn)                  \
  X(encode)                        \
  X(sort)                          \
  X(combine)                       \
  X(compress)                      \
  X(decompress)                    \
  X(merge)                         \
  X(decode)                        \
  X(remap)                         \
  X(shared)                        \
  X(reduce_fn)                     \
  X(other)

enum class Phase : uint8_t {
#define ANTIMR_PHASE_ENUM(name) name,
  ANTIMR_PHASE_CPU_FIELDS(ANTIMR_PHASE_ENUM)
#undef ANTIMR_PHASE_ENUM
  kCount
};
constexpr size_t kNumPhases = static_cast<size_t>(Phase::kCount);

/// One thread's clock. A task runs on one thread from StartPhaseClock to
/// StopPhaseClock, and tasks do not nest. Outside a task, switches still
/// read the clock but charge no task.
struct PhaseClock {
  uint64_t start = 0;      ///< the task's start read
  uint64_t last = 0;       ///< the latest read
  uint64_t cpu_start = 0;  ///< the thread CPU clock at the task's start
  Phase current = Phase::other;
  uint64_t nanos[kNumPhases] = {};
};

namespace internal {
extern constinit thread_local PhaseClock tls_phase_clock;
}  // namespace internal

/// Start the calling thread's clock for a task in phase `other`, every
/// total at zero. Returns the start read.
uint64_t StartPhaseClock();

/// End the task with one read charged to the current phase. The returned
/// clock's totals sum to `last - start`.
const PhaseClock& StopPhaseClock();

inline Phase CurrentPhase() { return internal::tls_phase_clock.current; }

/// Enter `next` with one read; returns the interval since the previous
/// read, which is charged to the phase being left.
inline uint64_t SwitchPhase(Phase next) {
  PhaseClock& c = internal::tls_phase_clock;
  const uint64_t now = NowNanos();
  const uint64_t elapsed = now - c.last;
  c.nanos[static_cast<size_t>(c.current)] += elapsed;
  c.last = now;
  c.current = next;
  return elapsed;
}

/// \brief Enters a phase for a scope, one read at each end. The exit read
/// charges whichever phase is current (code in the scope may have switched
/// on) and restores the phase the scope interrupted.
class ScopedPhase {
 public:
  explicit ScopedPhase(Phase phase) : outer_(CurrentPhase()) {
    SwitchPhase(phase);
  }
  ~ScopedPhase() { SwitchPhase(outer_); }

  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  Phase outer_;
};

}  // namespace antimr

#endif  // ANTIMR_COMMON_STOPWATCH_H_
