// Per-job cost accounting. The benchmark harness reads these counters to
// reproduce the paper's reported columns: total map output size, shuffle
// (network) bytes, local disk read/write, per-phase time, wall time, and
// the Anti-Combining-specific counters (encoding mix, Shared spills, Map
// re-executions on reducers).
//
// Counter fields are declared through X-macro lists so Add and ToJson
// iterate one authoritative field set — adding a counter means adding one
// line to a list, and it shows up everywhere (metrics_test asserts ToJson
// covers every field). The phase list, ANTIMR_PHASE_CPU_FIELDS, lives with
// the phase clock that fills it (common/stopwatch.h); FinishTaskClock below
// is a task's one exit into these counters for time.
#ifndef ANTIMR_MR_METRICS_H_
#define ANTIMR_MR_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/stopwatch.h"

namespace antimr {

// JobMetrics counters that aggregate by summation. Grouping and intent:
// --- volume ---
//   input_records/input_bytes      job input
//   map_output_records/bytes       output of the *original* Map function (in
//                                  an Anti-Combining job: the intercepted,
//                                  pre-encoding output)
//   emitted_records/bytes          records/bytes actually entering the
//                                  shuffle (encoded form for Anti-Combining
//                                  jobs; equals map_output_* for originals)
//   combine_input/output_records   map-side Combiner compression ratio
//   map_spills                     map-side spill files written
//   shuffle_bytes                  bytes fetched by reducers from map output
//                                  files (post-compression): the paper's
//                                  mapper->reducer "data transfer"
// --- shuffle pipeline ---
//   shuffle_fetch_wait_nanos       wall time of segment transfer
//                                  (FetchedSegment::fetch_nanos of every
//                                  fetched segment, including simulated
//                                  disk/network transfer time); the local
//                                  engine's fetch tasks run outside the
//                                  reduce task, so this is not a phase
//   shuffle_blocks                 segment blocks decoded by reduce tasks
//   shuffle_overlapped_fetches     fetch tasks started while the map wave
//                                  was still running (the scheduler's
//                                  map/shuffle overlap)
//   reduce_input_records/groups    reduce-side volume
//   output_records/bytes           job output
// --- Anti-Combining ---
//   eager_records                  EagerSH-encoded records emitted
//   lazy_records                   LazySH-encoded records emitted
//   plain_records                  degenerate Eager (empty key set)
//   shared_insertions/spills/spill_bytes/spill_merges
//                                  Shared structure traffic
//   shared_combine_input/output_records  the same, Combiner inside Shared
//   remap_calls                    Map re-executions during LazySH decode
// --- environment ---
//   disk_bytes_read/written        simulated local disk traffic
// --- time ---
//   task_wall_nanos                task wall time, phase clock start to end
//                                  read; equals cpu.Total() task by task
//   total_cpu_nanos                task thread CPU time, read by the clock
//                                  at the same boundaries (plus, locally,
//                                  the CPU of each reduce's fetch tasks)
#define ANTIMR_JOB_SUM_FIELDS(X)   \
  X(input_records)                 \
  X(input_bytes)                   \
  X(map_output_records)            \
  X(map_output_bytes)              \
  X(emitted_records)               \
  X(emitted_bytes)                 \
  X(combine_input_records)         \
  X(combine_output_records)        \
  X(map_spills)                    \
  X(shuffle_bytes)                 \
  X(shuffle_fetch_wait_nanos)      \
  X(shuffle_blocks)                \
  X(shuffle_overlapped_fetches)    \
  X(reduce_input_records)          \
  X(reduce_groups)                 \
  X(output_records)                \
  X(output_bytes)                  \
  X(eager_records)                 \
  X(lazy_records)                  \
  X(plain_records)                 \
  X(shared_insertions)             \
  X(shared_spills)                 \
  X(shared_spill_bytes)            \
  X(shared_spill_merges)           \
  X(shared_combine_input_records)  \
  X(shared_combine_output_records) \
  X(remap_calls)                   \
  X(disk_bytes_read)               \
  X(disk_bytes_written)            \
  X(task_wall_nanos)               \
  X(total_cpu_nanos)

// Counters that aggregate by MAX across tasks:
//   shuffle_peak_buffered_bytes   peak bytes buffered by any single task's
//                                 segment readers (queued compressed frames
//                                 + current decompressed block, summed over
//                                 the task's merge inputs)
#define ANTIMR_JOB_MAX_FIELDS(X) X(shuffle_peak_buffered_bytes)

/// Exclusive task time per phase (common/stopwatch.h), summed over tasks.
/// A task is one thread, so its phases plus `other` are its wall time; the
/// paper's "total CPU time" column is total_cpu_nanos.
struct PhaseCpu {
#define ANTIMR_DECLARE_FIELD(name) uint64_t name = 0;
  ANTIMR_PHASE_CPU_FIELDS(ANTIMR_DECLARE_FIELD)
#undef ANTIMR_DECLARE_FIELD

  uint64_t Total() const;
  void Add(const PhaseCpu& rhs);
};

/// \brief Aggregated counters for one job execution. See the X-macro lists
/// above for the per-field documentation.
class JobMetrics {
 public:
#define ANTIMR_DECLARE_FIELD(name) uint64_t name = 0;
  ANTIMR_JOB_SUM_FIELDS(ANTIMR_DECLARE_FIELD)
  ANTIMR_JOB_MAX_FIELDS(ANTIMR_DECLARE_FIELD)
#undef ANTIMR_DECLARE_FIELD

  // --- time (aggregated specially, not in the X-lists) --------------------
  PhaseCpu cpu;
  uint64_t wall_nanos = 0;  ///< job wall-clock time

  /// Merge `other` (a task's metrics) into this job aggregate: sum fields
  /// are summed, max fields maxed, wall_nanos left alone (the runner sets
  /// it directly).
  void Add(const JobMetrics& other);

  /// Multi-line human-readable dump for examples and debugging.
  std::string ToString() const;

  /// Flat JSON object (all counters in base units) for external tooling.
  /// Emits every X-list field, every phase as "cpu_<phase>_nanos", plus
  /// wall_nanos.
  std::string ToJson() const;
};

/// \brief Per-task cost record, for load-balance / skew analysis (the
/// paper's Section 6.2 discusses the reduce-side skew LazySH can induce).
struct TaskMetrics {
  bool is_map = false;
  int task_id = 0;
  JobMetrics metrics;  ///< the task's own; CPU time is total_cpu_nanos
};

/// End the task whose StartPhaseClock returned `start_nanos`: add its phase
/// totals, wall and thread CPU time to *m, publish its remap count, and
/// when tracing lay the phases out from the start as "phase" X events that
/// tile the task's span like Table 2 (only their order is synthetic).
void FinishTaskClock(uint64_t start_nanos, JobMetrics* m);

/// Table of the `top_n` slowest tasks (by per-task CPU time) with each
/// task's dominant phase and that phase's share — the paper's Table 2
/// breakdown at per-task granularity. Returns "" for an empty task list.
std::string TopTasksReport(const std::vector<TaskMetrics>& tasks,
                           size_t top_n = 5);

/// "12.3 MB"-style formatting used by the bench tables.
std::string FormatBytes(uint64_t bytes);
/// "1.23 s"-style formatting.
std::string FormatNanos(uint64_t nanos);

}  // namespace antimr

#endif  // ANTIMR_MR_METRICS_H_
