// Per-job cost accounting. The benchmark harness reads these counters to
// reproduce the paper's reported columns: total map output size, shuffle
// (network) bytes, local disk read/write, per-phase CPU time, wall time, and
// the Anti-Combining-specific counters (encoding mix, Shared spills, Map
// re-executions on reducers).
//
// Counter fields are declared through X-macro lists so Add and ToJson
// iterate one authoritative field set — adding a counter means adding one
// line to a list, and it shows up everywhere (metrics_test asserts ToJson
// covers every field).
#ifndef ANTIMR_MR_METRICS_H_
#define ANTIMR_MR_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace antimr {

// CPU nanoseconds per pipeline phase, in pipeline order. These names are
// also the trace span names and the "dominant phase" vocabulary of
// TopTasksReport, mirroring the paper's Table 2 phase breakdown.
//   map_fn       user Map function
//   partition_fn Partitioner calls
//   encode       Anti-Combining encoding (mapper side)
//   sort         map-side buffer sorts
//   combine      Combiner calls (map or reduce phase)
//   compress     codec compression
//   decompress   codec decompression
//   merge        spill / segment merging
//   decode       Anti-Combining decoding (reducer side)
//   remap        LazySH Map re-execution on reducers, with the
//                Partitioner that filters its output as it is emitted;
//                the kept records' Shared inserts are charged to shared
//   shared       Shared structure maintenance incl. spills
//   reduce_fn    user Reduce function
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
  X(reduce_fn)

// JobMetrics counters that aggregate by summation. Grouping and intent:
// --- volume ---
//   input_records/input_bytes      job input
//   map_output_records/bytes       output of the *original* Map function (in
//                                  an Anti-Combining job: the intercepted,
//                                  pre-encoding output)
//   emitted_records/bytes          records/bytes actually entering the
//                                  shuffle (encoded form for Anti-Combining
//                                  jobs; equals map_output_* for originals)
//   combine_input/output_records   Combiner compression ratio
//   map_spills                     map-side spill files written
//   shuffle_bytes                  bytes fetched by reducers from map output
//                                  files (post-compression): the paper's
//                                  mapper->reducer "data transfer"
// --- shuffle pipeline phases ---
//   shuffle_fetch_wait_nanos       reduce-side wall time of segment
//                                  transfer (FetchedSegment::fetch_nanos of
//                                  every fetched segment, including
//                                  simulated disk/network transfer time)
//   shuffle_decode_nanos           reduce-side CRC verify + decompression
//   shuffle_merge_nanos            reduce-side merge/consume wall time
//                                  (RunGroups minus the user Reduce fn)
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
//   remap_calls                    Map re-executions during LazySH decode
// --- environment ---
//   disk_bytes_read/written        simulated local disk traffic
#define ANTIMR_JOB_SUM_FIELDS(X) \
  X(input_records)               \
  X(input_bytes)                 \
  X(map_output_records)          \
  X(map_output_bytes)            \
  X(emitted_records)             \
  X(emitted_bytes)               \
  X(combine_input_records)       \
  X(combine_output_records)      \
  X(map_spills)                  \
  X(shuffle_bytes)               \
  X(shuffle_fetch_wait_nanos)    \
  X(shuffle_decode_nanos)        \
  X(shuffle_merge_nanos)         \
  X(shuffle_blocks)              \
  X(shuffle_overlapped_fetches)  \
  X(reduce_input_records)        \
  X(reduce_groups)               \
  X(output_records)              \
  X(output_bytes)                \
  X(eager_records)               \
  X(lazy_records)                \
  X(plain_records)               \
  X(shared_insertions)           \
  X(shared_spills)               \
  X(shared_spill_bytes)          \
  X(shared_spill_merges)         \
  X(remap_calls)                 \
  X(disk_bytes_read)             \
  X(disk_bytes_written)

// Counters that aggregate by MAX across tasks:
//   shuffle_peak_buffered_bytes   peak bytes buffered by any single task's
//                                 segment readers (queued compressed frames
//                                 + current decompressed block, summed over
//                                 the task's merge inputs)
#define ANTIMR_JOB_MAX_FIELDS(X) X(shuffle_peak_buffered_bytes)

/// CPU nanoseconds attributed to each pipeline phase. Task sections are
/// single-threaded pure CPU, so scoped wall time is used as the CPU proxy,
/// matching the paper's "total CPU time" (summed across all tasks).
struct PhaseCpu {
#define ANTIMR_DECLARE_FIELD(name) uint64_t name = 0;
  ANTIMR_PHASE_CPU_FIELDS(ANTIMR_DECLARE_FIELD)
#undef ANTIMR_DECLARE_FIELD

  uint64_t Total() const;
  void Add(const PhaseCpu& other);
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
  uint64_t total_cpu_nanos = 0;  ///< thread CPU time summed over all tasks
  uint64_t wall_nanos = 0;       ///< job wall-clock time

  /// Merge `other` (a task's metrics) into this job aggregate: sum fields
  /// are summed, max fields maxed, wall_nanos left alone (the runner sets
  /// it directly).
  void Add(const JobMetrics& other);

  /// Multi-line human-readable dump for examples and debugging.
  std::string ToString() const;

  /// Flat JSON object (all counters in base units) for external tooling.
  /// Emits every X-list field, every phase as "cpu_<phase>_nanos", plus
  /// total_cpu_nanos and wall_nanos.
  std::string ToJson() const;
};

/// \brief Per-task cost record, for load-balance / skew analysis (the
/// paper's Section 6.2 discusses the reduce-side skew LazySH can induce).
struct TaskMetrics {
  bool is_map = false;
  int task_id = 0;
  uint64_t cpu_nanos = 0;  ///< thread CPU time of the task
  JobMetrics metrics;
};

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
