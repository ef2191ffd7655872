// Map task driver: run the Mapper over its split, buffer output, and spill
// with partition/sort (+Combiner) — the Hadoop 1.x map-side pipeline the
// paper executes on (Section 2, Figure 2). Each spill writes one compressed
// run per reduce partition. Unlike Hadoop 1.x, which merges any two or more
// spills, a task ships its runs as they are (the reducer k-way merges them
// anyway); only a task with a Combiner and three or more spills merges
// them, combining again, into one segment per partition.
#ifndef ANTIMR_MR_MAP_TASK_H_
#define ANTIMR_MR_MAP_TASK_H_

#include <string>
#include <vector>

#include "mr/job_spec.h"
#include "mr/metrics.h"
#include "mr/shuffle.h"
#include "mr/task_control.h"

namespace antimr {

struct MapTaskResult {
  /// Per reduce partition, this task's segment files in merge order: one
  /// run per spill, or the one merged segment (empty when the partition got
  /// no records from this task).
  std::vector<std::vector<std::string>> segment_files;
  JobMetrics metrics;
};

/// Execute map task `task_id` over `split`, writing output to `env` under
/// names scoped by `job_id`. `control` (optional) is polled between input
/// batches: a requested cancel aborts with a transient IOError after
/// scrubbing this attempt's partial output, and coarse progress is
/// published for straggler detection. `total_records` (0 = unknown) scales
/// the progress denominator.
Status RunMapTask(const JobSpec& spec, const std::string& job_id, int task_id,
                  const InputSplit& split, Env* env, MapTaskResult* result,
                  TaskControl* control = nullptr, uint64_t total_records = 0);

}  // namespace antimr

#endif  // ANTIMR_MR_MAP_TASK_H_
