// Single-job orchestration: the classic RunJob(spec, splits) entry point,
// now a thin shim over the engine — it wraps the spec in a one-stage
// engine::JobPlan and runs it on a private engine::Executor. Multi-stage
// work (job chains, DAGs, cross-stage pipelining) should build a JobPlan
// directly; see engine/job_plan.h and engine/executor.h.
//
// The shuffle is a dependency graph: each reduce task's fetch of map task
// i's segment becomes runnable the moment map i finishes, so the shuffle
// overlaps the remaining map wave (Hadoop's parallel-copy shuffle phase).
#ifndef ANTIMR_MR_JOB_RUNNER_H_
#define ANTIMR_MR_JOB_RUNNER_H_

#include <vector>

#include "mr/job_spec.h"
#include "mr/local_cluster.h"
#include "mr/metrics.h"
#include "mr/shuffle.h"

namespace antimr {

/// \brief Completed-job artifacts.
struct JobResult {
  JobMetrics metrics;
  /// Reduce output per reduce task (empty when RunOptions::collect_output
  /// is false).
  std::vector<std::vector<KV>> outputs;
  /// Per-task breakdown (filled when RunOptions::collect_task_metrics).
  std::vector<TaskMetrics> task_metrics;

  /// Flatten outputs across reduce tasks (task order, then emission order).
  std::vector<KV> FlatOutput() const;
};

struct RunOptions {
  /// Worker threads for map/reduce tasks; 0 = hardware concurrency.
  int num_workers = 0;
  /// Dedicated threads for shuffle fetches; 0 = num_workers.
  int fetch_threads = 0;
  /// Per-segment streaming readahead window in blocks; 0 = default.
  size_t readahead_blocks = 0;
  /// Storage for intermediate data. When null the runner creates a private
  /// in-memory Env whose I/O counters become the job's disk metrics.
  Env* env = nullptr;
  /// Materialize reduce output in JobResult::outputs.
  bool collect_output = true;
  /// Name prefix for intermediate files (unique per job when empty).
  std::string job_id;
  /// Delete intermediate files after the job completes.
  bool cleanup_intermediates = true;
  /// Simulated disk/network bandwidth; default unthrottled.
  SimulatedHardware hardware;
  /// Fill JobResult::task_metrics with the per-task breakdown.
  bool collect_task_metrics = false;
  /// Total executions allowed per task; >1 retries transient failures.
  int max_task_attempts = 1;
  /// Backoff before a task's first retry; doubles per attempt (capped).
  uint64_t retry_backoff_nanos = 1000 * 1000;
};

/// Run `spec` over `splits` (one map task per split).
Status RunJob(const JobSpec& spec, const std::vector<InputSplit>& splits,
              const RunOptions& options, JobResult* result);

/// Convenience overload with default options.
Status RunJob(const JobSpec& spec, const std::vector<InputSplit>& splits,
              JobResult* result);

}  // namespace antimr

#endif  // ANTIMR_MR_JOB_RUNNER_H_
