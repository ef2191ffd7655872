// The physical layer of the engine: an Executor owns the persistent worker
// pool, runs a whole JobPlan as one dependency-aware TaskGraph (via the
// planner), tracks intermediate datasets in a DatasetCatalog, and rolls the
// task metrics up per stage and per plan. One Executor can run many plans;
// its threads are spawned once.
#ifndef ANTIMR_ENGINE_EXECUTOR_H_
#define ANTIMR_ENGINE_EXECUTOR_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/dataset_catalog.h"
#include "engine/job_plan.h"
#include "mr/local_cluster.h"
#include "mr/metrics.h"
#include "mr/shuffle.h"
#include "net/transport.h"

namespace antimr {
namespace engine {

struct ExecutorOptions {
  /// Worker threads for map/reduce tasks; 0 = hardware concurrency.
  int num_workers = 0;
  /// Dedicated threads for shuffle fetches; 0 = num_workers.
  int fetch_threads = 0;
  /// Per-segment streaming readahead window in blocks; 0 = default.
  size_t readahead_blocks = 0;
  /// Storage for intermediate data. When null each Run creates a private
  /// in-memory Env whose I/O counters become the plan's disk metrics.
  Env* env = nullptr;
  /// Materialize sink datasets in PlanResult::outputs.
  bool collect_outputs = true;
  /// Delete intermediate segment files as each stage's reduces finish.
  bool cleanup_intermediates = true;
  /// Simulated disk/network bandwidth; default unthrottled.
  SimulatedHardware hardware;
  /// Fill each StageResult::tasks with the per-task breakdown.
  bool collect_task_metrics = false;
  /// Name prefix for intermediate files (unique per run when empty).
  std::string run_id;
  /// Total executions allowed per task (map/fetch/reduce). 1 = fail the
  /// plan on the first task error, as before retries existed; >1 retries
  /// transient failures (Status::IsTransient) with capped exponential
  /// backoff and re-publish-safe, attempt-scoped task outputs.
  int max_task_attempts = 1;
  /// Backoff before a task's first retry; doubles per attempt (capped).
  uint64_t retry_backoff_nanos = 1000 * 1000;
  /// Transport for the shuffle data plane. Every shuffled byte crosses this
  /// boundary (a per-run SegmentServer serves map segments; reduce-side
  /// fetchers pull them through a ShuffleClient), so loopback and TCP runs
  /// account bytes at the same framing site. Null = per-run loopback.
  net::Transport* transport = nullptr;
};

/// \brief Metrics roll-up for one stage of a plan.
struct StageResult {
  std::string name;          ///< Stage::name (falls back to the spec name)
  std::string output;        ///< dataset the stage produced
  JobMetrics metrics;        ///< summed over the stage's tasks
  uint64_t first_start_nanos = 0;  ///< NowNanos of first task start (0 if idle)
  uint64_t last_end_nanos = 0;     ///< NowNanos of last task end
  /// Per-task breakdown (filled when ExecutorOptions::collect_task_metrics).
  std::vector<TaskMetrics> tasks;
};

/// \brief Completed-plan artifacts.
struct PlanResult {
  /// Whole-plan roll-up. wall_nanos is the run span; disk_bytes_* are the
  /// Env counter deltas for the run (per-stage metrics carry 0 there — the
  /// Env does not attribute I/O to stages).
  JobMetrics metrics;
  std::vector<StageResult> stages;  ///< indexed like JobPlan::stages()
  /// Nanoseconds during which two stages connected by a dataset edge were
  /// active at the same time, summed over edges: the cross-stage pipelining
  /// the planner's partition-level dependencies buy. 0 under a full barrier.
  uint64_t stage_overlap_nanos = 0;
  /// Post-run state of every dataset (for GC assertions and debugging).
  std::vector<DatasetInfo> datasets;
  /// Sink dataset -> reduce output per partition (when collect_outputs).
  std::map<std::string, std::vector<std::vector<KV>>> outputs;

  /// Flatten a sink dataset across partitions (partition order, then
  /// emission order). Empty if not collected.
  std::vector<KV> FlatOutput(const std::string& name) const;
};

/// \brief Runs JobPlans on a persistent TaskPool.
class Executor {
 public:
  explicit Executor(const ExecutorOptions& options = ExecutorOptions());

  /// Validate and run `plan`. Blocks until every task has finished or been
  /// skipped; returns the first task failure (by graph add order) or the
  /// first validation error. `result` is filled even on failure where
  /// possible (metrics of completed tasks, dataset states).
  Status Run(const JobPlan& plan, PlanResult* result);

  TaskPool* pool() { return &pool_; }

 private:
  ExecutorOptions options_;
  TaskPool pool_;
  std::unique_ptr<TaskPool> fetch_pool_;  ///< created on first Run
};

}  // namespace engine
}  // namespace antimr

#endif  // ANTIMR_ENGINE_EXECUTOR_H_
