// The planner is the one code path that turns a JobPlan into tasks: every
// stage becomes map tasks, (local) fetch tasks, reduce tasks and a cleanup
// task of one dependency-aware TaskGraph, and the finished tasks' metrics
// roll up per stage and per plan. A producer stage's reduce task for
// partition p feeds the consumer stage's map task over that partition, with
// no barrier between stages, so stage N+1 overlaps the tail of stage N just
// as fetch tasks overlap the map wave inside one stage.
//
// Where a task body runs is a TaskRunner's business: the Executor's local
// runner runs it in-process; the RemoteRunner (engine/remote_runner.h)
// ships it to a worker as a TaskAssign. A remote reduce fetches its own
// segments, so a runner without a fetch pool gets no fetch tasks.
#ifndef ANTIMR_ENGINE_PLANNER_H_
#define ANTIMR_ENGINE_PLANNER_H_

#include <atomic>
#include <deque>
#include <string>
#include <vector>

#include "engine/dataset_catalog.h"
#include "engine/executor.h"
#include "engine/job_plan.h"
#include "mr/task_graph.h"
#include "mr/map_task.h"
#include "mr/reduce_task.h"
#include "net/shuffle_service.h"

namespace antimr {
namespace engine {

/// One map task's input: its split, the graph task it must wait for (the
/// producing reduce task; -1 for external splits), the dataset it consumes
/// (for the catalog's refcount), and its split or partition index there.
struct MapInput {
  InputSplit split;
  int dep = -1;
  const std::string* dataset = nullptr;
  int index = 0;
};

/// \brief Physical execution state of one stage, populated by its tasks.
///
/// Held in a deque (atomics make it immovable); task lambdas capture
/// pointers into it, so it must not move while the graph runs.
struct StageExec {
  int stage_index = 0;
  JobSpec run_spec;  ///< stage spec after the Anti-Combining transform
  std::string job_id;  ///< scope of the stage's task ids and files
  std::string trace_label;  ///< stage name used in span names
  std::string output_dataset;
  /// Reduce tasks materialize their output and publish it to the catalog.
  bool publish_output = false;

  std::vector<MapInput> map_inputs;  ///< one per map task
  std::vector<MapTaskResult> map_results;
  std::vector<ReduceTaskResult> reduce_results;
  /// fetched[p][i]: map i's segments for partition p, in run order.
  std::vector<std::vector<std::vector<FetchedSegment>>> fetched;
  std::vector<std::atomic<uint64_t>> fetch_cpu;  ///< per reduce partition

  std::atomic<size_t> maps_remaining{0};
  std::atomic<uint64_t> overlapped_fetches{0};
  /// Stage activity span (NowNanos timestamps), for the per-stage wall
  /// clock and the cross-stage overlap metric.
  std::atomic<uint64_t> first_start{~uint64_t{0}};
  std::atomic<uint64_t> last_end{0};

  /// Graph ids of this stage's reduce tasks, one per partition —
  /// the cross-stage dependency anchors for consumer stages.
  std::vector<int> reduce_task_ids;
};

/// \brief Where a lowered stage's task bodies execute.
///
/// The planner owns the graph shape, the dataset wiring and the stage
/// bookkeeping; a runner runs one attempt of one task and fills the
/// StageExec slots of that task. Calls arrive concurrently from pool
/// threads, each for a distinct task.
class TaskRunner {
 public:
  virtual ~TaskRunner() = default;

  /// Pool for the fetch tasks lowered between maps and reduces; null when
  /// reduce tasks fetch their own segments (no fetch tasks are lowered).
  virtual TaskPool* fetch_pool() { return nullptr; }

  /// Attempt `attempt` of map `m`: fill map_results[m].
  virtual Status Map(StageExec* st, size_t m, int attempt) = 0;

  /// Pull map `m`'s segments for partition `p` into fetched[p][m] (only
  /// called when fetch_pool() is non-null).
  virtual Status Fetch(StageExec*, size_t, size_t) {
    return Status::Internal("runner lowers no fetch tasks");
  }

  /// Attempt `attempt` of reduce `p`: fill reduce_results[p] (its output
  /// when st->publish_output) and reduce_cpu[p].
  virtual Status Reduce(StageExec* st, size_t p, int attempt) = 0;

  /// Delete a stage's segment files once every map and reduce of the stage
  /// is terminal, on success and failure paths alike.
  virtual void Cleanup(StageExec* st) = 0;
};

/// "<prefix>_<name>_<n>", unique within the process: a default job id.
std::string UniqueJobId(const std::string& prefix, const std::string& name);

/// What RunPlan lowers and how the graph runs it.
struct PlannerContext {
  const JobPlan* plan = nullptr;
  TaskRunner* runner = nullptr;
  /// Scope of the plan's task ids and files; stage s of a longer plan nests
  /// under `<job_id>/s<s>`, inside the scope (worker.h JobIdInScope).
  std::string job_id;
  TaskPool* pool = nullptr;  ///< runs the map, reduce and cleanup bodies
  RetryPolicy retry;
  bool collect_outputs = true;        ///< retain sink datasets in the catalog
  bool cleanup_intermediates = true;  ///< lower a cleanup task per stage
  bool collect_task_metrics = false;  ///< fill StageResult::tasks
};

/// Lower `ctx.plan` (already validated), run the graph to completion, and
/// roll the task metrics up per stage and per plan into `result`, with the
/// sink outputs and the datasets' final states. The plan's wall time and
/// disk bytes are the caller's to set. Returns the first lowering or task
/// failure.
Status RunPlan(const PlannerContext& ctx, PlanResult* result);

}  // namespace engine
}  // namespace antimr

#endif  // ANTIMR_ENGINE_PLANNER_H_
