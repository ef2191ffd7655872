// The planner lowers a logical JobPlan into one dependency-aware TaskGraph.
// Every stage contributes map tasks, fetch tasks, reduce tasks, and a
// segment-cleanup task; cross-stage edges connect a producer stage's reduce
// task for partition p to the consumer stage's map task over that partition. There is no barrier between stages: a downstream map runs
// the instant the single partition it reads is published, so stage N+1
// overlaps the tail of stage N (cross-stage pipelining), exactly as fetch
// tasks overlap the map wave inside one stage.
#ifndef ANTIMR_ENGINE_PLANNER_H_
#define ANTIMR_ENGINE_PLANNER_H_

#include <atomic>
#include <deque>
#include <string>
#include <vector>

#include "engine/dataset_catalog.h"
#include "engine/job_plan.h"
#include "mr/local_cluster.h"
#include "mr/map_task.h"
#include "mr/reduce_task.h"
#include "net/shuffle_service.h"

namespace antimr {
namespace engine {

/// Resources and knobs the lowered tasks run against. Owned by the
/// Executor; the planner only borrows them.
struct PlannerContext {
  const JobPlan* plan = nullptr;
  DatasetCatalog* catalog = nullptr;
  Env* task_env = nullptr;     ///< storage as tasks see it (maybe throttled)
  Env* cleanup_env = nullptr;  ///< unthrottled storage for file deletion
  TaskPool* fetch_pool = nullptr;  ///< dedicated pool for shuffle fetches
  /// Shuffle data plane (required): segments are pulled from
  /// `shuffle_addr` (the Executor's SegmentServer over task_env) through
  /// this client, so every shuffled byte crosses the transport framing
  /// layer, and the client charges the simulated network bandwidth.
  net::ShuffleClient* shuffle = nullptr;
  std::string shuffle_addr;
  size_t readahead_blocks = 0;
  bool collect_outputs = true;        ///< retain sink datasets in the catalog
  bool cleanup_intermediates = true;  ///< delete segment files per stage
  std::string run_id;
};

/// \brief Physical execution state of one stage, populated by its tasks.
///
/// Held in a deque by the Executor (atomics make it immovable); task
/// lambdas capture pointers into it, so it must not move while the graph
/// runs.
struct StageExec {
  int stage_index = 0;
  JobSpec run_spec;  ///< stage spec after the Anti-Combining transform
  std::string job_id;
  std::string trace_label;  ///< stage name used in span names
  std::string output_dataset;
  bool publish_output = false;  ///< reduce tasks publish to the catalog
  bool collect_output = false;  ///< reduce tasks materialize their output

  size_t num_maps = 0;
  std::vector<MapTaskResult> map_results;
  std::vector<uint64_t> map_cpu;
  std::vector<ReduceTaskResult> reduce_results;
  std::vector<uint64_t> reduce_cpu;
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

/// Lower `ctx.plan` into `graph`, appending one StageExec per stage to
/// `stages` (indexed by stage, not topological position). Tasks may start
/// running while later stages are still being lowered; dataset consumer
/// counts are registered up front so that cannot release a dataset early.
/// Task lambdas keep references to `ctx`, `graph`, and `stages` — all three
/// must outlive the graph run (the Executor waits before tearing them down).
Status LowerPlan(const PlannerContext& ctx, TaskGraph* graph,
                 std::deque<StageExec>* stages);

}  // namespace engine
}  // namespace antimr

#endif  // ANTIMR_ENGINE_PLANNER_H_
