// PageRank (paper Section 7.7.2): each iteration's Map divides a node's rank
// over its out-edges and emits one contribution per edge (plus the adjacency
// structure so it survives the iteration); Reduce sums contributions and
// applies the damping factor. Anti-Combining collapses the per-edge
// duplication of the contribution value.
#ifndef ANTIMR_WORKLOADS_PAGERANK_H_
#define ANTIMR_WORKLOADS_PAGERANK_H_

#include <vector>

#include "anticombine/options.h"
#include "engine/executor.h"
#include "engine/job_plan.h"
#include "mr/job_spec.h"

namespace antimr {
namespace workloads {

struct PageRankConfig {
  uint64_t num_nodes = 0;  ///< required: damping uses (1-d)/N
  double damping = 0.85;
  int num_reduce_tasks = 8;
  CodecType codec = CodecType::kNone;
  size_t map_buffer_bytes = 1 * 1024 * 1024;
};

/// One PageRank iteration as a MapReduce job. Input and output records use
/// the GraphGenerator format: key = node id, value = "<rank> <nbr>...".
JobSpec MakePageRankJob(const PageRankConfig& config);

/// Metrics and ranks of an `iterations`-long run.
struct PageRankRunResult {
  JobMetrics total;              ///< whole-plan roll-up over all iterations
  std::vector<KV> final_ranks;   ///< output of the last iteration
};

/// The N-iteration computation as ONE JobPlan: stage i maps dataset
/// "ranks_<i>" to "ranks_<i+1>", with "ranks_0" the external graph input and
/// "ranks_<iterations>" the plan's sink. Each stage's map tasks consume the
/// previous stage's reduce partitions directly, so iteration i+1 starts on
/// partition p the moment iteration i's reduce task p publishes — no
/// per-iteration driver barrier (cross-stage pipelining). When
/// `anti_combine` is non-null every stage runs through the Anti-Combining
/// transform with those options.
engine::JobPlan MakePageRankPlan(
    const PageRankConfig& config, std::vector<InputSplit> initial_splits,
    int iterations, const anticombine::AntiCombineOptions* anti_combine);

/// Run MakePageRankPlan over `graph` split into `num_map_tasks` on
/// `executor` (a default local Executor when null). The final ranks are
/// byte-identical to chaining one RunJob(MakePageRankJob) per iteration:
/// both feed each reduce the same per-key value order (contiguous chunks of
/// the same flattened sequence through stable sorts and merges), so the
/// float summation order — and thus the formatted ranks — match exactly.
/// `plan_result`, when non-null, receives the full per-stage breakdown.
Status RunPageRank(const PageRankConfig& config,
                   const std::vector<KV>& graph, int iterations,
                   const anticombine::AntiCombineOptions* anti_combine,
                   int num_map_tasks, PageRankRunResult* result,
                   engine::Executor* executor = nullptr,
                   engine::PlanResult* plan_result = nullptr);

}  // namespace workloads
}  // namespace antimr

#endif  // ANTIMR_WORKLOADS_PAGERANK_H_
