// The remote TaskRunner: the planner's tasks, shipped to a Coordinator's
// workers. LowerPlan builds the same graph as for a local run minus the
// fetch tasks (a remote reduce pulls its own segments from the owning
// workers' shuffle services); each map and reduce body becomes a
// TaskAssign carrying the stage's registered builder and params, which the
// worker rebuilds into the stage's JobSpec. Around each Coordinator::Call
// the runner adds job-aware placement (PickWorker balances this job's own
// in-flight tasks first), attempt-scoped map ids (`<stage>_a<N>`, so a
// stale file never masks a fresh one), heal-before-reduce (a reduce first
// re-runs every map of its stage whose worker died — safe because LazySH
// re-execution is deterministic), speculation (a straggler races a backup
// on another worker; first finisher wins), and an abort check at every task
// entry. Each stage's cleanup task scrubs the stage's files off every
// worker (kScrubJob). The runner counts its tasks in a JobProgress that its
// caller may own, which is how a JobService row reads a running job's
// progress; the runner reports nothing anywhere else.
#ifndef ANTIMR_ENGINE_REMOTE_RUNNER_H_
#define ANTIMR_ENGINE_REMOTE_RUNNER_H_

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "engine/coordinator.h"
#include "engine/planner.h"

namespace antimr {
namespace engine {

struct Speculation;  // defined in remote_runner.cc

/// A job's task counts over every stage, written by its RemoteRunner and
/// read from any thread while it runs.
struct JobProgress {
  std::atomic<uint64_t> maps_total{0};  ///< set before any task runs
  std::atomic<uint64_t> reduces_total{0};
  std::atomic<uint64_t> maps_done{0};
  std::atomic<uint64_t> reduces_done{0};
  std::atomic<uint64_t> map_runs{0};  ///< map executions, heals included

  /// Map executions beyond the first of each map (retries and heals).
  uint64_t map_reruns() const {
    const uint64_t runs = map_runs.load(std::memory_order_relaxed);
    const uint64_t total = maps_total.load(std::memory_order_relaxed);
    return runs > total ? runs - total : 0;
  }
};

/// \brief Runs a JobPlan's tasks on a Coordinator's workers; one plan, once.
class RemoteRunner : public TaskRunner {
 public:
  /// `coord`, `options` and `progress` are borrowed. `options` supplies
  /// the per-job knobs: job_id ("" draws one from job_name), retries,
  /// speculation, network throttle and collect_outputs. Its params are
  /// unused: the plan's stages carry those. `dispatch_slots` > 0 runs
  /// exactly that many blocking dispatches at a time (a JobService grant);
  /// 0 gives every task its own dispatch thread, capped at 64. `progress`
  /// (null = the runner's own) receives the task counts as tasks finish.
  RemoteRunner(Coordinator* coord, const DistJobKnobs& options,
               int dispatch_slots = 0, JobProgress* progress = nullptr);
  ~RemoteRunner() override;

  /// When set and raised, every task body fails permanently, so the graph
  /// stops retrying attempts a kCancelJob broadcast failed transiently.
  const std::atomic<bool>* abort = nullptr;
  /// Already-encoded splits (net::EncodeKVList) of an external dataset,
  /// shipped as they are instead of encoding the plan's splits. Any other
  /// map input is encoded once, on its task's first attempt.
  std::map<std::string, const std::vector<std::string>*> encoded_inputs;

  /// Validate and run `plan` until every task is terminal. The result's
  /// outputs are the last stage's partitions, its metrics the plan
  /// roll-up plus driver wall time, and its per-reduce load vectors the
  /// first stage's. InvalidArgument, before any TaskAssign is sent, when a
  /// stage names no registered builder.
  Status Run(const JobPlan& plan, DistJobResult* result);

 private:
  Status Map(StageExec* st, size_t m, int attempt) override;
  Status Reduce(StageExec* st, size_t p, int attempt) override;
  void Cleanup(StageExec* st) override;

  /// Placement of one map task's latest successful execution.
  struct Placement {
    std::mutex mu;  ///< serializes heal re-runs of this map
    uint32_t worker = 0;
    std::atomic<uint32_t> attempts{0};  ///< executions started (id scope)
    /// The map's encoded input, reused by every retry, heal and backup.
    const std::string* split = nullptr;
    std::string owned_split;  ///< the bytes, when the runner encoded them
  };

  bool aborted() const {
    return abort != nullptr && abort->load(std::memory_order_acquire);
  }
  /// Run (or re-run) map `m` and record its placement. Caller holds the
  /// placement's mutex.
  Status RunMapOnce(StageExec* st, size_t m);
  Status PlaceAndCall(uint32_t exclude, net::TaskAssignMsg assign,
                      std::atomic<uint64_t>* rpc_id,
                      std::atomic<uint32_t>* worker, net::TaskResultMsg* res);

  Coordinator* coord_;
  const DistJobKnobs& options_;
  std::string job_id_;
  int dispatch_slots_;
  const JobPlan* plan_ = nullptr;
  bool trace_enabled_ = false;
  std::deque<std::deque<Placement>> placements_;  ///< [stage][map]
  std::mutex job_load_mu_;
  std::map<uint32_t, int> job_load_;  ///< this job's in-flight per worker
  std::unique_ptr<Speculation> spec_;
  JobProgress own_progress_;
  JobProgress* progress_;
};

}  // namespace engine
}  // namespace antimr

#endif  // ANTIMR_ENGINE_REMOTE_RUNNER_H_
