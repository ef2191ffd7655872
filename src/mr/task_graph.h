// The simulated shared-nothing cluster: a pool of worker threads standing in
// for the paper's 44 worker cores, plus the simulated bandwidth of their
// local disks and network. Thread CPU time is sampled per task so the harness
// can report "total CPU time" summed over all tasks, like the paper does.
//
// TaskPool keeps its worker threads alive for the pool's whole lifetime;
// RunWave and TaskGraph both feed the same threads, so running several waves
// (or a full dependency graph) never re-spawns threads. TaskGraph adds
// dependency-aware scheduling on top: a task becomes runnable the moment its
// dependencies complete, which is what lets shuffle fetches start while the
// map wave is still in flight.
#ifndef ANTIMR_MR_TASK_GRAPH_H_
#define ANTIMR_MR_TASK_GRAPH_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "obs/metrics_registry.h"

namespace antimr {

/// \brief Simulated cluster hardware (paper Section 7's testbed analog).
///
/// Zero disables a component. When set, every byte through a node's local
/// disk and every shuffled byte pays simulated transfer time, so wall-clock
/// "runtime" reflects data volume the way it did on the paper's 7.2K SATA
/// disks and shared gigabit switch. CPU-time metrics are unaffected (the
/// throttle sleeps; it does not burn cycles).
struct SimulatedHardware {
  double disk_mb_per_s = 0;     ///< local-disk bandwidth per task
  double network_mb_per_s = 0;  ///< mapper->reducer transfer bandwidth
};

/// \brief Persistent fixed-size worker pool.
///
/// Threads are spawned once in the constructor and joined in the destructor;
/// work arrives through Submit (fire-and-forget) or RunWave (batch with
/// first-failure semantics). Waves reuse the same threads — there is no
/// per-wave spawn/join cost.
class TaskPool {
 public:
  /// \param num_workers worker threads; 0 means hardware concurrency.
  /// \param name labels the workers' trace lanes ("<name>-<i>") and is why
  ///        separate pools (workers vs fetch threads) stay tellable apart
  ///        in a trace. Pools also feed the shared queue-depth / worker
  ///        gauges in the global MetricsRegistry, sampled on task
  ///        boundaries (Add/Sub-based, so several pools aggregate).
  explicit TaskPool(int num_workers, std::string name = "worker");
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// Enqueue one task for execution on a pool thread.
  void Submit(std::function<void()> fn);

  /// Run all tasks to completion. Each task returns a Status; the first
  /// failure (by task index) is returned. Tasks are claimed in index order.
  /// Must be called from outside the pool (a pool thread calling RunWave
  /// would block a worker slot).
  Status RunWave(const std::vector<std::function<Status()>>& tasks);

  int num_workers() const { return num_workers_; }

 private:
  void WorkerLoop(int worker_index);

  int num_workers_;
  std::string name_;
  obs::Gauge* queue_depth_gauge_;
  obs::Gauge* active_workers_gauge_;
  obs::Gauge* workers_total_gauge_;
  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
};

/// \brief Transient-failure retry policy for graph tasks.
///
/// A task whose Status::IsTransient() failure leaves attempts unspent is
/// re-executed after a capped exponential backoff with deterministic jitter
/// (common/random seeded from {seed, task id, attempt}), so a given run
/// retries on an exactly reproducible schedule. Permanent failures
/// (Corruption, InvalidArgument, ...) are never retried. Retried tasks MUST
/// be idempotent: re-execution has to converge to the same output as a
/// clean first run (attempt-scoped file names, re-publish-safe sinks).
struct RetryPolicy {
  /// Total executions allowed per task; 1 = fail on the first error.
  int max_attempts = 1;
  /// Backoff before the first retry; doubles per attempt.
  uint64_t backoff_nanos = 1000 * 1000;  ///< 1 ms
  /// Upper bound on the doubled backoff.
  uint64_t max_backoff_nanos = 256 * 1000 * 1000;  ///< 256 ms
  /// Jitter seed; the same seed replays the same backoff schedule.
  uint64_t seed = 0;
};

/// \brief Dependency-aware task scheduler over one or more TaskPools.
///
/// Tasks form a DAG: AddTask registers a task with edges to already-added
/// tasks, and a task is submitted to its pool the instant its last
/// dependency succeeds — there is no wave barrier. A transiently-failing
/// task is retried per the graph's (or its own) RetryPolicy; a terminally
/// failed task marks all transitive dependents as skipped (they never run)
/// except always-run tasks, which execute regardless so cleanup work still
/// happens on failure paths. Wait blocks until every task has finished or
/// been skipped and returns the first terminal failure by task id, so add
/// order decides which failure a job reports.
class TaskGraph {
 public:
  /// Per-task knobs for the attempt-aware AddTask overload.
  struct TaskOptions {
    TaskPool* pool = nullptr;          ///< null = the graph's default pool
    const RetryPolicy* retry = nullptr;  ///< null = the graph's default
    /// Run even when a dependency failed or was skipped (cleanup tasks).
    /// The task still waits for every dependency to finish or be skipped.
    bool always_run = false;
  };

  /// Attempt-aware task body: receives the 0-based attempt number, so a
  /// retried task can discard prior-attempt partials and scope its output
  /// names per attempt.
  using TaskFn = std::function<Status(int attempt)>;

  /// \param pool default pool for tasks added without a pool override.
  /// \param retry default retry policy (the default default: no retries).
  explicit TaskGraph(TaskPool* pool, RetryPolicy retry = RetryPolicy());

  /// Register `fn` depending on the tasks in `deps` (ids returned by earlier
  /// AddTask calls). Returns the new task's id. If every dependency already
  /// succeeded (or `deps` is empty) the task is submitted immediately, so
  /// the graph can be grown while it runs. `pool_override` routes this task
  /// to a different pool (e.g. dedicated fetch threads).
  int AddTask(std::function<Status()> fn, const std::vector<int>& deps = {},
              TaskPool* pool_override = nullptr);

  /// Attempt-aware overload with per-task options.
  int AddTask(TaskFn fn, const std::vector<int>& deps,
              const TaskOptions& options);

  /// Block until all tasks have completed or been skipped. Returns the
  /// lowest-id failure, or OK.
  Status Wait();

 private:
  struct Node {
    TaskFn fn;
    TaskPool* pool = nullptr;
    RetryPolicy retry;
    int attempt = 0;           ///< executions started so far - 1
    int pending = 0;           ///< unfinished dependencies
    bool dep_failed = false;   ///< a dependency failed or was skipped
    bool always_run = false;   ///< run even when dep_failed
    bool done = false;
    bool ok = false;
    std::vector<int> dependents;
  };

  /// Submit node `id` to its pool. Caller holds mu_.
  void ScheduleLocked(int id);
  /// Record completion of attempt `attempt` of `id`: retry a transient
  /// failure with remaining attempts, otherwise finish and release/skip
  /// dependents.
  void OnDone(int id, Status st);
  /// Mark `id` done (run or skipped) and cascade to dependents. Caller
  /// holds mu_; skipped dependents are finished iteratively, runnable ones
  /// are submitted.
  void FinishLocked(int id, bool ran_ok);

  TaskPool* default_pool_;
  RetryPolicy default_retry_;
  std::mutex mu_;
  std::condition_variable cv_;
  /// deque: element references stay valid as the graph grows.
  std::deque<Node> nodes_;
  size_t done_ = 0;
  Status first_failure_;
  size_t first_failure_id_ = 0;
  bool have_failure_ = false;
};

}  // namespace antimr

#endif  // ANTIMR_MR_TASK_GRAPH_H_
