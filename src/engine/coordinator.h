// The control plane of the distributed engine. A Coordinator accepts worker
// registrations over a transport, tracks liveness via heartbeats, and
// exposes a blocking task-RPC (Call). Distributed jobs do not get a driver
// of their own: the planner lowers them like any JobPlan, and the
// RemoteRunner (engine/remote_runner.h) turns each map and reduce body into
// a Call — so the TaskGraph, RetryPolicy, dependency ordering and metric
// roll-up are the ones local plans use.
//
// Worker-loss model: a worker is dead when its connection errors or its
// heartbeats stop for heartbeat_timeout_nanos. Death fails every in-flight
// Call on that worker with a *transient* IOError, which flows back through
// the TaskGraph retry path exactly like any flaky task; the remote runner
// additionally "heals" map placements whose owning worker died (the map's
// segments died with the worker's storage) by re-running those maps on live
// workers before retrying the reduce — re-execution recovery, the MapReduce
// fault-tolerance contract.
#ifndef ANTIMR_ENGINE_COORDINATOR_H_
#define ANTIMR_ENGINE_COORDINATOR_H_

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "mr/api.h"
#include "mr/task_graph.h"
#include "mr/metrics.h"
#include "net/http.h"
#include "net/transport.h"
#include "net/wire.h"
#include "obs/federation.h"
#include "obs/metrics_registry.h"
#include "obs/trace_merge.h"

namespace antimr {
namespace engine {

struct CoordinatorOptions {
  /// A worker with no heartbeat or result for this long is declared lost.
  uint64_t heartbeat_timeout_nanos = 2ull * 1000 * 1000 * 1000;
  /// How often the monitor thread scans for lost workers.
  uint64_t monitor_period_nanos = 50ull * 1000 * 1000;
};

/// \brief Accepts workers, tracks liveness, routes task RPCs.
///
/// Thread-safe. Workers are never forgotten: a dead worker's id keeps
/// resolving (WorkerAlive false) so the driver can detect stale placements.
class Coordinator {
 public:
  /// `transport` is borrowed and must outlive the coordinator.
  explicit Coordinator(net::Transport* transport,
                       const CoordinatorOptions& options = CoordinatorOptions());
  ~Coordinator();

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Listen for workers on `addr` ("" = auto / ephemeral).
  Status Start(const std::string& addr);

  /// The address workers dial.
  const std::string& addr() const { return addr_; }

  /// The transport this coordinator rides on (borrowed; embedders like the
  /// JobService open their own listeners on it).
  net::Transport* transport() const { return transport_; }

  /// Block until `n` workers are registered and alive, or `timeout_nanos`
  /// elapses. Returns whether the quorum held at the deadline: a worker
  /// that registers then immediately dies within the wait window is
  /// re-checked after a short settle window and not counted once it regresses.
  bool WaitForWorkers(int n, uint64_t timeout_nanos);

  int live_workers() const;

  /// Least-loaded live worker, or ResourceExhausted (transient — a retry
  /// may find a recovered cluster) when none is alive. `exclude_worker`
  /// (0 = none) skips one worker, so a speculative backup lands on
  /// different hardware than the primary it races. When `job_inflight`
  /// (worker id -> this job's in-flight task count) is supplied, placement
  /// balances the *job's own* load per slot first and breaks ties on global
  /// load — one tenant's flood cannot skew another tenant's spread.
  Status PickWorker(uint32_t* worker_id, uint32_t exclude_worker = 0,
                    const std::map<uint32_t, int>* job_inflight = nullptr);

  bool WorkerAlive(uint32_t worker_id) const;

  /// Shuffle-service address of a worker (live or dead; segments on a dead
  /// worker are gone, which is exactly why callers check WorkerAlive).
  std::string WorkerShuffleAddr(uint32_t worker_id) const;

  /// Execute one task on `worker_id`: send the assignment, block until the
  /// matching TaskResult arrives or the worker dies. Worker death surfaces
  /// as transient IOError("worker N lost"); a task failure on the worker
  /// surfaces as the task's own Status. `assign.rpc_id` is set here; when
  /// `rpc_id_out` is non-null it is published there *before* the frame is
  /// sent, so a concurrent monitor can cancel the call mid-flight.
  Status Call(uint32_t worker_id, net::TaskAssignMsg assign,
              net::TaskResultMsg* result,
              std::atomic<uint64_t>* rpc_id_out = nullptr);

  /// Best-effort kCancelTask to the worker running `rpc_id` (the loser of a
  /// speculative race). The task fails with a transient IOError on the
  /// worker and scrubs its attempt-scoped partial output; errors here are
  /// swallowed (a dead worker cancelled itself).
  void CancelTask(uint32_t worker_id, uint64_t rpc_id);

  /// Best-effort job-scoped frame (kCancelJob or kScrubJob, payload
  /// JobIdMsg) to every live worker. AbortJob cancels a job's running
  /// attempts everywhere at once; job teardown scrubs its segments.
  void BroadcastJobFrame(uint8_t type, const std::string& job_id);

  /// Latest heartbeat-reported progress (0..1000) for an in-flight rpc;
  /// 0 when the worker has not reported yet.
  uint32_t RpcProgressPermille(uint64_t rpc_id) const;

  /// Best-effort Shutdown to every live worker, close everything, join all
  /// threads. When a trace is being captured, waits briefly for workers'
  /// final kTraceChunk frames before dropping connections. Idempotent; also
  /// run by the destructor.
  void Stop();

  // --- observability surface ---------------------------------------------

  /// Serve GET /metrics (Prometheus text) and GET /status (JSON) on `addr`
  /// ("" = auto) over the coordinator's transport. Call after Start.
  Status StartStatusServer(const std::string& addr);

  /// Register an extra status-surface path (e.g. the JobService's /jobs).
  /// Call before StartStatusServer; handlers run on HTTP conn threads and
  /// must be thread-safe.
  void AddStatusHandler(const std::string& path,
                        net::HttpServer::Handler handler);

  /// Resolved status-server address ("" if not started).
  std::string status_addr() const {
    return http_ == nullptr ? std::string() : http_->addr();
  }

  /// Cluster-wide Prometheus text: federated worker registries (latest
  /// heartbeat snapshots, dead workers retained) + this process's own.
  std::string ClusterMetricsText() const;

  /// The /status JSON document: the cluster view (workers, liveness, slots,
  /// in-flight counts). Job progress is the JobService's /jobs table.
  std::string StatusJson() const;

  /// Federated metrics state — exposed for tests and embedders.
  obs::ClusterMetrics& cluster_metrics() { return cluster_metrics_; }

  /// Merge this process's remaining trace buffers with every chunk workers
  /// shipped and render one Chrome-trace JSON document (coordinator = pid 1,
  /// worker N = pid 1+N). Callable after Stop — typically is, so workers'
  /// shutdown chunks are in.
  std::string ClusterTraceJson();
  Status WriteClusterTrace(const std::string& path);

 private:
  struct WorkerState {
    uint32_t id = 0;
    std::string name;
    std::string shuffle_addr;
    uint32_t slots = 1;
    std::unique_ptr<net::Conn> conn;
    std::thread receiver;
    std::mutex write_mu;  ///< serializes frame writes on `conn`
    bool alive = false;
    uint64_t last_activity_nanos = 0;
    int inflight = 0;  ///< Calls outstanding (load-balance key)
  };

  struct PendingCall {
    uint32_t worker_id = 0;
    net::TaskResultMsg* result = nullptr;
    Status status;
    bool done = false;
  };

  void AcceptLoop();
  void ReceiveLoop(WorkerState* worker);
  /// Fold a worker's shipped trace chunk into the cluster trace.
  void MergeTraceChunk(uint32_t worker_id, const std::string& chunk);
  void MonitorLoop();
  /// Declare `worker` lost: fail its pending calls, close its conn.
  /// Caller must NOT hold mu_.
  void MarkDead(WorkerState* worker, const std::string& why);

  net::Transport* transport_;
  CoordinatorOptions options_;
  std::string addr_;
  std::unique_ptr<net::Listener> listener_;
  std::thread accept_thread_;
  std::thread monitor_thread_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  uint32_t next_worker_id_ = 1;
  std::map<uint32_t, std::unique_ptr<WorkerState>> workers_;
  std::atomic<uint64_t> next_rpc_id_{1};
  std::map<uint64_t, PendingCall*> pending_;
  /// Heartbeat-reported progress per in-flight rpc (erased on completion).
  std::map<uint64_t, uint32_t> rpc_progress_;

  obs::Gauge* workers_live_gauge_;
  obs::Counter* tasks_assigned_counter_;
  obs::Counter* workers_lost_counter_;
  obs::Histogram* rpc_latency_hist_;

  obs::ClusterMetrics cluster_metrics_;
  obs::ClusterTraceMerger trace_merger_;
  std::vector<std::pair<std::string, net::HttpServer::Handler>>
      extra_status_handlers_;
  std::unique_ptr<net::HttpServer> http_;
};

// --- distributed jobs ----------------------------------------------------

/// A distributed job apart from its input: the registered job, its params
/// and how its tasks run. DistJobOptions adds the input records, and a
/// JobService's JobSubmission (engine/job_service.h) adds admission fields
/// on top of that, so each knob is declared here once.
struct DistJobKnobs {
  std::string job_name;     ///< registered builder name (engine/job_registry.h)
  net::JobParams params;    ///< builder params, shipped verbatim to workers
  bool collect_outputs = true;
  /// Retry budget per task (map heal re-runs count against the reduce's
  /// attempts only through its backoff, not this cap).
  int max_task_attempts = 3;
  uint64_t retry_backoff_nanos = 1000 * 1000;
  /// Simulated shuffle bandwidth the reduce workers apply per fetched chunk.
  double network_mb_per_s = 0;
  /// Scope for segment file names; "" derives one from job_name. Attempts
  /// get unique sub-scopes so re-executions never collide with stale files.
  std::string job_id;

  // --- speculative execution ---------------------------------------------
  /// Launch a backup attempt for a task whose primary attempt looks like a
  /// straggler; first finisher wins, the loser is cancelled and its
  /// attempt-scoped partial output scrubbed (same machinery as a retried
  /// attempt). Output is unchanged: the winner's result is used verbatim.
  bool speculative_execution = false;
  /// A primary is a straggler once its elapsed time exceeds
  /// slowness_factor x the median completed duration of its task kind.
  /// (Never before 200 ms of elapsed time: the cold-start guard.)
  double speculation_slowness_factor = 2.0;
  /// Test override: when > 0, a backup launches after exactly this elapsed
  /// time regardless of the adaptive baseline (deterministic races).
  uint64_t speculation_force_after_nanos = 0;
};

struct DistJobOptions : DistJobKnobs {
  /// Input records per map task; maps are placed one per TaskAssign.
  std::vector<std::vector<KV>> splits;
};

struct DistJobResult {
  /// Reduce output per partition (when collect_outputs).
  std::vector<std::vector<KV>> outputs;
  /// Summed task metrics (latest attempt of each map, so healed maps are
  /// not double-counted) plus driver wall time.
  JobMetrics metrics;
  /// Per-task breakdown of every stage (the winning attempt of each task).
  std::vector<TaskMetrics> tasks;
  /// Map task executions beyond the first num_maps (retries + heals).
  uint64_t map_reruns = 0;
  /// Per reduce partition of the plan's first stage: transport bytes
  /// fetched (shuffle load) and input records — the load-spread signal the
  /// skew defenses balance.
  std::vector<uint64_t> reduce_shuffle_bytes;
  std::vector<uint64_t> reduce_input_records;
  /// Speculation outcome counts for this job.
  uint64_t spec_backups = 0;       ///< backup attempts launched
  uint64_t spec_backup_wins = 0;   ///< races the backup won
  uint64_t spec_cancels = 0;       ///< losers sent kCancelTask

  /// Flatten outputs across partitions (partition order, then emission
  /// order) — comparable to PlanResult::FlatOutput / JobResult::FlatOutput.
  std::vector<KV> FlatOutput() const;
};

/// Run one registered job across `coord`'s workers. Blocks until done.
///
/// A thin submit-and-wait shim over an ephemeral single-pool JobService
/// (engine/job_service.h): the job passes through the same admission/queue/
/// dispatch path a daemon-submitted job does, with an unlimited quota and
/// one dispatch thread per task. Defined in job_service.cc.
Status RunDistributedJob(Coordinator* coord, const DistJobOptions& options,
                         DistJobResult* result);

}  // namespace engine
}  // namespace antimr

#endif  // ANTIMR_ENGINE_COORDINATOR_H_
