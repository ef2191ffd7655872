// The multi-tenant job layer of the distributed engine: a persistent
// JobService that owns job admission, queueing, and fair-share dispatch on
// top of a borrowed Coordinator. It keeps a job table
// (queued|admitted|running|succeeded|failed|aborted), admits jobs against
// per-pool quotas (concurrent jobs, cpu dispatch slots, map-buffer/Shared
// memory estimates), orders dispatch across named pools by stride (weighted
// fair-share) scheduling, and exposes the job lifecycle both in-process
// (Submit/Wait/Abort/ListJobs) and over the wire (kSubmitJob and friends on
// its own listener, a net::ConnServer that reaps each client conn once the
// client hangs up, so a daemon answering submit/jobs/abort calls holds no
// thread or socket per past call). Each admitted job runs as a one-stage
// JobPlan on a RemoteRunner (engine/remote_runner.h) whose dispatch width is
// the job's granted cpu slots.
//
// The job table is the one place a job's state and progress are reported
// (GetJob, ListJobs, the kJobStatusReq plane and /jobs): a row reads its
// runner's task counters when it is rendered. A JobSubmission is the
// job's DistJobOptions plus its admission fields, so a job's knobs are
// declared once and reach the runner as submitted.
//
// Isolation model: every job runs under a unique job_id, and all of a job's
// worker-side footprint (shuffle segments, spills) is namespaced by that id
// (mr/shuffle.cc SegmentFileName), so concurrent jobs on shared workers
// cannot collide. Once every task is terminal — success, failure or abort —
// the plan's cleanup task broadcasts kScrubJob so workers garbage-collect
// the job's files, the cleanup a long-lived daemon needs.
//
// Fairness model: each pool carries a weight and a stride accumulator
// (`pass`). Dispatching a job advances its pool's pass by cost/weight
// (cost = granted cpu slots); the scheduler always picks the eligible pool
// with the smallest pass, so over time pools receive dispatch cost in
// proportion to their weights — deterministically, which the tests pin.
// Within a pool, dispatch is strict FIFO: a head the quotas cannot admit
// blocks the pool until capacity frees up (no starvation of big jobs by
// small ones sneaking past).
#ifndef ANTIMR_ENGINE_JOB_SERVICE_H_
#define ANTIMR_ENGINE_JOB_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/coordinator.h"
#include "net/conn_server.h"
#include "net/transport.h"
#include "net/wire.h"
#include "obs/metrics_registry.h"

namespace antimr {
namespace engine {

/// Order-insensitive multiset hash of a job output: summed per-record FNV
/// hashes (value hashed with the key's hash as seed). Two runs with equal
/// key/value multisets hash equal regardless of partition placement or
/// emission order — the byte-identity check used by the CLI, the cluster
/// script, and the service's JobStatus rows.
uint64_t OutputMultisetHash(const std::vector<KV>& records);

struct PoolConfig {
  std::string name = "default";
  /// Fair-share weight: a pool with twice the weight receives twice the
  /// dispatch cost over time under contention.
  double weight = 1.0;
  /// Concurrent running jobs (0 = unlimited).
  int max_running_jobs = 0;
  /// Sum of granted cpu dispatch slots across running jobs (0 = unlimited).
  int cpu_slots_quota = 0;
  /// Sum of declared map-buffer/Shared memory estimates (0 = unlimited).
  /// Admission accounting, not an allocator-enforced limit.
  uint64_t memory_quota_bytes = 0;
};

struct JobServiceOptions {
  /// Named pools; empty = one unlimited "default" pool. A submission naming
  /// an unknown pool is rejected (NotFound).
  std::vector<PoolConfig> pools;
  /// Running jobs across all pools (0 = unlimited).
  int max_concurrent_jobs = 8;
  /// Queued (not yet dispatched) jobs across all pools; a submission past
  /// this cap is rejected with ResourceExhausted — the backpressure signal.
  int max_queued_jobs = 64;
  /// Hold dispatch until this many workers are live (0 = dispatch blind and
  /// let the driver's transient-retry path handle an empty cluster).
  int min_workers = 1;
  /// Granted to submissions that don't ask for cpu slots. 0 = "auto": the
  /// legacy dispatch sizing (one slot per task, capped at 64) with zero
  /// quota cost — what the RunDistributedJob shim uses.
  int default_cpu_slots = 2;
  /// Charged to submissions that don't declare a memory estimate.
  uint64_t default_memory_bytes = 64ull << 20;
  /// Speculative execution for wire submissions, whose SubmitJobMsg carries
  /// no speculation field (`serve --speculation`). An in-process
  /// JobSubmission sets its own.
  bool speculative_execution = false;
};

/// One job submission: the job's DistJobOptions plus its admission fields.
/// Splits may arrive raw (`splits`, encoded once by Submit) or pre-encoded
/// (`encoded_splits`, the wire path) — exactly one should be non-empty. A
/// job_id of "" has the service assign a unique one.
struct JobSubmission : DistJobOptions {
  std::string pool;  ///< "" = the service's first pool
  int cpu_slots = 0;  ///< 0 = the service's default_cpu_slots
  uint64_t memory_bytes = 0;  ///< 0 = the service's default_memory_bytes
  std::vector<std::string> encoded_splits;  ///< EncodeKVList per map task
};

/// \brief Persistent job daemon: admission, fair-share queue, lifecycle.
///
/// Thread-safe. Jobs are never forgotten: terminal rows stay in the table
/// (status, hash, latency) so ListJobs is a trajectory, not a snapshot.
class JobService {
 public:
  /// `coord` is borrowed and must outlive the service; it must already be
  /// Start()ed. Registers a /jobs handler on the coordinator's status
  /// surface (effective if StartStatusServer runs after this constructor).
  JobService(Coordinator* coord,
             const JobServiceOptions& options = JobServiceOptions());
  ~JobService();

  JobService(const JobService&) = delete;
  JobService& operator=(const JobService&) = delete;

  /// Admission control. Rejects with ResourceExhausted when the queue is
  /// full or the job's declared resources exceed its pool's quota outright
  /// (it could never be admitted), NotFound for an unknown pool,
  /// InvalidArgument for malformed submissions. On OK the job is queued and
  /// *job_id names it.
  Status Submit(JobSubmission submission, std::string* job_id);

  /// Block until the job is terminal. Returns its final status; when
  /// `result` is non-null the collected outputs are *moved* into it (a
  /// second Wait sees empty outputs but the same status).
  Status Wait(const std::string& job_id, DistJobResult* result = nullptr);

  /// Abort a queued job (dequeued immediately) or a running one (abort flag
  /// plus a cluster-wide kCancelJob; the driver unwinds without retrying and
  /// attempt-scoped partial outputs are scrubbed by the PR-4 machinery).
  /// NotFound for unknown ids; InvalidArgument for already-terminal jobs.
  Status Abort(const std::string& job_id);

  Status GetJob(const std::string& job_id, net::JobStatusWire* row) const;
  std::vector<net::JobStatusWire> ListJobs() const;

  /// Start the lifecycle RPC listener (kSubmitJob/kJobStatusReq/kAbortJob/
  /// kListJobsReq) on `addr` ("" = auto) over the coordinator's transport.
  Status Serve(const std::string& addr);
  const std::string& serve_addr() const { return rpc_.addr(); }

  /// Register the /jobs endpoint on the coordinator's status surface. Call
  /// before Coordinator::StartStatusServer, and keep this service alive
  /// until the coordinator is stopped (the handler points back here). Not
  /// automatic: the ephemeral services behind the RunDistributedJob shim
  /// must not pile handlers onto a long-lived coordinator.
  void AttachStatusEndpoint();

  /// The /jobs JSON document (array of job rows, submit order).
  std::string JobsJson() const;

  /// Per-pool usage for fairness measurement: busy_slot_nanos integrates
  /// granted slots over job runtimes, so shares can be compared to weights.
  struct PoolUsage {
    std::string pool;
    double weight = 1.0;
    uint64_t busy_slot_nanos = 0;
    uint64_t jobs_completed = 0;
  };
  std::vector<PoolUsage> PoolUsageSnapshot() const;

  /// Abort queued jobs, cancel running ones, join every runner thread and
  /// the RPC listener. Idempotent; also run by the destructor.
  void Stop();

 private:
  struct Job;
  struct Pool;

  void SchedulerLoop();
  void RunJob(Pool* pool, Job* job);
  void ServeConn(net::Conn* conn);
  /// Row snapshot; caller holds mu_.
  net::JobStatusWire RowOfLocked(const Job& job) const;

  Coordinator* coord_;
  JobServiceOptions options_;
  std::string first_pool_;  ///< target of submissions that name no pool

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  uint64_t next_dispatch_seq_ = 1;
  int queued_jobs_ = 0;
  int running_jobs_ = 0;
  /// Ordered by name: deterministic stride tie-break.
  std::map<std::string, std::unique_ptr<Pool>> pools_;
  std::map<std::string, std::unique_ptr<Job>> jobs_;
  std::vector<std::string> submit_order_;

  std::thread scheduler_;
  /// The RPC plane; last, so its handler threads, which call ServeConn, are
  /// joined before the state above goes.
  net::ConnServer rpc_;
};

/// \brief One-request-per-connection client for the service's RPC plane
/// (the CLI's submit/jobs/abort and the tests' wire-path coverage).
class JobServiceClient {
 public:
  /// `transport` is borrowed; `addr` is the service's serve_addr.
  JobServiceClient(net::Transport* transport, std::string addr);

  Status Submit(const net::SubmitJobMsg& msg, std::string* job_id);
  Status GetStatus(const std::string& job_id, net::JobStatusWire* row);
  Status Abort(const std::string& job_id);
  Status List(std::vector<net::JobStatusWire>* jobs);

 private:
  Status RoundTrip(uint8_t req_type, const std::string& req_payload,
                   uint8_t want_resp_type, std::string* resp_payload);

  net::Transport* transport_;
  std::string addr_;
};

}  // namespace engine
}  // namespace antimr

#endif  // ANTIMR_ENGINE_JOB_SERVICE_H_
