// JobService implementation plus the distributed job driver it dispatches.
// The driver (ExecuteDistJob) is the former RunDistributedJob body, moved
// here and parameterized for multi-tenancy: per-job placement accounting
// (PickWorker's job_inflight map), a per-job speculation baseline (a slow
// tenant must not poison another tenant's straggler threshold), and an
// abort flag checked at every task-body entry so AbortJob unwinds the
// TaskGraph with a permanent status instead of burning the retry budget.
// RunDistributedJob itself survives as a submit-and-wait shim over an
// ephemeral single-pool service, so every job — legacy or daemon-submitted
// — takes the same admission/queue/dispatch path.
#include "engine/job_service.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <utility>

#include "common/hash.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "engine/job_registry.h"
#include "mr/local_cluster.h"
#include "net/frame.h"
#include "obs/trace.h"

namespace antimr {
namespace engine {

uint64_t OutputMultisetHash(const std::vector<KV>& records) {
  uint64_t h = 0;
  for (const KV& kv : records) {
    h += Hash64(kv.value.data(), kv.value.size(),
                Hash64(kv.key.data(), kv.key.size()));
  }
  return h;
}

std::vector<KV> DistJobResult::FlatOutput() const {
  std::vector<KV> flat;
  for (const auto& part : outputs) {
    flat.insert(flat.end(), part.begin(), part.end());
  }
  return flat;
}

// --- distributed job driver ----------------------------------------------

namespace {

bool IsTerminalState(const std::string& state) {
  return state == "succeeded" || state == "failed" || state == "aborted";
}

/// Placement of one map task's current (latest successful) execution.
struct MapPlacement {
  std::mutex mu;  ///< serializes heal re-runs of this map
  uint32_t worker = 0;
  /// Per reduce partition, the map's segment files in run order.
  std::vector<std::vector<std::string>> segment_files;
  JobMetrics metrics;                      ///< latest attempt only
  uint64_t cpu_nanos = 0;
  std::atomic<uint32_t> attempts{0};  ///< executions started (job_id scope)
};

std::string UniqueJobId(const std::string& name) {
  static std::atomic<uint64_t> counter{0};
  return "dist_" + name + "_" +
         std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
}

// --- speculative execution ------------------------------------------------

/// Launch one attempt of a task: pick a worker (excluding `exclude_worker`;
/// 0 = none), publish the chosen worker and the rpc_id through the atomics
/// *before* blocking, then block in Coordinator::Call. Returning means the
/// attempt finished (either way); the atomics let the race monitor cancel a
/// still-running attempt from outside.
using AttemptFn =
    std::function<Status(uint32_t exclude_worker, std::atomic<uint64_t>* rpc_id,
                         std::atomic<uint32_t>* worker,
                         net::TaskResultMsg* res)>;

struct SpecConfig {
  bool enabled = false;
  double slowness_factor = 2.0;
  uint64_t min_elapsed_nanos = 0;
  uint64_t force_after_nanos = 0;
  net::TaskKind kind = net::TaskKind::kMap;
};

struct SpecStats {
  std::atomic<uint64_t> backups{0};
  std::atomic<uint64_t> backup_wins{0};
  std::atomic<uint64_t> cancels{0};
};

/// Per-job straggler baseline: recent completed-task durations by kind.
/// Job-scoped on purpose — under multi-tenancy a pool of long tasks must
/// not set the slowness threshold for a pool of short ones (and vice
/// versa), which the old coordinator-global baseline would.
struct SpecBaseline {
  std::mutex mu;
  std::vector<uint64_t> recent[2];  ///< [map, reduce]

  void Record(net::TaskKind kind, uint64_t nanos) {
    std::lock_guard<std::mutex> lock(mu);
    auto& r = recent[kind == net::TaskKind::kMap ? 0 : 1];
    if (r.size() >= 64) r.erase(r.begin());
    r.push_back(nanos);
  }

  /// Median recent duration; 0 until a completion of that kind landed.
  uint64_t Typical(net::TaskKind kind) {
    std::lock_guard<std::mutex> lock(mu);
    std::vector<uint64_t> r = recent[kind == net::TaskKind::kMap ? 0 : 1];
    if (r.empty()) return 0;
    const size_t mid = r.size() / 2;
    std::nth_element(r.begin(), r.begin() + static_cast<long>(mid), r.end());
    return r[mid];
  }
};

/// First-finisher-wins execution of `attempt`, optionally racing a backup
/// against a straggling primary. The winner's result lands in *result /
/// *winner_worker; the loser is cancelled (kCancelTask) and awaited, so no
/// attempt outlives this call. With cfg.enabled false this is a plain
/// single-attempt run.
Status RunWithSpeculation(Coordinator* coord, const SpecConfig& cfg,
                          SpecBaseline* baseline, const AttemptFn& attempt,
                          net::TaskResultMsg* result, uint32_t* winner_worker,
                          SpecStats* stats) {
  struct Side {
    std::atomic<uint64_t> rpc_id{0};
    std::atomic<uint32_t> worker{0};
    net::TaskResultMsg res;
    Status status;
    bool done = false;  // guarded by mu below
  };
  if (!cfg.enabled) {
    Side solo;
    const Status st = attempt(0, &solo.rpc_id, &solo.worker, &solo.res);
    *result = std::move(solo.res);
    *winner_worker = solo.worker.load(std::memory_order_relaxed);
    return st;
  }

  static obs::Counter* const backups_counter =
      obs::MetricsRegistry::Global().GetCounter(
          "antimr_spec_backups_total",
          "speculative backup attempts launched for stragglers");
  static obs::Counter* const wins_counter =
      obs::MetricsRegistry::Global().GetCounter(
          "antimr_spec_wins_total",
          "speculative races won by the backup attempt");
  static obs::Counter* const cancelled_counter =
      obs::MetricsRegistry::Global().GetCounter(
          "antimr_spec_cancelled_total",
          "attempts cancelled after losing a speculative race");

  Side primary, backup;
  std::mutex mu;
  std::condition_variable cv;
  auto run_side = [&](Side* side, uint32_t exclude) {
    const Status st = attempt(exclude, &side->rpc_id, &side->worker, &side->res);
    std::lock_guard<std::mutex> lock(mu);
    side->status = st;
    side->done = true;
    cv.notify_all();
  };
  std::thread primary_thread(run_side, &primary, 0u);
  std::thread backup_thread;
  bool backup_started = false;
  const uint64_t start = NowNanos();

  // Adaptive threshold: explicit override wins; otherwise slowness_factor x
  // the job's median completed duration of this task kind, floored. No
  // baseline yet (cold start) = no speculation.
  auto slowness_threshold = [&]() -> uint64_t {
    if (cfg.force_after_nanos > 0) return cfg.force_after_nanos;
    const uint64_t typical = baseline->Typical(cfg.kind);
    if (typical == 0) return 0;
    const auto scaled =
        static_cast<uint64_t>(static_cast<double>(typical) * cfg.slowness_factor);
    return std::max(cfg.min_elapsed_nanos, scaled);
  };

  {
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
      const bool all_done = primary.done && (!backup_started || backup.done);
      const bool have_winner = (primary.done && primary.status.ok()) ||
                               (backup_started && backup.done &&
                                backup.status.ok());
      if (all_done || have_winner) break;
      cv.wait_for(lock, std::chrono::milliseconds(5));
      if (backup_started || primary.done) continue;
      const uint64_t threshold = slowness_threshold();
      if (threshold == 0 || NowNanos() - start < threshold) continue;
      // Nearly-finished primaries are not worth racing (adaptive mode only;
      // a forced threshold is a test asking for a deterministic race).
      if (cfg.force_after_nanos == 0 &&
          coord->RpcProgressPermille(
              primary.rpc_id.load(std::memory_order_acquire)) >= 900) {
        continue;
      }
      if (coord->live_workers() < 2) continue;  // nowhere to place a backup
      backup_started = true;
      stats->backups.fetch_add(1, std::memory_order_relaxed);
      backups_counter->Inc();
      ANTIMR_TRACE_INSTANT(
          "engine", "speculative_backup",
          obs::TraceArgs()
              .Add("rpc", static_cast<int64_t>(
                              primary.rpc_id.load(std::memory_order_acquire)))
              .Add("kind", cfg.kind == net::TaskKind::kMap ? "map" : "reduce"));
      lock.unlock();
      backup_thread = std::thread(run_side, &backup,
                                  primary.worker.load(std::memory_order_relaxed));
      lock.lock();
    }
  }

  // Decide the race and cancel the still-running loser, if any.
  Side* winner = nullptr;
  Side* loser = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu);
    if (primary.done && primary.status.ok()) {
      winner = &primary;
      loser = backup_started ? &backup : nullptr;
    } else if (backup_started && backup.done && backup.status.ok()) {
      winner = &backup;
      loser = &primary;
    }
  }
  if (winner != nullptr && loser != nullptr) {
    bool loser_running;
    {
      std::lock_guard<std::mutex> lock(mu);
      loser_running = !loser->done;
    }
    if (loser_running) {
      coord->CancelTask(loser->worker.load(std::memory_order_relaxed),
                        loser->rpc_id.load(std::memory_order_acquire));
      stats->cancels.fetch_add(1, std::memory_order_relaxed);
      cancelled_counter->Inc();
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return loser->done; });
    }
  }
  primary_thread.join();
  if (backup_thread.joinable()) backup_thread.join();

  if (winner == nullptr) {
    // Both attempts failed (or the lone primary did): surface the primary's
    // error — the TaskGraph retry layer treats it like any failed attempt.
    return !primary.status.ok() ? primary.status : backup.status;
  }
  if (winner == &backup) {
    stats->backup_wins.fetch_add(1, std::memory_order_relaxed);
    wins_counter->Inc();
    ANTIMR_TRACE_INSTANT(
        "engine", "speculation_win",
        obs::TraceArgs()
            .Add("rpc", static_cast<int64_t>(
                            backup.rpc_id.load(std::memory_order_acquire)))
            .Add("kind", cfg.kind == net::TaskKind::kMap ? "map" : "reduce"));
  }
  *result = std::move(winner->res);
  *winner_worker = winner->worker.load(std::memory_order_relaxed);
  return Status::OK();
}

/// Service-side hooks threaded through one driver run.
struct ExecHooks {
  /// Pre-encoded splits (wire path); empty = encode options.splits here.
  const std::vector<std::string>* encoded_splits = nullptr;
  /// Abort flag: checked at every task-body entry; a set flag turns the
  /// body into a *permanent* failure (Status::Internal), which stops the
  /// TaskGraph retry loop cold. The kCancelJob broadcast fails in-flight
  /// worker attempts transiently; this check is what keeps the retry from
  /// relaunching them.
  const std::atomic<bool>* abort = nullptr;
  /// Progress mirror for the service's job table (called alongside the
  /// coordinator's own PublishJobStatus).
  std::function<void(const JobStatusSnapshot&)> on_status;
};

/// The distributed job driver: the body RunDistributedJob had before the
/// JobService refactor, now shared by every admitted job.
Status ExecuteDistJob(Coordinator* coord, const DistJobOptions& options,
                      const ExecHooks& hooks, DistJobResult* result) {
  *result = DistJobResult();
  const uint64_t wall_start = NowNanos();

  auto aborted = [&hooks] {
    return hooks.abort != nullptr &&
           hooks.abort->load(std::memory_order_acquire);
  };

  // Build the spec locally only to learn the job's shape (and fail fast on
  // bad params) — workers rebuild their own from the same registry.
  JobSpec spec;
  ANTIMR_RETURN_NOT_OK(
      BuildRegisteredJob(options.job_name, options.params, &spec));
  const int num_reduces = spec.num_reduce_tasks;

  // Encode each split once; retries and heals reuse the bytes. The wire
  // path hands pre-encoded splits through hooks.
  std::vector<std::string> encoded_storage;
  const std::vector<std::string>* encoded = hooks.encoded_splits;
  if (encoded == nullptr || encoded->empty()) {
    encoded_storage.resize(options.splits.size());
    for (size_t m = 0; m < options.splits.size(); ++m) {
      net::EncodeKVList(options.splits[m], &encoded_storage[m]);
    }
    encoded = &encoded_storage;
  }
  const int num_maps = static_cast<int>(encoded->size());
  if (num_maps == 0) return Status::InvalidArgument("no input splits");
  const std::string job_id =
      options.job_id.empty() ? UniqueJobId(options.job_name) : options.job_id;
  ANTIMR_TRACE_SPAN_DYN("engine", "dist:" + job_id);

  std::deque<MapPlacement> placements(num_maps);
  std::vector<std::vector<KV>> outputs(num_reduces);
  std::vector<JobMetrics> reduce_metrics(num_reduces);
  std::vector<uint64_t> reduce_cpu(num_reduces, 0);
  std::atomic<uint64_t> map_runs{0};
  std::atomic<uint64_t> maps_done{0};
  std::atomic<uint64_t> reduces_done{0};

  // This job's in-flight dispatches per worker: placement balances the
  // job's own spread first (Coordinator::PickWorker) so one tenant's flood
  // cannot pile another tenant's tasks onto the one idle worker.
  std::mutex job_load_mu;
  std::map<uint32_t, int> job_load;
  SpecBaseline baseline;

  // Workers capture and ship trace spans only when this run is tracing.
  const bool trace_enabled = obs::kTraceCompiled && obs::TraceEnabled();

  auto publish_status = [&](const char* state) {
    JobStatusSnapshot s;
    s.job_id = job_id;
    s.job_name = options.job_name;
    s.state = state;
    s.maps_total = static_cast<uint64_t>(num_maps);
    s.maps_done = std::min(maps_done.load(std::memory_order_relaxed),
                           static_cast<uint64_t>(num_maps));
    s.reduces_total = static_cast<uint64_t>(num_reduces);
    s.reduces_done = reduces_done.load(std::memory_order_relaxed);
    const uint64_t runs = map_runs.load(std::memory_order_relaxed);
    s.map_reruns = runs > static_cast<uint64_t>(num_maps)
                       ? runs - static_cast<uint64_t>(num_maps)
                       : 0;
    coord->PublishJobStatus(s);
    if (hooks.on_status) hooks.on_status(s);
  };
  publish_status("running");

  SpecStats spec_stats;
  SpecConfig map_spec, reduce_spec;
  map_spec.enabled = reduce_spec.enabled = options.speculative_execution;
  map_spec.slowness_factor = reduce_spec.slowness_factor =
      options.speculation_slowness_factor;
  map_spec.min_elapsed_nanos = reduce_spec.min_elapsed_nanos =
      options.speculation_min_elapsed_nanos;
  map_spec.force_after_nanos = reduce_spec.force_after_nanos =
      options.speculation_force_after_nanos;
  map_spec.kind = net::TaskKind::kMap;
  reduce_spec.kind = net::TaskKind::kReduce;

  // Pick a worker (job-aware), run the Call, and maintain the job's
  // in-flight map plus its speculation baseline around it.
  auto place_and_call = [&](uint32_t exclude, net::TaskAssignMsg assign,
                            std::atomic<uint64_t>* rpc_id,
                            std::atomic<uint32_t>* worker,
                            net::TaskResultMsg* res,
                            net::TaskKind kind) -> Status {
    uint32_t worker_id = 0;
    {
      std::lock_guard<std::mutex> lock(job_load_mu);
      ANTIMR_RETURN_NOT_OK(coord->PickWorker(&worker_id, exclude, &job_load));
      ++job_load[worker_id];
    }
    worker->store(worker_id, std::memory_order_relaxed);
    const uint64_t t0 = NowNanos();
    const Status st = coord->Call(worker_id, std::move(assign), res, rpc_id);
    {
      std::lock_guard<std::mutex> lock(job_load_mu);
      if (--job_load[worker_id] <= 0) job_load.erase(worker_id);
    }
    if (st.ok() && res->status_code == 0) {
      baseline.Record(kind, NowNanos() - t0);
    }
    return st;
  };

  // Runs (or re-runs) map `m` on a live worker and records its placement —
  // under speculation, the first of up to two racing attempts to finish.
  // Callers hold placements[m].mu, so each attempt draws a fresh
  // attempt-scoped job_id: a re-execution (retry, heal, or speculative
  // backup) can land on a worker that already holds a previous attempt's
  // files, and unique names keep stale segments from masking fresh ones.
  auto run_map_once = [&](int m) -> Status {
    MapPlacement& loc = placements[m];
    auto start_attempt = [&](uint32_t exclude, std::atomic<uint64_t>* rpc_id,
                             std::atomic<uint32_t>* worker,
                             net::TaskResultMsg* res) -> Status {
      net::TaskAssignMsg assign;
      assign.kind = net::TaskKind::kMap;
      assign.job_name = options.job_name;
      assign.params = options.params;
      const uint32_t attempt =
          loc.attempts.fetch_add(1, std::memory_order_relaxed);
      assign.job_id = job_id + "_a" + std::to_string(attempt);
      assign.task_index = static_cast<uint32_t>(m);
      assign.attempt = attempt;
      assign.trace_enabled = trace_enabled;
      assign.split_records = (*encoded)[m];
      return place_and_call(exclude, std::move(assign), rpc_id, worker, res,
                            net::TaskKind::kMap);
    };
    net::TaskResultMsg res;
    uint32_t winner_worker = 0;
    ANTIMR_RETURN_NOT_OK(RunWithSpeculation(coord, map_spec, &baseline,
                                            start_attempt, &res,
                                            &winner_worker, &spec_stats));
    JobMetrics metrics;
    ANTIMR_RETURN_NOT_OK(net::DecodeJobMetrics(res.metrics, &metrics));
    loc.worker = winner_worker;
    loc.segment_files = std::move(res.segment_files);
    loc.metrics = metrics;
    loc.cpu_nanos = res.cpu_nanos;
    map_runs.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  };

  // Dispatcher threads only block on worker RPCs, so size the pool to run
  // every task's dispatch concurrently by default; a job admitted with a
  // cpu-slot grant runs at exactly that dispatch width.
  const int total_tasks = num_maps + num_reduces;
  TaskPool dispatch(options.dispatch_threads > 0 ? options.dispatch_threads
                                                 : std::min(total_tasks, 64),
                    "dispatch");
  RetryPolicy retry;
  retry.max_attempts = std::max(1, options.max_task_attempts);
  retry.backoff_nanos = options.retry_backoff_nanos;
  TaskGraph graph(&dispatch, retry);

  std::vector<int> map_ids(num_maps);
  for (int m = 0; m < num_maps; ++m) {
    map_ids[m] = graph.AddTask(
        [&, m](int) -> Status {
          if (aborted()) return Status::Internal("job aborted");
          {
            std::lock_guard<std::mutex> lock(placements[m].mu);
            ANTIMR_RETURN_NOT_OK(run_map_once(m));
          }
          maps_done.fetch_add(1, std::memory_order_relaxed);
          publish_status("running");
          return Status::OK();
        },
        {}, TaskGraph::TaskOptions());
  }

  for (int p = 0; p < num_reduces; ++p) {
    graph.AddTask(
        [&, p](int attempt) -> Status {
          if (aborted()) return Status::Internal("job aborted");
          // Heal before placing: any map whose owning worker died lost its
          // segments, so re-run it first. The per-map mutex lets concurrent
          // reduce attempts heal disjoint maps in parallel while never
          // double-running one.
          for (int m = 0; m < num_maps; ++m) {
            if (aborted()) return Status::Internal("job aborted");
            MapPlacement& loc = placements[m];
            std::lock_guard<std::mutex> lock(loc.mu);
            if (!coord->WorkerAlive(loc.worker)) {
              ANTIMR_RETURN_NOT_OK(run_map_once(m));
            }
          }
          net::TaskAssignMsg base;
          base.kind = net::TaskKind::kReduce;
          base.job_name = options.job_name;
          base.params = options.params;
          base.job_id = job_id;
          base.task_index = static_cast<uint32_t>(p);
          base.attempt = static_cast<uint32_t>(attempt);
          base.trace_enabled = trace_enabled;
          base.collect_output = options.collect_outputs;
          base.network_mb_per_s = options.network_mb_per_s;
          base.readahead_blocks = options.readahead_blocks;
          // Segment list in (map index, run) order: merge order is part of
          // the output contract, identical to the single-process planner.
          for (int m = 0; m < num_maps; ++m) {
            MapPlacement& loc = placements[m];
            std::lock_guard<std::mutex> lock(loc.mu);
            for (const std::string& file : loc.segment_files[p]) {
              base.segments.push_back(
                  {coord->WorkerShuffleAddr(loc.worker), file});
            }
          }
          auto start_attempt =
              [&, base](uint32_t exclude, std::atomic<uint64_t>* rpc_id,
                        std::atomic<uint32_t>* worker,
                        net::TaskResultMsg* res) -> Status {
            return place_and_call(exclude, net::TaskAssignMsg(base), rpc_id,
                                  worker, res, net::TaskKind::kReduce);
          };
          net::TaskResultMsg res;
          uint32_t winner_worker = 0;
          ANTIMR_RETURN_NOT_OK(RunWithSpeculation(coord, reduce_spec,
                                                  &baseline, start_attempt,
                                                  &res, &winner_worker,
                                                  &spec_stats));
          ANTIMR_RETURN_NOT_OK(
              net::DecodeKVList(res.output_records, &outputs[p]));
          ANTIMR_RETURN_NOT_OK(
              net::DecodeJobMetrics(res.metrics, &reduce_metrics[p]));
          reduce_cpu[p] = res.cpu_nanos;
          reduces_done.fetch_add(1, std::memory_order_relaxed);
          publish_status("running");
          return Status::OK();
        },
        map_ids, TaskGraph::TaskOptions());
  }

  const Status run_status = graph.Wait();
  publish_status(run_status.ok() ? "done" : "failed");
  if (!run_status.ok()) return run_status;

  for (int m = 0; m < num_maps; ++m) {
    result->metrics.Add(placements[m].metrics);
    result->metrics.total_cpu_nanos += placements[m].cpu_nanos;
  }
  result->reduce_shuffle_bytes.resize(num_reduces, 0);
  result->reduce_input_records.resize(num_reduces, 0);
  for (int p = 0; p < num_reduces; ++p) {
    result->metrics.Add(reduce_metrics[p]);
    result->metrics.total_cpu_nanos += reduce_cpu[p];
    result->reduce_shuffle_bytes[p] = reduce_metrics[p].shuffle_bytes;
    result->reduce_input_records[p] = reduce_metrics[p].reduce_input_records;
  }
  result->spec_backups = spec_stats.backups.load(std::memory_order_relaxed);
  result->spec_backup_wins =
      spec_stats.backup_wins.load(std::memory_order_relaxed);
  result->spec_cancels = spec_stats.cancels.load(std::memory_order_relaxed);
  result->outputs = std::move(outputs);
  const uint64_t total_runs = map_runs.load(std::memory_order_relaxed);
  result->map_reruns =
      total_runs > static_cast<uint64_t>(num_maps)
          ? total_runs - static_cast<uint64_t>(num_maps)
          : 0;
  result->metrics.wall_nanos = NowNanos() - wall_start;
  return Status::OK();
}

}  // namespace

// --- JobService ----------------------------------------------------------

struct JobService::Job {
  std::string id;
  std::string pool_name;
  JobSubmission sub;
  std::string state = "queued";
  /// Stride charge: the granted dispatch slots, floored at 1 so auto-sized
  /// jobs still advance their pool's pass.
  int cost = 1;
  /// Quota charge and dispatch width; 0 = "auto" (legacy sizing, no quota).
  int granted_slots = 0;
  uint64_t charged_memory = 0;
  uint64_t submit_nanos = 0;
  uint64_t start_nanos = 0;
  uint64_t finish_nanos = 0;
  uint64_t dispatch_seq = 0;
  std::atomic<bool> abort_requested{false};
  // Driver progress mirror; atomics so status readers never touch the
  // driver's own synchronization.
  std::atomic<uint64_t> maps_total{0};
  std::atomic<uint64_t> maps_done{0};
  std::atomic<uint64_t> reduces_total{0};
  std::atomic<uint64_t> reduces_done{0};
  std::atomic<uint64_t> map_reruns{0};
  Status final_status;
  uint64_t output_hash = 0;
  uint64_t output_records = 0;
  DistJobResult result;
  bool have_result = false;
  std::thread runner;
  bool reaped = false;  ///< runner joined (scheduler GC or Stop)
};

struct JobService::Pool {
  PoolConfig cfg;
  std::deque<Job*> queue;  ///< FIFO; only the head is dispatchable
  double pass = 0;         ///< stride accumulator: min pass dispatches next
  int running = 0;
  int used_slots = 0;
  uint64_t used_memory = 0;
  uint64_t busy_slot_nanos = 0;  ///< integral of cost over job runtimes
  uint64_t jobs_completed = 0;
  obs::Gauge* queued_gauge = nullptr;
  obs::Gauge* running_gauge = nullptr;
  obs::Gauge* share_gauge = nullptr;
  obs::Counter* submitted = nullptr;
  obs::Counter* completed = nullptr;
  obs::Counter* rejected = nullptr;
  obs::Counter* aborted = nullptr;
};

JobService::JobService(Coordinator* coord, const JobServiceOptions& options)
    : coord_(coord), options_(options) {
  if (options_.pools.empty()) options_.pools.push_back(PoolConfig());
  first_pool_ = options_.pools.front().name;
  auto& reg = obs::MetricsRegistry::Global();
  for (const PoolConfig& cfg : options_.pools) {
    if (pools_.count(cfg.name) != 0) continue;  // first definition wins
    auto pool = std::make_unique<Pool>();
    pool->cfg = cfg;
    if (pool->cfg.weight <= 0) pool->cfg.weight = 1.0;
    // Labels are baked into the names, matching the federation convention.
    const std::string label = "{pool=\"" + cfg.name + "\"}";
    pool->queued_gauge =
        reg.GetGauge("antimr_jobs_queued" + label, "jobs waiting in the pool");
    pool->running_gauge =
        reg.GetGauge("antimr_jobs_running" + label, "jobs running in the pool");
    pool->share_gauge = reg.GetGauge("antimr_pool_fair_share_slots" + label,
                                     "cpu slots in use by the pool's jobs");
    pool->submitted = reg.GetCounter("antimr_jobs_submitted_total" + label,
                                     "jobs admitted to the pool's queue");
    pool->completed = reg.GetCounter("antimr_jobs_completed_total" + label,
                                     "pool jobs that reached a terminal state");
    pool->rejected = reg.GetCounter("antimr_jobs_rejected_total" + label,
                                    "submissions refused by admission control");
    pool->aborted = reg.GetCounter("antimr_jobs_aborted_total" + label,
                                   "pool jobs aborted before success");
    pools_.emplace(cfg.name, std::move(pool));
  }
  scheduler_ = std::thread(&JobService::SchedulerLoop, this);
}

JobService::~JobService() { Stop(); }

void JobService::AttachStatusEndpoint() {
  coord_->AddStatusHandler("/jobs", [this](std::string* content_type) {
    *content_type = "application/json";
    return JobsJson();
  });
}

Status JobService::Submit(JobSubmission submission, std::string* job_id) {
  std::unique_lock<std::mutex> lock(mu_);
  return SubmitLocked(std::move(submission), job_id, lock);
}

Status JobService::SubmitLocked(JobSubmission&& sub, std::string* job_id,
                                std::unique_lock<std::mutex>& lock) {
  (void)lock;
  if (stopping_) return Status::Internal("job service is stopping");
  const std::string pool_name = sub.pool.empty() ? first_pool_ : sub.pool;
  auto pit = pools_.find(pool_name);
  if (pit == pools_.end()) {
    return Status::NotFound("unknown pool: " + pool_name);
  }
  Pool& pool = *pit->second;
  if (sub.job_name.empty()) {
    pool.rejected->Inc();
    return Status::InvalidArgument("job_name is required");
  }
  if (sub.splits.empty() && sub.encoded_splits.empty()) {
    pool.rejected->Inc();
    return Status::InvalidArgument("no input splits");
  }
  const int granted =
      sub.cpu_slots > 0 ? sub.cpu_slots : options_.default_cpu_slots;
  const uint64_t memory =
      sub.memory_bytes > 0 ? sub.memory_bytes : options_.default_memory_bytes;
  // A job whose declared resources exceed the pool quota outright could
  // never be admitted — reject now instead of wedging the FIFO forever.
  if (pool.cfg.cpu_slots_quota > 0 && granted > pool.cfg.cpu_slots_quota) {
    pool.rejected->Inc();
    return Status::ResourceExhausted(
        "cpu slots " + std::to_string(granted) + " exceed pool \"" +
        pool_name + "\" quota " + std::to_string(pool.cfg.cpu_slots_quota));
  }
  if (pool.cfg.memory_quota_bytes > 0 &&
      memory > pool.cfg.memory_quota_bytes) {
    pool.rejected->Inc();
    return Status::ResourceExhausted(
        "memory " + std::to_string(memory) + " bytes exceeds pool \"" +
        pool_name + "\" quota " +
        std::to_string(pool.cfg.memory_quota_bytes));
  }
  if (options_.max_queued_jobs > 0 &&
      queued_jobs_ >= options_.max_queued_jobs) {
    pool.rejected->Inc();
    return Status::ResourceExhausted(
        "job queue full (" + std::to_string(queued_jobs_) + " queued)");
  }
  std::string id = sub.job_id.empty() ? UniqueJobId(sub.job_name) : sub.job_id;
  if (jobs_.count(id) != 0) {
    pool.rejected->Inc();
    return Status::InvalidArgument("duplicate job id: " + id);
  }
  if (sub.encoded_splits.empty()) {
    sub.encoded_splits.resize(sub.splits.size());
    for (size_t m = 0; m < sub.splits.size(); ++m) {
      net::EncodeKVList(sub.splits[m], &sub.encoded_splits[m]);
    }
    sub.splits.clear();
    sub.splits.shrink_to_fit();
  }
  auto job = std::make_unique<Job>();
  job->id = id;
  job->pool_name = pool_name;
  job->sub = std::move(sub);
  job->granted_slots = granted;
  job->cost = std::max(1, granted);
  job->charged_memory = memory;
  job->submit_nanos = NowNanos();
  pool.queue.push_back(job.get());
  ++queued_jobs_;
  pool.queued_gauge->Add(1);
  pool.submitted->Inc();
  submit_order_.push_back(id);
  jobs_.emplace(id, std::move(job));
  if (job_id != nullptr) *job_id = id;
  cv_.notify_all();
  return Status::OK();
}

void JobService::SchedulerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stopping_) {
    // GC terminal runners so a long-lived daemon never accumulates
    // joinable threads. One join per pass keeps the lock gaps short.
    for (auto& entry : jobs_) {
      Job* job = entry.second.get();
      if (!job->reaped && IsTerminalState(job->state) &&
          job->runner.joinable()) {
        job->reaped = true;
        std::thread runner = std::move(job->runner);
        lock.unlock();
        runner.join();
        lock.lock();
        break;  // the map may have grown while unlocked; rescan next pass
      }
    }
    const bool workers_ready =
        options_.min_workers <= 0 ||
        coord_->live_workers() >= options_.min_workers;
    while (workers_ready && !stopping_) {
      // Stride pick: the eligible pool with the smallest pass. Strict <
      // plus name-ordered iteration makes ties deterministic; only queue
      // heads are considered (strict FIFO within a pool).
      Pool* best = nullptr;
      for (auto& entry : pools_) {
        Pool* pool = entry.second.get();
        if (pool->queue.empty()) continue;
        Job* head = pool->queue.front();
        if (options_.max_concurrent_jobs > 0 &&
            running_jobs_ >= options_.max_concurrent_jobs) {
          continue;
        }
        if (pool->cfg.max_running_jobs > 0 &&
            pool->running >= pool->cfg.max_running_jobs) {
          continue;
        }
        if (pool->cfg.cpu_slots_quota > 0 &&
            pool->used_slots + head->granted_slots >
                pool->cfg.cpu_slots_quota) {
          continue;
        }
        if (pool->cfg.memory_quota_bytes > 0 &&
            pool->used_memory + head->charged_memory >
                pool->cfg.memory_quota_bytes) {
          continue;
        }
        if (best == nullptr || pool->pass < best->pass) best = pool;
      }
      if (best == nullptr) break;
      Job* job = best->queue.front();
      best->queue.pop_front();
      --queued_jobs_;
      best->queued_gauge->Sub(1);
      job->state = "admitted";
      job->dispatch_seq = next_dispatch_seq_++;
      best->pass += static_cast<double>(job->cost) / best->cfg.weight;
      ++best->running;
      ++running_jobs_;
      best->used_slots += job->granted_slots;
      best->used_memory += job->charged_memory;
      best->running_gauge->Add(1);
      best->share_gauge->Set(best->used_slots);
      job->runner = std::thread(&JobService::RunJob, this, best, job);
    }
    cv_.wait_for(lock, std::chrono::milliseconds(20));
  }
}

void JobService::RunJob(Pool* pool, Job* job) {
  DistJobOptions opts;
  opts.job_name = job->sub.job_name;
  opts.params = job->sub.params;
  opts.collect_outputs = job->sub.collect_outputs;
  opts.max_task_attempts = job->sub.max_task_attempts > 0
                               ? job->sub.max_task_attempts
                               : options_.default_max_task_attempts;
  opts.retry_backoff_nanos = job->sub.retry_backoff_nanos > 0
                                 ? job->sub.retry_backoff_nanos
                                 : options_.default_retry_backoff_nanos;
  opts.network_mb_per_s = job->sub.network_mb_per_s;
  opts.readahead_blocks = job->sub.readahead_blocks;
  opts.job_id = job->id;
  opts.dispatch_threads = job->granted_slots;  // 0 = legacy auto sizing
  opts.speculative_execution = job->sub.speculation < 0
                                   ? options_.speculative_execution
                                   : job->sub.speculation != 0;
  opts.speculation_slowness_factor = options_.speculation_slowness_factor;
  opts.speculation_min_elapsed_nanos = options_.speculation_min_elapsed_nanos;
  opts.speculation_force_after_nanos = job->sub.speculation_force_after_nanos;

  {
    std::lock_guard<std::mutex> lock(mu_);
    job->state = "running";
    job->start_nanos = NowNanos();
  }

  ExecHooks hooks;
  hooks.encoded_splits = &job->sub.encoded_splits;
  hooks.abort = &job->abort_requested;
  hooks.on_status = [job](const JobStatusSnapshot& s) {
    job->maps_total.store(s.maps_total, std::memory_order_relaxed);
    job->maps_done.store(s.maps_done, std::memory_order_relaxed);
    job->reduces_total.store(s.reduces_total, std::memory_order_relaxed);
    job->reduces_done.store(s.reduces_done, std::memory_order_relaxed);
    job->map_reruns.store(s.map_reruns, std::memory_order_relaxed);
  };
  DistJobResult result;
  const Status st = ExecuteDistJob(coord_, opts, hooks, &result);
  const uint64_t finish = NowNanos();

  {
    std::lock_guard<std::mutex> lock(mu_);
    job->finish_nanos = finish;
    job->final_status = st;
    if (st.ok()) {
      job->state = "succeeded";
    } else if (job->abort_requested.load(std::memory_order_acquire)) {
      job->state = "aborted";
      pool->aborted->Inc();
    } else {
      job->state = "failed";
    }
    if (st.ok() && job->sub.collect_outputs) {
      // The multiset hash is additive, so summing per-partition hashes
      // equals hashing the flattened output — no copy needed.
      for (const auto& part : result.outputs) {
        job->output_hash += OutputMultisetHash(part);
        job->output_records += part.size();
      }
    }
    job->result = std::move(result);
    job->have_result = true;
    --pool->running;
    --running_jobs_;
    pool->used_slots -= job->granted_slots;
    pool->used_memory -= job->charged_memory;
    pool->running_gauge->Sub(1);
    pool->share_gauge->Set(pool->used_slots);
    pool->completed->Inc();
    pool->busy_slot_nanos +=
        static_cast<uint64_t>(job->cost) * (finish - job->start_nanos);
    ++pool->jobs_completed;
  }
  if (options_.scrub_on_terminal) {
    coord_->BroadcastJobFrame(net::kScrubJob, job->id);
  }
  cv_.notify_all();
}

Status JobService::Wait(const std::string& job_id, DistJobResult* result) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) {
    return Status::NotFound("unknown job: " + job_id);
  }
  Job* job = it->second.get();
  cv_.wait(lock, [&] { return IsTerminalState(job->state); });
  if (result != nullptr) {
    *result = std::move(job->result);
    job->result = DistJobResult();
    job->have_result = false;
  }
  return job->final_status;
}

Status JobService::Abort(const std::string& job_id) {
  std::string cancel_id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = jobs_.find(job_id);
    if (it == jobs_.end()) {
      return Status::NotFound("unknown job: " + job_id);
    }
    Job* job = it->second.get();
    if (IsTerminalState(job->state)) {
      return Status::InvalidArgument("job " + job_id +
                                     " is already terminal (" + job->state +
                                     ")");
    }
    if (job->state == "queued") {
      Pool& pool = *pools_[job->pool_name];
      for (auto qit = pool.queue.begin(); qit != pool.queue.end(); ++qit) {
        if (*qit == job) {
          pool.queue.erase(qit);
          break;
        }
      }
      --queued_jobs_;
      pool.queued_gauge->Sub(1);
      pool.completed->Inc();
      pool.aborted->Inc();
      ++pool.jobs_completed;
      job->state = "aborted";
      job->finish_nanos = NowNanos();
      job->final_status = Status::Internal("aborted while queued");
      cv_.notify_all();
      return Status::OK();
    }
    // Admitted or running: flip the flag the driver checks at every task
    // boundary, then cancel the in-flight worker attempts cluster-wide.
    job->abort_requested.store(true, std::memory_order_release);
    cancel_id = job->id;
  }
  coord_->BroadcastJobFrame(net::kCancelJob, cancel_id);
  return Status::OK();
}

net::JobStatusWire JobService::RowOfLocked(const Job& job) const {
  net::JobStatusWire row;
  row.job_id = job.id;
  row.pool = job.pool_name;
  row.job_name = job.sub.job_name;
  row.state = job.state;
  if (job.state == "queued") {
    auto it = pools_.find(job.pool_name);
    if (it != pools_.end()) {
      const auto& queue = it->second->queue;
      for (size_t i = 0; i < queue.size(); ++i) {
        if (queue[i] == &job) {
          row.queue_position = static_cast<uint32_t>(i + 1);
          break;
        }
      }
    }
  }
  row.cpu_slots = static_cast<uint32_t>(job.granted_slots);
  row.maps_total = job.maps_total.load(std::memory_order_relaxed);
  row.maps_done = job.maps_done.load(std::memory_order_relaxed);
  row.reduces_total = job.reduces_total.load(std::memory_order_relaxed);
  row.reduces_done = job.reduces_done.load(std::memory_order_relaxed);
  row.map_reruns = job.map_reruns.load(std::memory_order_relaxed);
  if (IsTerminalState(job.state)) {
    row.status_code = static_cast<int32_t>(job.final_status.code());
    row.status_msg = job.final_status.message();
  }
  row.output_hash = job.output_hash;
  row.output_records = job.output_records;
  row.submit_nanos = job.submit_nanos;
  row.start_nanos = job.start_nanos;
  row.finish_nanos = job.finish_nanos;
  row.dispatch_seq = job.dispatch_seq;
  return row;
}

Status JobService::GetJob(const std::string& job_id,
                          net::JobStatusWire* row) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) {
    return Status::NotFound("unknown job: " + job_id);
  }
  *row = RowOfLocked(*it->second);
  return Status::OK();
}

std::vector<net::JobStatusWire> JobService::ListJobs() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<net::JobStatusWire> rows;
  rows.reserve(submit_order_.size());
  for (const std::string& id : submit_order_) {
    auto it = jobs_.find(id);
    if (it != jobs_.end()) rows.push_back(RowOfLocked(*it->second));
  }
  return rows;
}

std::string JobService::JobsJson() const {
  const std::vector<net::JobStatusWire> rows = ListJobs();
  std::string out = "{\"jobs\":[";
  bool first = true;
  for (const net::JobStatusWire& row : rows) {
    if (!first) out += ",";
    first = false;
    out += "{\"job_id\":";
    AppendJsonString(&out, row.job_id);
    out += ",\"pool\":";
    AppendJsonString(&out, row.pool);
    out += ",\"job_name\":";
    AppendJsonString(&out, row.job_name);
    out += ",\"state\":";
    AppendJsonString(&out, row.state);
    out += ",\"queue_position\":" + std::to_string(row.queue_position);
    out += ",\"cpu_slots\":" + std::to_string(row.cpu_slots);
    out += ",\"maps_total\":" + std::to_string(row.maps_total);
    out += ",\"maps_done\":" + std::to_string(row.maps_done);
    out += ",\"reduces_total\":" + std::to_string(row.reduces_total);
    out += ",\"reduces_done\":" + std::to_string(row.reduces_done);
    out += ",\"map_reruns\":" + std::to_string(row.map_reruns);
    out += ",\"status_code\":" + std::to_string(row.status_code);
    out += ",\"status_msg\":";
    AppendJsonString(&out, row.status_msg);
    out += ",\"output_hash\":\"" + std::to_string(row.output_hash);
    out += "\",\"output_records\":" + std::to_string(row.output_records);
    out += ",\"submit_nanos\":" + std::to_string(row.submit_nanos);
    out += ",\"start_nanos\":" + std::to_string(row.start_nanos);
    out += ",\"finish_nanos\":" + std::to_string(row.finish_nanos);
    out += ",\"dispatch_seq\":" + std::to_string(row.dispatch_seq);
    out += "}";
  }
  out += "]}";
  return out;
}

std::vector<JobService::PoolUsage> JobService::PoolUsageSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<PoolUsage> usage;
  usage.reserve(pools_.size());
  for (const auto& entry : pools_) {
    PoolUsage u;
    u.pool = entry.first;
    u.weight = entry.second->cfg.weight;
    u.busy_slot_nanos = entry.second->busy_slot_nanos;
    u.jobs_completed = entry.second->jobs_completed;
    usage.push_back(std::move(u));
  }
  return usage;
}

// --- RPC plane -----------------------------------------------------------

Status JobService::Serve(const std::string& addr) {
  if (listener_ != nullptr) return Status::Internal("already serving");
  ANTIMR_RETURN_NOT_OK(coord_->transport()->Listen(addr, &listener_));
  serve_addr_ = listener_->addr();
  accept_thread_ = std::thread(&JobService::AcceptLoop, this);
  ANTIMR_LOG(kInfo) << "job service listening on " << serve_addr_;
  return Status::OK();
}

void JobService::AcceptLoop() {
  for (;;) {
    std::unique_ptr<net::Conn> conn;
    if (!listener_->Accept(&conn).ok()) return;  // listener closed
    net::Conn* raw = conn.get();
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.push_back(std::move(conn));
    conn_threads_.emplace_back([this, raw] { ServeConn(raw); });
  }
}

void JobService::ServeConn(net::Conn* conn) {
  for (;;) {
    uint8_t type = 0;
    std::string payload;
    if (!net::ReadFrame(conn, &type, &payload).ok()) return;
    std::string resp;
    uint8_t resp_type = 0;
    switch (type) {
      case net::kSubmitJob: {
        net::SubmitJobMsg msg;
        Status st = net::DecodeSubmitJob(payload, &msg);
        net::SubmitJobAckMsg ack;
        if (st.ok()) {
          JobSubmission sub;
          sub.pool = msg.pool;
          sub.job_name = msg.job_name;
          sub.params = std::move(msg.params);
          sub.encoded_splits = std::move(msg.splits);
          sub.job_id = msg.job_id;
          sub.cpu_slots = static_cast<int>(msg.cpu_slots);
          sub.memory_bytes = msg.memory_bytes;
          sub.collect_outputs = msg.collect_output;
          sub.max_task_attempts = static_cast<int>(msg.max_task_attempts);
          sub.network_mb_per_s = msg.network_mb_per_s;
          sub.readahead_blocks = msg.readahead_blocks;
          std::string id;
          st = Submit(std::move(sub), &id);
          ack.job_id = id;
        }
        ack.status_code = static_cast<int32_t>(st.code());
        ack.status_msg = st.message();
        net::EncodeSubmitJobAck(ack, &resp);
        resp_type = net::kSubmitJobAck;
        break;
      }
      case net::kJobStatusReq: {
        net::JobIdMsg msg;
        Status st = net::DecodeJobId(payload, &msg);
        net::JobStatusRespMsg out;
        if (st.ok()) st = GetJob(msg.job_id, &out.job);
        out.status_code = static_cast<int32_t>(st.code());
        out.status_msg = st.message();
        net::EncodeJobStatusResp(out, &resp);
        resp_type = net::kJobStatusResp;
        break;
      }
      case net::kAbortJob: {
        net::JobIdMsg msg;
        Status st = net::DecodeJobId(payload, &msg);
        if (st.ok()) st = Abort(msg.job_id);
        net::JobOpAckMsg ack;
        ack.status_code = static_cast<int32_t>(st.code());
        ack.status_msg = st.message();
        net::EncodeJobOpAck(ack, &resp);
        resp_type = net::kJobOpAck;
        break;
      }
      case net::kListJobsReq: {
        net::ListJobsRespMsg out;
        out.jobs = ListJobs();
        net::EncodeListJobsResp(out, &resp);
        resp_type = net::kListJobsResp;
        break;
      }
      default:
        return;  // unknown frame: drop the connection
    }
    if (!net::WriteFrame(conn, resp_type, resp).ok()) return;
  }
}

void JobService::Stop() {
  std::vector<std::string> cancel_ids;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    stopping_ = true;
    for (auto& entry : pools_) {
      Pool* pool = entry.second.get();
      for (Job* job : pool->queue) {
        job->state = "aborted";
        job->finish_nanos = NowNanos();
        job->final_status = Status::Internal("job service stopping");
        --queued_jobs_;
        pool->queued_gauge->Sub(1);
        pool->completed->Inc();
        pool->aborted->Inc();
        ++pool->jobs_completed;
      }
      pool->queue.clear();
    }
    for (auto& entry : jobs_) {
      Job* job = entry.second.get();
      if (job->state == "admitted" || job->state == "running") {
        job->abort_requested.store(true, std::memory_order_release);
        cancel_ids.push_back(job->id);
      }
    }
  }
  cv_.notify_all();
  if (scheduler_.joinable()) scheduler_.join();
  for (const std::string& id : cancel_ids) {
    coord_->BroadcastJobFrame(net::kCancelJob, id);
  }
  // Join every runner the scheduler had not reaped yet. Runners always
  // terminate: their abort flags are set and a dead cluster surfaces as
  // task failures.
  std::vector<std::thread> runners;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& entry : jobs_) {
      Job* job = entry.second.get();
      if (!job->reaped && job->runner.joinable()) {
        job->reaped = true;
        runners.push_back(std::move(job->runner));
      }
    }
  }
  for (std::thread& runner : runners) runner.join();
  // RPC plane: closing the listener unblocks Accept, closing the conns
  // unblocks their ReadFrames. Accept is joined before the conns close so
  // no new conn can slip past the sweep.
  if (listener_ != nullptr) listener_->Close();
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& conn : conns_) conn->Close();
  }
  for (std::thread& t : conn_threads_) t.join();
}

// --- JobServiceClient ----------------------------------------------------

JobServiceClient::JobServiceClient(net::Transport* transport, std::string addr)
    : transport_(transport), addr_(std::move(addr)) {}

Status JobServiceClient::RoundTrip(uint8_t req_type,
                                   const std::string& req_payload,
                                   uint8_t want_resp_type,
                                   std::string* resp_payload) {
  std::unique_ptr<net::Conn> conn;
  ANTIMR_RETURN_NOT_OK(transport_->Dial(addr_, &conn));
  ANTIMR_RETURN_NOT_OK(net::WriteFrame(conn.get(), req_type, req_payload));
  uint8_t type = 0;
  ANTIMR_RETURN_NOT_OK(net::ReadFrame(conn.get(), &type, resp_payload));
  if (type != want_resp_type) {
    return Status::IOError("unexpected frame type " + std::to_string(type) +
                           " from job service (want " +
                           std::to_string(want_resp_type) + ")");
  }
  return Status::OK();
}

Status JobServiceClient::Submit(const net::SubmitJobMsg& msg,
                                std::string* job_id) {
  std::string req, resp;
  net::EncodeSubmitJob(msg, &req);
  ANTIMR_RETURN_NOT_OK(RoundTrip(net::kSubmitJob, req, net::kSubmitJobAck,
                                 &resp));
  net::SubmitJobAckMsg ack;
  ANTIMR_RETURN_NOT_OK(net::DecodeSubmitJobAck(resp, &ack));
  if (job_id != nullptr) *job_id = ack.job_id;
  return net::StatusFromWire(ack.status_code, ack.status_msg);
}

Status JobServiceClient::GetStatus(const std::string& job_id,
                                   net::JobStatusWire* row) {
  net::JobIdMsg msg;
  msg.job_id = job_id;
  std::string req, resp;
  net::EncodeJobId(msg, &req);
  ANTIMR_RETURN_NOT_OK(RoundTrip(net::kJobStatusReq, req, net::kJobStatusResp,
                                 &resp));
  net::JobStatusRespMsg out;
  ANTIMR_RETURN_NOT_OK(net::DecodeJobStatusResp(resp, &out));
  *row = std::move(out.job);
  return net::StatusFromWire(out.status_code, out.status_msg);
}

Status JobServiceClient::Abort(const std::string& job_id) {
  net::JobIdMsg msg;
  msg.job_id = job_id;
  std::string req, resp;
  net::EncodeJobId(msg, &req);
  ANTIMR_RETURN_NOT_OK(RoundTrip(net::kAbortJob, req, net::kJobOpAck, &resp));
  net::JobOpAckMsg ack;
  ANTIMR_RETURN_NOT_OK(net::DecodeJobOpAck(resp, &ack));
  return net::StatusFromWire(ack.status_code, ack.status_msg);
}

Status JobServiceClient::List(std::vector<net::JobStatusWire>* jobs) {
  std::string req, resp;
  ANTIMR_RETURN_NOT_OK(RoundTrip(net::kListJobsReq, req, net::kListJobsResp,
                                 &resp));
  net::ListJobsRespMsg out;
  ANTIMR_RETURN_NOT_OK(net::DecodeListJobsResp(resp, &out));
  *jobs = std::move(out.jobs);
  return net::StatusFromWire(out.status_code, out.status_msg);
}

// --- legacy one-shot entry point -----------------------------------------

Status RunDistributedJob(Coordinator* coord, const DistJobOptions& options,
                         DistJobResult* result) {
  JobServiceOptions sopts;
  sopts.pools.push_back(PoolConfig());  // one unlimited "default" pool
  sopts.max_concurrent_jobs = 1;
  sopts.max_queued_jobs = 1;
  sopts.min_workers = 0;  // legacy semantics: dispatch blind, retries cope
  sopts.default_cpu_slots = 0;  // legacy auto dispatch sizing
  sopts.default_max_task_attempts = options.max_task_attempts;
  sopts.default_retry_backoff_nanos = options.retry_backoff_nanos;
  sopts.speculation_slowness_factor = options.speculation_slowness_factor;
  sopts.speculation_min_elapsed_nanos = options.speculation_min_elapsed_nanos;
  JobService service(coord, sopts);

  JobSubmission sub;
  sub.job_name = options.job_name;
  sub.params = options.params;
  sub.job_id = options.job_id;
  sub.cpu_slots = options.dispatch_threads;  // 0 = auto
  sub.collect_outputs = options.collect_outputs;
  sub.max_task_attempts = options.max_task_attempts;
  sub.retry_backoff_nanos = options.retry_backoff_nanos;
  sub.network_mb_per_s = options.network_mb_per_s;
  sub.readahead_blocks = options.readahead_blocks;
  sub.speculation = options.speculative_execution ? 1 : 0;
  sub.speculation_force_after_nanos = options.speculation_force_after_nanos;
  sub.encoded_splits.resize(options.splits.size());
  for (size_t m = 0; m < options.splits.size(); ++m) {
    net::EncodeKVList(options.splits[m], &sub.encoded_splits[m]);
  }

  std::string job_id;
  ANTIMR_RETURN_NOT_OK(service.Submit(std::move(sub), &job_id));
  return service.Wait(job_id, result);
}

}  // namespace engine
}  // namespace antimr
