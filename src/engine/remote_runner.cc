#include "engine/remote_runner.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>
#include <utility>

#include "common/stopwatch.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"

namespace antimr {
namespace engine {

namespace {

/// Drain `split` and encode its records for a TaskAssign.
void EncodeSplit(const InputSplit& split, std::string* out) {
  std::vector<KV> records;
  RecordRef ref;
  for (auto source = split.open(); source->NextRef(&ref);) {
    records.emplace_back(ref);
  }
  net::EncodeKVList(records, out);
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

/// Never speculate before a primary has run this long: guards the cold
/// start, when the baseline holds only a few short completions.
constexpr uint64_t kSpeculationMinElapsedNanos = 200ull * 1000 * 1000;

}  // namespace

/// One job's speculation: its knobs, its straggler baseline (recent
/// completed-task durations by kind) and its outcome counts. The baseline
/// is job-scoped on purpose: under multi-tenancy a pool of long tasks must
/// not set the slowness threshold for a pool of short ones.
struct Speculation {
  bool enabled = false;
  double slowness_factor = 2.0;
  uint64_t force_after_nanos = 0;
  std::atomic<uint64_t> backups{0};
  std::atomic<uint64_t> backup_wins{0};
  std::atomic<uint64_t> cancels{0};

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

  std::mutex mu;
  std::vector<uint64_t> recent[2];  ///< [map, reduce]
};

namespace {

/// First-finisher-wins execution of `attempt`, optionally racing a backup
/// against a straggling primary. The winner's result lands in *result /
/// *winner_worker; the loser is cancelled (kCancelTask) and awaited, so no
/// attempt outlives this call. With speculation off this is a plain
/// single-attempt run.
Status RunWithSpeculation(Coordinator* coord, Speculation* spec,
                          net::TaskKind kind, const AttemptFn& attempt,
                          net::TaskResultMsg* result,
                          uint32_t* winner_worker) {
  struct Side {
    std::atomic<uint64_t> rpc_id{0};
    std::atomic<uint32_t> worker{0};
    net::TaskResultMsg res;
    Status status;
    bool done = false;  // guarded by mu below
  };
  if (!spec->enabled) {
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
    if (spec->force_after_nanos > 0) return spec->force_after_nanos;
    const uint64_t typical = spec->Typical(kind);
    if (typical == 0) return 0;
    const auto scaled = static_cast<uint64_t>(static_cast<double>(typical) *
                                              spec->slowness_factor);
    return std::max(kSpeculationMinElapsedNanos, scaled);
  };

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
    if (spec->force_after_nanos == 0 &&
        coord->RpcProgressPermille(
            primary.rpc_id.load(std::memory_order_acquire)) >= 900) {
      continue;
    }
    if (coord->live_workers() < 2) continue;  // nowhere to place a backup
    backup_started = true;
    spec->backups.fetch_add(1, std::memory_order_relaxed);
    backups_counter->Inc();
    ANTIMR_TRACE_INSTANT(
        "engine", "speculative_backup",
        obs::TraceArgs()
            .Add("rpc", static_cast<int64_t>(
                            primary.rpc_id.load(std::memory_order_acquire)))
            .Add("kind", kind == net::TaskKind::kMap ? "map" : "reduce"));
    lock.unlock();
    backup_thread = std::thread(run_side, &backup,
                                primary.worker.load(std::memory_order_relaxed));
    lock.lock();
  }

  // Decide the race (the lock is still held) and cancel the still-running
  // loser, if any.
  Side* winner = nullptr;
  Side* loser = nullptr;
  if (primary.done && primary.status.ok()) {
    winner = &primary;
    loser = backup_started ? &backup : nullptr;
  } else if (backup_started && backup.done && backup.status.ok()) {
    winner = &backup;
    loser = &primary;
  }
  if (winner != nullptr && loser != nullptr && !loser->done) {
    lock.unlock();
    coord->CancelTask(loser->worker.load(std::memory_order_relaxed),
                      loser->rpc_id.load(std::memory_order_acquire));
    spec->cancels.fetch_add(1, std::memory_order_relaxed);
    cancelled_counter->Inc();
    lock.lock();
    cv.wait(lock, [&] { return loser->done; });
  }
  lock.unlock();
  primary_thread.join();
  if (backup_thread.joinable()) backup_thread.join();

  if (winner == nullptr) {
    // Both attempts failed (or the lone primary did): surface the primary's
    // error — the TaskGraph retry layer treats it like any failed attempt.
    return !primary.status.ok() ? primary.status : backup.status;
  }
  if (winner == &backup) {
    spec->backup_wins.fetch_add(1, std::memory_order_relaxed);
    wins_counter->Inc();
    ANTIMR_TRACE_INSTANT(
        "engine", "speculation_win",
        obs::TraceArgs()
            .Add("rpc", static_cast<int64_t>(
                            backup.rpc_id.load(std::memory_order_acquire)))
            .Add("kind", kind == net::TaskKind::kMap ? "map" : "reduce"));
  }
  *result = std::move(winner->res);
  *winner_worker = winner->worker.load(std::memory_order_relaxed);
  return Status::OK();
}

}  // namespace

RemoteRunner::RemoteRunner(Coordinator* coord, const DistJobOptions& options,
                           int dispatch_slots)
    : coord_(coord),
      options_(options),
      job_id_(options.job_id.empty() ? UniqueJobId("dist", options.job_name)
                                     : options.job_id),
      dispatch_slots_(dispatch_slots),
      spec_(std::make_unique<Speculation>()) {
  spec_->enabled = options.speculative_execution;
  spec_->slowness_factor = options.speculation_slowness_factor;
  spec_->force_after_nanos = options.speculation_force_after_nanos;
}

RemoteRunner::~RemoteRunner() = default;

void RemoteRunner::PublishStatus(const char* state) {
  JobStatusSnapshot s;
  s.job_id = job_id_;
  s.job_name = options_.job_name;
  s.state = state;
  s.maps_total = maps_total_;
  s.maps_done =
      std::min(maps_done_.load(std::memory_order_relaxed), s.maps_total);
  s.reduces_total = reduces_total_;
  s.reduces_done = reduces_done_.load(std::memory_order_relaxed);
  const uint64_t runs = map_runs_.load(std::memory_order_relaxed);
  s.map_reruns = runs > s.maps_total ? runs - s.maps_total : 0;
  coord_->PublishJobStatus(s);
  if (on_status) on_status(s);
}

Status RemoteRunner::Run(const JobPlan& plan, DistJobResult* result) {
  *result = DistJobResult();
  const uint64_t wall_start = NowNanos();
  ANTIMR_RETURN_NOT_OK(plan.Validate());
  for (const Stage& stage : plan.stages()) {
    if (stage.builder.empty()) {
      return Status::InvalidArgument("stage " + stage.name +
                                     " names no registered builder; only "
                                     "registered stages run remotely");
    }
    int maps = 0;
    for (const std::string& input : stage.inputs) {
      maps += plan.NumSplits(input);
    }
    placements_.emplace_back(static_cast<size_t>(maps));
    maps_total_ += static_cast<uint64_t>(maps);
    reduces_total_ += static_cast<uint64_t>(stage.spec.num_reduce_tasks);
  }
  plan_ = &plan;
  ANTIMR_TRACE_SPAN_DYN("engine", "dist:" + job_id_);
  // Workers capture and ship trace spans only when this run is tracing.
  trace_enabled_ = obs::kTraceCompiled && obs::TraceEnabled();
  PublishStatus("running");

  // Dispatchers only block on worker RPCs, so by default every task gets a
  // dispatch thread; a job admitted with a cpu-slot grant runs at exactly
  // that dispatch width.
  TaskPool dispatch(dispatch_slots_ > 0
                        ? dispatch_slots_
                        : static_cast<int>(std::min<uint64_t>(
                              maps_total_ + reduces_total_, 64)),
                    "dispatch");
  PlannerContext ctx;
  ctx.plan = &plan;
  ctx.runner = this;
  ctx.job_id = job_id_;
  ctx.pool = &dispatch;
  ctx.retry.max_attempts = std::max(1, options_.max_task_attempts);
  ctx.retry.backoff_nanos = options_.retry_backoff_nanos;
  ctx.collect_outputs = options_.collect_outputs;
  ctx.collect_task_metrics = true;
  PlanResult plan_result;
  const Status run_status = RunPlan(ctx, &plan_result);
  PublishStatus(run_status.ok() ? "done" : "failed");
  if (!run_status.ok()) return run_status;

  result->metrics = plan_result.metrics;
  for (const TaskMetrics& task : plan_result.stages.front().tasks) {
    if (task.is_map) continue;
    result->reduce_shuffle_bytes.push_back(task.metrics.shuffle_bytes);
    result->reduce_input_records.push_back(task.metrics.reduce_input_records);
  }
  auto out = plan_result.outputs.find(plan.stages().back().output);
  if (out != plan_result.outputs.end()) result->outputs = std::move(out->second);
  const uint64_t runs = map_runs_.load(std::memory_order_relaxed);
  result->map_reruns = runs > maps_total_ ? runs - maps_total_ : 0;
  result->spec_backups = spec_->backups.load(std::memory_order_relaxed);
  result->spec_backup_wins =
      spec_->backup_wins.load(std::memory_order_relaxed);
  result->spec_cancels = spec_->cancels.load(std::memory_order_relaxed);
  result->metrics.wall_nanos = NowNanos() - wall_start;
  return Status::OK();
}

// Pick a worker (job-aware), run the Call, and maintain the job's in-flight
// map plus its speculation baseline around it.
Status RemoteRunner::PlaceAndCall(uint32_t exclude, net::TaskAssignMsg assign,
                                  std::atomic<uint64_t>* rpc_id,
                                  std::atomic<uint32_t>* worker,
                                  net::TaskResultMsg* res) {
  const net::TaskKind kind = assign.kind;
  uint32_t worker_id = 0;
  {
    std::lock_guard<std::mutex> lock(job_load_mu_);
    ANTIMR_RETURN_NOT_OK(coord_->PickWorker(&worker_id, exclude, &job_load_));
    ++job_load_[worker_id];
  }
  worker->store(worker_id, std::memory_order_relaxed);
  const uint64_t t0 = NowNanos();
  const Status st = coord_->Call(worker_id, std::move(assign), res, rpc_id);
  {
    std::lock_guard<std::mutex> lock(job_load_mu_);
    if (--job_load_[worker_id] <= 0) job_load_.erase(worker_id);
  }
  if (st.ok() && res->status_code == 0) {
    spec_->Record(kind, NowNanos() - t0);
  }
  return st;
}

// Under speculation the placement recorded is the first of up to two racing
// attempts to finish. Each attempt draws a fresh attempt-scoped job_id: a
// re-execution can land on a worker that already holds a previous attempt's
// files, and unique names keep stale segments from masking fresh ones.
Status RemoteRunner::RunMapOnce(StageExec* st, size_t m) {
  Placement& loc = placements_[static_cast<size_t>(st->stage_index)][m];
  const MapInput& input = st->map_inputs[m];
  if (loc.split == nullptr) {
    // Encode the input once, on the first attempt; retries, heals and
    // backups resend the same bytes — even after the catalog released an
    // intermediate partition.
    auto pre = encoded_inputs.find(*input.dataset);
    if (input.dep < 0 && pre != encoded_inputs.end()) {
      loc.split = &(*pre->second)[static_cast<size_t>(input.index)];
    } else {
      EncodeSplit(input.split, &loc.owned_split);
      loc.split = &loc.owned_split;
    }
  }
  const Stage& stage = plan_->stages()[static_cast<size_t>(st->stage_index)];
  auto start_attempt = [&](uint32_t exclude, std::atomic<uint64_t>* rpc_id,
                           std::atomic<uint32_t>* worker,
                           net::TaskResultMsg* res) -> Status {
    net::TaskAssignMsg assign;
    assign.kind = net::TaskKind::kMap;
    assign.job_name = stage.builder;
    assign.params = stage.params;
    const uint32_t attempt =
        loc.attempts.fetch_add(1, std::memory_order_relaxed);
    assign.job_id = st->job_id + "_a" + std::to_string(attempt);
    assign.task_index = static_cast<uint32_t>(m);
    assign.attempt = attempt;
    assign.trace_enabled = trace_enabled_;
    assign.split_records = *loc.split;
    return PlaceAndCall(exclude, std::move(assign), rpc_id, worker, res);
  };
  net::TaskResultMsg res;
  uint32_t winner_worker = 0;
  ANTIMR_RETURN_NOT_OK(RunWithSpeculation(coord_, spec_.get(),
                                          net::TaskKind::kMap, start_attempt,
                                          &res, &winner_worker));
  ANTIMR_RETURN_NOT_OK(
      net::DecodeJobMetrics(res.metrics, &st->map_results[m].metrics));
  loc.worker = winner_worker;
  st->map_results[m].segment_files = std::move(res.segment_files);
  st->map_cpu[m] = res.cpu_nanos;
  map_runs_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status RemoteRunner::Map(StageExec* st, size_t m, int) {
  if (aborted()) return Status::Internal("job aborted");
  {
    std::lock_guard<std::mutex> lock(
        placements_[static_cast<size_t>(st->stage_index)][m].mu);
    ANTIMR_RETURN_NOT_OK(RunMapOnce(st, m));
  }
  maps_done_.fetch_add(1, std::memory_order_relaxed);
  PublishStatus("running");
  return Status::OK();
}

Status RemoteRunner::Reduce(StageExec* st, size_t p, int attempt) {
  if (aborted()) return Status::Internal("job aborted");
  std::deque<Placement>& placements =
      placements_[static_cast<size_t>(st->stage_index)];
  // Heal before placing: any map whose owning worker died lost its
  // segments, so re-run it first. The per-map mutex lets concurrent reduce
  // attempts heal disjoint maps in parallel while never double-running one.
  for (size_t m = 0; m < st->map_inputs.size(); ++m) {
    if (aborted()) return Status::Internal("job aborted");
    std::lock_guard<std::mutex> lock(placements[m].mu);
    if (!coord_->WorkerAlive(placements[m].worker)) {
      ANTIMR_RETURN_NOT_OK(RunMapOnce(st, m));
    }
  }
  const Stage& stage = plan_->stages()[static_cast<size_t>(st->stage_index)];
  net::TaskAssignMsg base;
  base.kind = net::TaskKind::kReduce;
  base.job_name = stage.builder;
  base.params = stage.params;
  base.job_id = st->job_id;
  base.task_index = static_cast<uint32_t>(p);
  base.attempt = static_cast<uint32_t>(attempt);
  base.trace_enabled = trace_enabled_;
  base.collect_output = st->publish_output;
  base.network_mb_per_s = options_.network_mb_per_s;
  // Segment list in (map index, run) order: merge order is part of the
  // output contract, identical to the local runner's.
  for (size_t m = 0; m < st->map_inputs.size(); ++m) {
    std::lock_guard<std::mutex> lock(placements[m].mu);
    for (const std::string& file : st->map_results[m].segment_files[p]) {
      base.segments.push_back(
          {coord_->WorkerShuffleAddr(placements[m].worker), file});
    }
  }
  auto start_attempt = [&](uint32_t exclude, std::atomic<uint64_t>* rpc_id,
                           std::atomic<uint32_t>* worker,
                           net::TaskResultMsg* res) -> Status {
    return PlaceAndCall(exclude, net::TaskAssignMsg(base), rpc_id, worker,
                        res);
  };
  net::TaskResultMsg res;
  uint32_t winner_worker = 0;
  ANTIMR_RETURN_NOT_OK(RunWithSpeculation(coord_, spec_.get(),
                                          net::TaskKind::kReduce,
                                          start_attempt, &res,
                                          &winner_worker));
  ReduceTaskResult& out = st->reduce_results[p];
  ANTIMR_RETURN_NOT_OK(net::DecodeKVList(res.output_records, &out.output));
  ANTIMR_RETURN_NOT_OK(net::DecodeJobMetrics(res.metrics, &out.metrics));
  st->reduce_cpu[p] = res.cpu_nanos;
  reduces_done_.fetch_add(1, std::memory_order_relaxed);
  PublishStatus("running");
  return Status::OK();
}

void RemoteRunner::Cleanup(StageExec* st) {
  // Every attempt of the stage is terminal (speculation losers are awaited
  // before their race returns), so the scope scrub catches every file.
  coord_->BroadcastJobFrame(net::kScrubJob, st->job_id);
  for (Placement& loc : placements_[static_cast<size_t>(st->stage_index)]) {
    std::lock_guard<std::mutex> lock(loc.mu);
    std::string().swap(loc.owned_split);
  }
}

}  // namespace engine
}  // namespace antimr
