// JobService implementation. Each admitted job runs as a one-stage JobPlan
// on its own RemoteRunner (engine/remote_runner.h), which brings the
// multi-tenancy the service needs: per-job placement accounting
// (PickWorker's job_inflight map), a per-job speculation baseline (a slow
// tenant must not poison another tenant's straggler threshold), and an
// abort flag checked at every task-body entry so Abort unwinds the
// TaskGraph with a permanent status instead of burning the retry budget.
// RunDistributedJob survives as a submit-and-wait shim over an ephemeral
// single-pool service, so every job — one-shot or daemon-submitted — takes
// the same admission/queue/dispatch path.
#include "engine/job_service.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <utility>

#include "common/hash.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "engine/job_plan.h"
#include "engine/remote_runner.h"
#include "net/frame.h"

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

namespace {

bool IsTerminalState(const std::string& state) {
  return state == "succeeded" || state == "failed" || state == "aborted";
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
  JobStatusSnapshot progress;  ///< the runner's latest report
  Status final_status;
  uint64_t output_hash = 0;
  uint64_t output_records = 0;
  DistJobResult result;
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

Status JobService::Submit(JobSubmission sub, std::string* job_id) {
  std::lock_guard<std::mutex> lock(mu_);
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
  std::string id = sub.job_id.empty() ? UniqueJobId("dist", sub.job_name) : sub.job_id;
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
  opts.collect_outputs = job->sub.collect_outputs;
  opts.max_task_attempts = job->sub.max_task_attempts > 0
                               ? job->sub.max_task_attempts
                               : options_.default_max_task_attempts;
  opts.retry_backoff_nanos = job->sub.retry_backoff_nanos > 0
                                 ? job->sub.retry_backoff_nanos
                                 : options_.default_retry_backoff_nanos;
  opts.network_mb_per_s = job->sub.network_mb_per_s;
  opts.job_id = job->id;
  opts.speculative_execution = job->sub.speculation < 0
                                   ? options_.speculative_execution
                                   : job->sub.speculation != 0;
  opts.speculation_slowness_factor = options_.speculation_slowness_factor;
  opts.speculation_force_after_nanos = job->sub.speculation_force_after_nanos;

  {
    std::lock_guard<std::mutex> lock(mu_);
    job->state = "running";
    job->start_nanos = NowNanos();
  }

  // The submission as a one-stage plan over its encoded splits. The runner
  // ships those bytes as they are; the splits decode them only if opened.
  JobPlan plan;
  plan.name = job->sub.job_name;
  std::vector<InputSplit> splits;
  for (const std::string& bytes : job->sub.encoded_splits) {
    splits.push_back({[&bytes]() -> std::unique_ptr<RecordSource> {
      auto records = std::make_shared<std::vector<KV>>();
      net::DecodeKVList(bytes, records.get());
      return std::make_unique<VectorSource>(std::move(records));
    }});
  }
  Stage stage;
  stage.inputs = {"in"};
  stage.output = "out";
  Status st = MakeRegisteredStage(job->sub.job_name, job->sub.params, &stage);
  DistJobResult result;
  if (st.ok()) st = plan.AddInput("in", std::move(splits));
  if (st.ok()) {
    plan.AddStage(std::move(stage));
    RemoteRunner runner(coord_, opts, job->granted_slots);
    runner.abort = &job->abort_requested;
    runner.on_status = [this, job](const JobStatusSnapshot& s) {
      std::lock_guard<std::mutex> lock(mu_);
      job->progress = s;
    };
    runner.encoded_inputs["in"] = &job->sub.encoded_splits;
    st = runner.Run(plan, &result);
  }
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
    // Admitted or running: flip the flag the runner checks at every task
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
  row.maps_total = job.progress.maps_total;
  row.maps_done = job.progress.maps_done;
  row.reduces_total = job.progress.reduces_total;
  row.reduces_done = job.progress.reduces_done;
  row.map_reruns = job.progress.map_reruns;
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
  JobService service(coord, sopts);

  JobSubmission sub;
  sub.job_name = options.job_name;
  sub.params = options.params;
  sub.job_id = options.job_id;
  sub.collect_outputs = options.collect_outputs;
  sub.max_task_attempts = options.max_task_attempts;
  sub.retry_backoff_nanos = options.retry_backoff_nanos;
  sub.network_mb_per_s = options.network_mb_per_s;
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
