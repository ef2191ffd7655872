#include "engine/worker.h"

#include <algorithm>
#include <chrono>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "engine/job_registry.h"
#include "mr/map_task.h"
#include "mr/reduce_task.h"
#include "net/frame.h"
#include "obs/federation.h"
#include "obs/trace.h"

namespace antimr {
namespace engine {

bool JobIdInScope(const std::string& id, const std::string& scope) {
  if (scope.empty()) return false;
  if (id.size() < scope.size() || id.compare(0, scope.size(), scope) != 0) {
    return false;
  }
  if (id.size() == scope.size()) return true;
  // Only the two delimiters the engine itself appends extend a scope:
  // "<scope>/" (stored files) and "<scope>_a" (attempt-scoped map ids).
  return id[scope.size()] == '/' ||
         id.compare(scope.size(), 2, "_a") == 0;
}

Worker::Worker(net::Transport* transport, const WorkerOptions& options)
    : transport_(transport),
      options_(options),
      owned_env_(options.env == nullptr ? NewMemEnv() : nullptr),
      env_(options.env != nullptr ? options.env : owned_env_.get()),
      shuffle_server_(transport, env_),
      pool_(std::max(1, options.slots), options.name) {
  shuffle_server_.set_trace_sink([this](std::string&& chunk) {
    std::lock_guard<std::mutex> lock(trace_mu_);
    pending_trace_.append(chunk);
  });
}

Worker::~Worker() { Stop(); }

Status Worker::Start(const std::string& coordinator_addr,
                     const std::string& shuffle_addr) {
  ANTIMR_RETURN_NOT_OK(shuffle_server_.Start(shuffle_addr));
  ANTIMR_RETURN_NOT_OK(transport_->Dial(coordinator_addr, &conn_));

  net::RegisterMsg reg;
  reg.worker_name = options_.name;
  reg.shuffle_addr = shuffle_server_.addr();
  reg.slots = static_cast<uint32_t>(std::max(1, options_.slots));
  std::string payload;
  net::EncodeRegister(reg, &payload);
  ANTIMR_RETURN_NOT_OK(net::WriteFrame(conn_.get(), net::kRegister, payload));

  uint8_t type = 0;
  ANTIMR_RETURN_NOT_OK(net::ReadFrame(conn_.get(), &type, &payload));
  if (type != net::kRegisterAck) {
    return Status::IOError("expected RegisterAck, got frame type " +
                           std::to_string(type));
  }
  net::RegisterAckMsg ack;
  ANTIMR_RETURN_NOT_OK(net::DecodeRegisterAck(payload, &ack));
  id_ = ack.worker_id;
  ANTIMR_LOG(kInfo) << "worker " << options_.name << " registered as " << id_
                    << ", shuffle at " << shuffle_server_.addr();

  receiver_ = std::thread([this] { ReceiveLoop(); });
  heartbeat_ = std::thread([this] { HeartbeatLoop(); });
  return Status::OK();
}

void Worker::ReceiveLoop() {
  for (;;) {
    uint8_t type = 0;
    std::string payload;
    if (!net::ReadFrame(conn_.get(), &type, &payload).ok()) break;
    if (type == net::kTaskAssign) {
      auto assign = std::make_shared<net::TaskAssignMsg>();
      if (!net::DecodeTaskAssign(payload, assign.get()).ok()) break;
      inflight_tasks_.fetch_add(1, std::memory_order_relaxed);
      pool_.Submit([this, assign] {
        Execute(*assign);
        // Notify while holding mu_: Stop's drain-wait may be the last thing
        // keeping this Worker alive, and it can only re-check its predicate
        // once we release the lock — i.e. after notify_all has returned, so
        // cv_ is never destroyed under a thread still inside it.
        std::lock_guard<std::mutex> lock(mu_);
        inflight_tasks_.fetch_sub(1, std::memory_order_relaxed);
        cv_.notify_all();
      });
    } else if (type == net::kCancelTask) {
      net::CancelTaskMsg cancel;
      if (!net::DecodeCancelTask(payload, &cancel).ok()) break;
      std::lock_guard<std::mutex> lock(tasks_mu_);
      auto it = running_tasks_.find(cancel.rpc_id);
      // Unknown rpc_id: the task already finished (its result is in flight)
      // or never started here — either way there is nothing to cancel.
      if (it != running_tasks_.end()) it->second.control->RequestCancel();
    } else if (type == net::kCancelJob) {
      net::JobIdMsg msg;
      if (!net::DecodeJobId(payload, &msg).ok()) break;
      CancelJobTasks(msg.job_id);
    } else if (type == net::kScrubJob) {
      net::JobIdMsg msg;
      if (!net::DecodeJobId(payload, &msg).ok()) break;
      ScrubJobFiles(msg.job_id);
    } else if (type == net::kShutdown) {
      if (options_.exclusive_process && obs::kTraceCompiled &&
          obs::TraceEnabled()) {
        // Last chance to ship spans not drained at a task boundary
        // (handler-thread leftovers, heartbeat-side instants). DrainAll is
        // safe here only because an exclusive worker has no co-resident
        // tracer users mid-span.
        net::TraceChunkMsg msg;
        msg.worker_id = id_;
        obs::Tracer::Global().DrainAll(&msg.chunk);
        {
          std::lock_guard<std::mutex> lock(trace_mu_);
          msg.chunk.append(pending_trace_);
          pending_trace_.clear();
        }
        if (!msg.chunk.empty()) {
          std::string out;
          net::EncodeTraceChunk(msg, &out);
          std::lock_guard<std::mutex> lock(write_mu_);
          net::WriteFrame(conn_.get(), net::kTraceChunk, out);  // best effort
        }
      }
      break;
    }
    // Other frame types are ignored (forward compatibility).
  }
  // Close our end so the coordinator's receiver sees a prompt, clean EOF
  // (its Stop waits briefly for exactly that before cutting conns itself).
  if (conn_ != nullptr) conn_->Close();
  {
    std::lock_guard<std::mutex> lock(mu_);
    done_ = true;
  }
  cv_.notify_all();
}

void Worker::CancelJobTasks(const std::string& scope) {
  std::lock_guard<std::mutex> lock(tasks_mu_);
  for (auto& [rpc_id, task] : running_tasks_) {
    if (JobIdInScope(task.job_id, scope)) task.control->RequestCancel();
  }
}

void Worker::ScrubJobFiles(const std::string& scope) {
  std::vector<std::string> names;
  if (!env_->ListFiles(&names).ok()) return;
  int deleted = 0;
  for (const std::string& name : names) {
    if (JobIdInScope(name, scope)) {
      if (env_->DeleteFile(name).ok()) ++deleted;
    }
  }
  if (deleted > 0) {
    ANTIMR_LOG(kInfo) << "worker " << options_.name << " scrubbed " << deleted
                      << " files of job " << scope;
  }
}

void Worker::HeartbeatLoop() {
  uint64_t seq = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (cv_.wait_for(
              lock, std::chrono::nanoseconds(options_.heartbeat_period_nanos),
              [this] { return done_ || stopped_ || crashed(); })) {
        return;
      }
    }
    net::HeartbeatMsg hb;
    hb.worker_id = id_;
    hb.seq = ++seq;
    {
      // Per-task progress rides on every beat; the coordinator's speculation
      // pass uses it to spare nearly-done stragglers a backup attempt.
      std::lock_guard<std::mutex> lock(tasks_mu_);
      for (const auto& entry : running_tasks_) {
        net::TaskProgress p;
        p.rpc_id = entry.first;
        p.permille = entry.second.control->progress_permille.load(
            std::memory_order_relaxed);
        hb.task_progress.push_back(p);
      }
    }
    // Every beat carries the registry's full absolute state — the
    // federation protocol's idempotency comes from exactly this.
    obs::MetricsSnapshot snap;
    obs::SnapshotRegistry(obs::MetricsRegistry::Global(), obs::ProcessUid(),
                          &snap);
    obs::EncodeMetricsSnapshot(snap, &hb.metrics_snapshot);
    std::string payload;
    net::EncodeHeartbeat(hb, &payload);
    std::lock_guard<std::mutex> lock(write_mu_);
    // Errors are ignored: a dead conn also wakes the receiver, which owns
    // the shutdown transition.
    net::WriteFrame(conn_.get(), net::kHeartbeat, payload);
  }
}

void Worker::Execute(const net::TaskAssignMsg& assign) {
  net::TaskResultMsg result;
  result.rpc_id = assign.rpc_id;
  // The coordinator's trace session extends to us through the assignment:
  // start capturing on first sight (idempotent), so exclusive worker
  // processes need no out-of-band tracing switch.
  if (obs::kTraceCompiled && assign.trace_enabled && !obs::TraceEnabled()) {
    obs::Tracer::Global().Start();
  }
  auto control = std::make_shared<TaskControl>();
  if (assign.rpc_id != 0) {
    std::lock_guard<std::mutex> lock(tasks_mu_);
    running_tasks_[assign.rpc_id] = RunningTask{control, assign.job_id};
  }
  const Status st = ExecuteTask(assign, control.get(), &result);
  if (assign.rpc_id != 0) {
    std::lock_guard<std::mutex> lock(tasks_mu_);
    running_tasks_.erase(assign.rpc_id);
  }
  if (!st.ok()) {
    result.status_code = static_cast<int32_t>(st.code());
    result.status_msg = st.message();
  }
  if (obs::kTraceCompiled && assign.trace_enabled && obs::TraceEnabled()) {
    // Task boundary: no span is open on this pool thread, so the chunk is
    // balanced. Handler-thread chunks parked by the shuffle sink ride along.
    obs::Tracer::Global().DrainThisThread(&result.trace_chunk);
    std::lock_guard<std::mutex> lock(trace_mu_);
    if (!pending_trace_.empty()) {
      result.trace_chunk.append(pending_trace_);
      pending_trace_.clear();
    }
  }
  // A crashed worker is a dead process: it reports nothing, and the
  // coordinator learns of the loss from the closed conn / silent heartbeats.
  if (crashed()) return;
  std::string payload;
  net::EncodeTaskResult(result, &payload);
  std::lock_guard<std::mutex> lock(write_mu_);
  net::WriteFrame(conn_.get(), net::kTaskResult, payload);  // best effort
}

Status Worker::ExecuteTask(const net::TaskAssignMsg& assign,
                           TaskControl* control, net::TaskResultMsg* result) {
  JobSpec spec;
  ANTIMR_RETURN_NOT_OK(
      BuildRegisteredJob(assign.job_name, assign.params, &spec));
  const int index = static_cast<int>(assign.task_index);
  const uint64_t cpu_start = ThreadCpuNanos();

  const bool is_map = assign.kind == net::TaskKind::kMap;
  ANTIMR_TRACE_SPAN_DYN("task", (is_map ? "dist_map:" : "dist_reduce:") +
                                    assign.job_id + ":" +
                                    std::to_string(index) + "#a" +
                                    std::to_string(assign.attempt));
  if (obs::kTraceCompiled && obs::TraceEnabled() && assign.rpc_id != 0) {
    // Arrow head of the coordinator's dispatch FlowStart (id = rpc_id),
    // recorded inside the task span so viewers can anchor it.
    obs::Tracer::Global().FlowEnd("dispatch", "task_dispatch", assign.rpc_id);
  }
  const auto& on_start = is_map ? on_map_start : on_reduce_start;
  if (on_start) on_start(index, assign.attempt);
  if (crashed()) return Status::IOError("worker crashed");

  if (is_map) {
    std::vector<KV> records;
    ANTIMR_RETURN_NOT_OK(net::DecodeKVList(assign.split_records, &records));
    const uint64_t total_records = records.size();
    MapTaskResult map_result;
    ANTIMR_RETURN_NOT_OK(RunMapTask(spec, assign.job_id, index,
                                    MakeSplit(std::move(records)), env_,
                                    &map_result, control, total_records));
    result->segment_files = std::move(map_result.segment_files);
    net::EncodeJobMetrics(map_result.metrics, &result->metrics);
  } else {
    // A per-task client still pools conns across this task's segments; the
    // simulated bandwidth rides in on the assignment so all workers throttle
    // identically without per-worker configuration.
    net::ShuffleClient shuffle(transport_, assign.network_mb_per_s);
    shuffle.set_trace_origin("reduce:" + assign.job_id + ":" +
                             std::to_string(index));
    ReduceTaskInputs inputs;
    inputs.remote.assign(assign.segments.begin(), assign.segments.end());
    inputs.shuffle = &shuffle;
    inputs.control = control;
    ReduceTaskResult reduce_result;
    ANTIMR_RETURN_NOT_OK(RunReduceTask(spec, index, inputs, env_,
                                       assign.collect_output,
                                       &reduce_result));
    net::EncodeKVList(reduce_result.output, &result->output_records);
    net::EncodeJobMetrics(reduce_result.metrics, &result->metrics);
  }
  result->cpu_nanos = ThreadCpuNanos() - cpu_start;
  return Status::OK();
}

void Worker::WaitDone() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return done_ || stopped_; });
}

void Worker::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return;
    stopped_ = true;
  }
  cv_.notify_all();
  if (conn_ != nullptr) conn_->Close();
  shuffle_server_.Stop();
  if (receiver_.joinable()) receiver_.join();
  if (heartbeat_.joinable()) heartbeat_.join();
  // Drain in-flight tasks before members they use (conn_, env_) can be
  // destroyed; the closed conn and shuffle server guarantee they terminate.
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] {
      return inflight_tasks_.load(std::memory_order_relaxed) == 0;
    });
  }
}

void Worker::Crash() {
  crashed_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(mu_);
    done_ = true;
    cv_.notify_all();  // under mu_, as in the task lambda (see ReceiveLoop)
  }
  if (conn_ != nullptr) conn_->Close();
  shuffle_server_.Stop();
  ANTIMR_LOG(kWarn) << "worker " << options_.name << " (" << id_
                    << ") simulated crash";
}

}  // namespace engine
}  // namespace antimr
