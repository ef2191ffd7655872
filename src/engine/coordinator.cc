#include "engine/coordinator.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/json.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "net/frame.h"
#include "obs/trace.h"

namespace antimr {
namespace engine {

namespace {
/// Once WaitForWorkers first sees its quorum, it re-checks liveness after
/// this settle window, so a worker that registered and immediately died
/// (connection reset before its first heartbeat) regresses the count
/// instead of being handed out as capacity.
constexpr uint64_t kQuorumSettleNanos = 20ull * 1000 * 1000;
}  // namespace

Coordinator::Coordinator(net::Transport* transport,
                         const CoordinatorOptions& options)
    : transport_(transport),
      options_(options),
      workers_live_gauge_(obs::MetricsRegistry::Global().GetGauge(
          "antimr_coord_workers_live", "registered workers currently alive")),
      tasks_assigned_counter_(obs::MetricsRegistry::Global().GetCounter(
          "antimr_coord_tasks_assigned_total", "task RPCs sent to workers")),
      workers_lost_counter_(obs::MetricsRegistry::Global().GetCounter(
          "antimr_coord_workers_lost_total",
          "workers declared dead (conn error or heartbeat timeout)")),
      rpc_latency_hist_(obs::MetricsRegistry::Global().GetHistogram(
          "antimr_coord_rpc_latency_nanos",
          "task RPC round-trip latency (dispatch to result)")) {
  trace_merger_.SetProcessName(1, "coord");
}

Coordinator::~Coordinator() { Stop(); }

Status Coordinator::Start(const std::string& addr) {
  ANTIMR_RETURN_NOT_OK(transport_->Listen(addr, &listener_));
  addr_ = listener_->addr();
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  monitor_thread_ = std::thread([this] { MonitorLoop(); });
  ANTIMR_LOG(kInfo) << "coordinator listening on " << addr_;
  return Status::OK();
}

void Coordinator::AcceptLoop() {
  for (;;) {
    std::unique_ptr<net::Conn> conn;
    if (!transport_ || !listener_->Accept(&conn).ok()) return;

    // Handshake inline: workers send Register immediately after dialing, so
    // the accept loop stalls only for the one frame round-trip.
    uint8_t type = 0;
    std::string payload;
    net::RegisterMsg reg;
    if (!net::ReadFrame(conn.get(), &type, &payload).ok() ||
        type != net::kRegister ||
        !net::DecodeRegister(payload, &reg).ok()) {
      continue;  // not a worker; drop the conn
    }

    auto worker = std::make_unique<WorkerState>();
    WorkerState* w = worker.get();
    w->name = reg.worker_name;
    w->shuffle_addr = reg.shuffle_addr;
    w->slots = std::max(1u, reg.slots);
    w->conn = std::move(conn);
    w->alive = true;
    w->last_activity_nanos = NowNanos();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) return;
      w->id = next_worker_id_++;
      workers_[w->id] = std::move(worker);
    }
    workers_live_gauge_->Add(1);

    net::RegisterAckMsg ack;
    ack.worker_id = w->id;
    std::string ack_payload;
    net::EncodeRegisterAck(ack, &ack_payload);
    Status st;
    {
      std::lock_guard<std::mutex> lock(w->write_mu);
      st = net::WriteFrame(w->conn.get(), net::kRegisterAck, ack_payload);
    }
    if (!st.ok()) {
      MarkDead(w, "register ack failed: " + st.message());
      continue;
    }
    ANTIMR_LOG(kInfo) << "worker " << w->id << " (" << w->name
                      << ") registered, shuffle at " << w->shuffle_addr;
    // pid lane for the merged cluster trace: coordinator is 1, workers 1+id.
    trace_merger_.SetProcessName(1 + static_cast<int>(w->id),
                                 "worker:" + w->name);
    w->receiver = std::thread([this, w] { ReceiveLoop(w); });
    cv_.notify_all();
  }
}

void Coordinator::ReceiveLoop(WorkerState* worker) {
  for (;;) {
    uint8_t type = 0;
    std::string payload;
    const Status st = net::ReadFrame(worker->conn.get(), &type, &payload);
    if (!st.ok()) {
      MarkDead(worker, st.message());
      return;
    }
    if (type == net::kHeartbeat) {
      net::HeartbeatMsg hb;
      if (net::DecodeHeartbeat(payload, &hb).ok()) {
        {
          std::lock_guard<std::mutex> lock(mu_);
          worker->last_activity_nanos = NowNanos();
          // Straggler signal: progress of this worker's in-flight rpcs.
          // Gated on pending_ so completed rpcs cannot re-insert entries.
          for (const net::TaskProgress& p : hb.task_progress) {
            if (pending_.count(p.rpc_id) > 0) {
              rpc_progress_[p.rpc_id] = p.permille;
            }
          }
        }
        // Federate the worker's registry snapshot. Absolute cumulative
        // values make the fold idempotent under retransmits, so no seq
        // tracking is needed here.
        if (!hb.metrics_snapshot.empty()) {
          obs::MetricsSnapshot snap;
          if (obs::DecodeMetricsSnapshot(hb.metrics_snapshot, &snap).ok()) {
            cluster_metrics_.Fold(worker->id, snap);
          }
        }
      }
    } else if (type == net::kTaskResult) {
      net::TaskResultMsg result;
      if (!net::DecodeTaskResult(payload, &result).ok()) {
        MarkDead(worker, "undecodable task result");
        return;
      }
      if (!result.trace_chunk.empty()) {
        MergeTraceChunk(worker->id, result.trace_chunk);
        result.trace_chunk.clear();  // callers only see task payloads
      }
      std::lock_guard<std::mutex> lock(mu_);
      worker->last_activity_nanos = NowNanos();
      auto it = pending_.find(result.rpc_id);
      if (it != pending_.end()) {
        PendingCall* call = it->second;
        *call->result = std::move(result);
        call->status = Status::OK();
        call->done = true;
        pending_.erase(it);
        cv_.notify_all();
      }
    } else if (type == net::kTraceChunk) {
      // Residual spans an exclusive worker process flushes on Shutdown
      // (handler threads, anything not drained at a task boundary).
      net::TraceChunkMsg msg;
      if (net::DecodeTraceChunk(payload, &msg).ok() && !msg.chunk.empty()) {
        MergeTraceChunk(worker->id, msg.chunk);
      }
      std::lock_guard<std::mutex> lock(mu_);
      worker->last_activity_nanos = NowNanos();
    }
    // Unknown frame types are skipped (forward compatibility).
  }
}

void Coordinator::MergeTraceChunk(uint32_t worker_id,
                                  const std::string& chunk) {
  const Status st =
      trace_merger_.AddChunk(1 + static_cast<int>(worker_id), chunk);
  if (!st.ok()) {
    ANTIMR_LOG(kWarn) << "dropping trace chunk from worker " << worker_id
                      << ": " << st.ToString();
  }
}

void Coordinator::MonitorLoop() {
  for (;;) {
    std::vector<WorkerState*> lost;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait_for(lock,
                   std::chrono::nanoseconds(options_.monitor_period_nanos),
                   [this] { return stopping_; });
      if (stopping_) return;
      const uint64_t now = NowNanos();
      for (auto& [id, worker] : workers_) {
        if (worker->alive &&
            now - worker->last_activity_nanos >
                options_.heartbeat_timeout_nanos) {
          lost.push_back(worker.get());
        }
      }
    }
    for (WorkerState* w : lost) MarkDead(w, "heartbeat timeout");
  }
}

void Coordinator::MarkDead(WorkerState* worker, const std::string& why) {
  bool shutting_down;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!worker->alive) return;
    shutting_down = stopping_;
    worker->alive = false;
    // Update the metrics under mu_ so anyone observing live_workers() == 0
    // (which also takes mu_) already sees the loss counted.
    workers_live_gauge_->Sub(1);
    // A conn closed by our own Stop is a clean goodbye, not a lost worker.
    if (!shutting_down) workers_lost_counter_->Inc();
    // Fail every Call waiting on this worker with the transient class, so
    // the TaskGraph retry layer re-places the task like any flaky failure.
    for (auto it = pending_.begin(); it != pending_.end();) {
      if (it->second->worker_id == worker->id) {
        it->second->status = Status::IOError(
            "worker " + std::to_string(worker->id) + " lost (" + why + ")");
        it->second->done = true;
        it = pending_.erase(it);
      } else {
        ++it;
      }
    }
  }
  // Retain the worker's last snapshot in the federation (its work happened)
  // but zero its gauges once no live worker backs them.
  cluster_metrics_.MarkWorkerDead(worker->id);
  worker->conn->Close();
  if (!shutting_down) {
    ANTIMR_LOG(kWarn) << "worker " << worker->id << " lost: " << why;
  }
  cv_.notify_all();
}

bool Coordinator::WaitForWorkers(int n, uint64_t timeout_nanos) {
  const uint64_t deadline = NowNanos() + timeout_nanos;
  std::unique_lock<std::mutex> lock(mu_);
  auto live_count = [this] {
    int live = 0;
    for (const auto& [id, worker] : workers_) live += worker->alive ? 1 : 0;
    return live;
  };
  for (;;) {
    uint64_t now = NowNanos();
    if (live_count() >= n) {
      // Quorum seen — but a worker that registered and died in the same
      // instant stays marked alive until its receiver observes the dead
      // connection. Hold for the settle window, waking on worker-state
      // changes, and only report success if the quorum survived it.
      const uint64_t settle_deadline = now + kQuorumSettleNanos;
      while ((now = NowNanos()) < settle_deadline && live_count() >= n) {
        cv_.wait_for(lock, std::chrono::nanoseconds(settle_deadline - now));
      }
      if (live_count() >= n) return true;
      if (NowNanos() >= deadline) return false;  // quorum regressed
      continue;  // keep waiting for a real quorum
    }
    if (now >= deadline) return false;
    cv_.wait_for(lock, std::chrono::nanoseconds(deadline - now));
  }
}

int Coordinator::live_workers() const {
  std::lock_guard<std::mutex> lock(mu_);
  int live = 0;
  for (const auto& [id, worker] : workers_) live += worker->alive ? 1 : 0;
  return live;
}

Status Coordinator::PickWorker(uint32_t* worker_id, uint32_t exclude_worker,
                               const std::map<uint32_t, int>* job_inflight) {
  std::lock_guard<std::mutex> lock(mu_);
  const WorkerState* best = nullptr;
  int best_job_load = 0;
  auto job_load_of = [job_inflight](uint32_t id) {
    if (job_inflight == nullptr) return 0;
    auto it = job_inflight->find(id);
    return it == job_inflight->end() ? 0 : it->second;
  };
  for (const auto& [id, worker] : workers_) {
    if (!worker->alive || id == exclude_worker) continue;
    const int job_load = job_load_of(id);
    // Least inflight-per-slot keeps a big worker busier than a small one.
    // With a per-job load map the job's own per-slot load dominates and the
    // global count only breaks ties — placement stays spread per tenant
    // even when another job has one worker saturated.
    if (best == nullptr ||
        job_load * best->slots < best_job_load * worker->slots ||
        (job_load * best->slots == best_job_load * worker->slots &&
         worker->inflight * best->slots < best->inflight * worker->slots)) {
      best = worker.get();
      best_job_load = job_load;
    }
  }
  if (best == nullptr) {
    return Status::ResourceExhausted("no live workers");
  }
  *worker_id = best->id;
  return Status::OK();
}

bool Coordinator::WorkerAlive(uint32_t worker_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = workers_.find(worker_id);
  return it != workers_.end() && it->second->alive;
}

std::string Coordinator::WorkerShuffleAddr(uint32_t worker_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = workers_.find(worker_id);
  return it == workers_.end() ? std::string() : it->second->shuffle_addr;
}

Status Coordinator::Call(uint32_t worker_id, net::TaskAssignMsg assign,
                         net::TaskResultMsg* result,
                         std::atomic<uint64_t>* rpc_id_out) {
  ANTIMR_TRACE_SPAN_DYN(
      "rpc", std::string(assign.kind == net::TaskKind::kMap ? "map" : "reduce") +
                 ":" + assign.job_id + ":" +
                 std::to_string(assign.task_index) + "@w" +
                 std::to_string(worker_id));
  const uint64_t call_start = NowNanos();
  assign.rpc_id = next_rpc_id_.fetch_add(1, std::memory_order_relaxed);
  // Published before the frame goes out so a speculation monitor can cancel
  // this call while it is still in flight.
  if (rpc_id_out != nullptr) {
    rpc_id_out->store(assign.rpc_id, std::memory_order_release);
  }

  PendingCall call;
  call.worker_id = worker_id;
  call.result = result;
  WorkerState* worker = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = workers_.find(worker_id);
    if (it == workers_.end()) {
      return Status::InvalidArgument("unknown worker " +
                                     std::to_string(worker_id));
    }
    if (!it->second->alive) {
      return Status::IOError("worker " + std::to_string(worker_id) +
                             " lost (already dead)");
    }
    worker = it->second.get();
    worker->inflight++;
    pending_[assign.rpc_id] = &call;
  }

  std::string payload;
  net::EncodeTaskAssign(assign, &payload);
  if (obs::kTraceCompiled && obs::TraceEnabled()) {
    // Flow arrow out of this rpc span into the worker's task span; the
    // rpc_id doubles as the flow id and rides in the assignment the worker
    // already decodes, which records the matching FlowEnd. Recorded before
    // the write: once the frame is out, the worker can record its FlowEnd
    // before this thread runs again.
    obs::Tracer::Global().FlowStart("dispatch", "task_dispatch",
                                    assign.rpc_id);
  }
  Status write_status;
  {
    std::lock_guard<std::mutex> lock(worker->write_mu);
    write_status = net::WriteFrame(worker->conn.get(), net::kTaskAssign,
                                   payload);
  }
  tasks_assigned_counter_->Inc();

  if (!write_status.ok()) {
    // The receiver (or we, below) will notice the dead conn; unregister our
    // pending entry first so MarkDead's sweep cannot touch a dead stack
    // frame, then report the loss ourselves in case the receiver is slow.
    {
      std::lock_guard<std::mutex> lock(mu_);
      pending_.erase(assign.rpc_id);
      worker->inflight--;
    }
    MarkDead(worker, "write failed: " + write_status.message());
    return Status::IOError("worker " + std::to_string(worker_id) + " lost (" +
                           write_status.message() + ")");
  }

  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return call.done; });
  worker->inflight--;
  rpc_progress_.erase(assign.rpc_id);
  rpc_latency_hist_->Observe(NowNanos() - call_start);
  if (!call.status.ok()) return call.status;
  if (result->status_code != 0) {
    return net::StatusFromWire(result->status_code, result->status_msg);
  }
  return Status::OK();
}

void Coordinator::CancelTask(uint32_t worker_id, uint64_t rpc_id) {
  if (rpc_id == 0) return;  // attempt not dispatched yet: nothing to cancel
  WorkerState* worker = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = workers_.find(worker_id);
    if (it == workers_.end() || !it->second->alive) return;
    worker = it->second.get();
  }
  net::CancelTaskMsg msg;
  msg.rpc_id = rpc_id;
  std::string payload;
  net::EncodeCancelTask(msg, &payload);
  std::lock_guard<std::mutex> lock(worker->write_mu);
  net::WriteFrame(worker->conn.get(), net::kCancelTask, payload);  // best effort
}

void Coordinator::BroadcastJobFrame(uint8_t type, const std::string& job_id) {
  net::JobIdMsg msg;
  msg.job_id = job_id;
  std::string payload;
  net::EncodeJobId(msg, &payload);
  std::vector<WorkerState*> targets;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [id, worker] : workers_) {
      if (worker->alive) targets.push_back(worker.get());
    }
  }
  for (WorkerState* w : targets) {
    std::lock_guard<std::mutex> lock(w->write_mu);
    net::WriteFrame(w->conn.get(), type, payload);  // best effort
  }
}

uint32_t Coordinator::RpcProgressPermille(uint64_t rpc_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = rpc_progress_.find(rpc_id);
  return it == rpc_progress_.end() ? 0 : it->second;
}

void Coordinator::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  if (listener_) listener_->Close();
  // Join the accept thread before touching the worker set: it is the only
  // spawner of receiver threads, so a registration racing with Stop could
  // otherwise start a receiver after the join pass below already ran.
  if (accept_thread_.joinable()) accept_thread_.join();
  if (monitor_thread_.joinable()) monitor_thread_.join();
  if (http_ != nullptr) http_->Stop();
  std::vector<WorkerState*> workers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [id, worker] : workers_) workers.push_back(worker.get());
  }
  for (WorkerState* w : workers) {
    bool alive;
    {
      std::lock_guard<std::mutex> lock(mu_);
      alive = w->alive;
    }
    if (alive) {
      std::lock_guard<std::mutex> lock(w->write_mu);
      net::WriteFrame(w->conn.get(), net::kShutdown, "");  // best effort
    }
  }
  if (obs::kTraceCompiled && obs::TraceEnabled()) {
    // Workers answer Shutdown with a final kTraceChunk and close their end;
    // wait (bounded) for the receivers to see those clean EOFs so the last
    // chunks land in the merger before we cut the connections ourselves.
    const uint64_t deadline = NowNanos() + 500ull * 1000 * 1000;
    for (;;) {
      bool any_alive = false;
      {
        std::lock_guard<std::mutex> lock(mu_);
        for (auto& [id, worker] : workers_) {
          if (worker->alive) any_alive = true;
        }
      }
      if (!any_alive || NowNanos() >= deadline) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  for (WorkerState* w : workers) w->conn->Close();
  for (WorkerState* w : workers) {
    if (w->receiver.joinable()) w->receiver.join();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [id, worker] : workers_) {
      if (worker->alive) {
        worker->alive = false;
        workers_live_gauge_->Sub(1);
      }
    }
  }
}

// --- observability surface ------------------------------------------------

void Coordinator::AddStatusHandler(const std::string& path,
                                   net::HttpServer::Handler handler) {
  extra_status_handlers_.emplace_back(path, std::move(handler));
}

Status Coordinator::StartStatusServer(const std::string& addr) {
  http_ = std::make_unique<net::HttpServer>(transport_);
  http_->Handle("/metrics", [this](std::string* content_type) {
    *content_type = "text/plain; version=0.0.4; charset=utf-8";
    return ClusterMetricsText();
  });
  http_->Handle("/status", [this](std::string* content_type) {
    *content_type = "application/json";
    return StatusJson();
  });
  for (auto& [path, handler] : extra_status_handlers_) {
    http_->Handle(path, handler);
  }
  ANTIMR_RETURN_NOT_OK(http_->Start(addr));
  ANTIMR_LOG(kInfo) << "status server listening on " << http_->addr();
  return Status::OK();
}

std::string Coordinator::ClusterMetricsText() const {
  return cluster_metrics_.ToPrometheusText(&obs::MetricsRegistry::Global(),
                                           obs::ProcessUid());
}

std::string Coordinator::StatusJson() const {
  std::string out;
  out.append("{\n");
  const uint64_t now = NowNanos();
  std::lock_guard<std::mutex> lock(mu_);
  int live = 0;
  int inflight = 0;
  for (const auto& [id, worker] : workers_) {
    live += worker->alive ? 1 : 0;
    inflight += worker->inflight;
  }
  out.append("  \"live_workers\": ").append(std::to_string(live));
  out.append(",\n  \"inflight_tasks\": ").append(std::to_string(inflight));
  out.append(",\n  \"workers\": [");
  bool first = true;
  for (const auto& [id, worker] : workers_) {
    out.append(first ? "\n" : ",\n");
    first = false;
    out.append("    {\"id\": ").append(std::to_string(id));
    out.append(", \"name\": ");
    AppendJsonString(&out, worker->name);
    out.append(", \"alive\": ").append(worker->alive ? "true" : "false");
    out.append(", \"slots\": ").append(std::to_string(worker->slots));
    out.append(", \"inflight\": ").append(std::to_string(worker->inflight));
    const uint64_t idle_nanos = now > worker->last_activity_nanos
                                    ? now - worker->last_activity_nanos
                                    : 0;
    out.append(", \"last_activity_ms\": ")
        .append(std::to_string(idle_nanos / 1000000));
    out.append(", \"shuffle_addr\": ");
    AppendJsonString(&out, worker->shuffle_addr);
    out.append("}");
  }
  out.append(first ? "]" : "\n  ]");
  out.append("\n}\n");
  return out;
}

std::string Coordinator::ClusterTraceJson() {
  if (obs::kTraceCompiled) {
    std::string local;
    obs::Tracer::Global().DrainAll(&local);
    if (!local.empty()) {
      const Status merge = trace_merger_.AddChunk(1, local);
      if (!merge.ok()) {
        ANTIMR_LOG(kWarn) << "dropping local trace buffers: "
                          << merge.ToString();
      }
    }
  }
  return trace_merger_.ToJson();
}

Status Coordinator::WriteClusterTrace(const std::string& path) {
  if (obs::kTraceCompiled) {
    std::string local;
    obs::Tracer::Global().DrainAll(&local);
    if (!local.empty()) {
      ANTIMR_RETURN_NOT_OK(trace_merger_.AddChunk(1, local));
    }
  }
  return trace_merger_.WriteJson(path);
}

}  // namespace engine
}  // namespace antimr
