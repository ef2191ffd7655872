// One worker node of the distributed engine: dials the coordinator,
// registers (carrying the address of its own SegmentServer), heartbeats,
// and executes TaskAssign messages on a local TaskPool over its private Env
// — the shared-nothing "local disk" other workers can only reach through
// the shuffle service. Map tasks run the standard map pipeline and leave
// their segments on this worker's storage; reduce tasks pull their inputs
// from the owning workers' shuffle services over the transport.
//
// A Worker object runs in-process (tests simulate whole clusters over one
// loopback transport) or as the body of the `antimr_cli worker` process
// over TCP — same code either way.
#ifndef ANTIMR_ENGINE_WORKER_H_
#define ANTIMR_ENGINE_WORKER_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "io/env.h"
#include "mr/task_graph.h"
#include "mr/task_control.h"
#include "net/shuffle_service.h"
#include "net/transport.h"
#include "net/wire.h"

namespace antimr {
namespace engine {

/// True when `id` (a task's job_id or a stored file name) belongs to job
/// `scope`. Attempt-scoped map ids are `<scope>_a<N>` and every job file is
/// `<scoped id>/<segment name>`, so the scope's footprint is exactly:
/// the id itself, anything under `<scope>/`, and anything starting
/// `<scope>_a` — the delimiters keep "job_1" from matching "job_10".
bool JobIdInScope(const std::string& id, const std::string& scope);

struct WorkerOptions {
  std::string name = "worker";
  /// Concurrent task executions (advertised to the coordinator's placer).
  int slots = 2;
  uint64_t heartbeat_period_nanos = 100ull * 1000 * 1000;
  /// Task storage; null = a private in-memory Env per worker.
  Env* env = nullptr;
  /// True when this Worker owns the whole process (`antimr_cli worker`).
  /// An exclusive worker answers Shutdown by draining *all* trace lanes
  /// into one final kTraceChunk — safe only because no other Worker (or a
  /// coordinator) shares the process's Tracer. In-process workers leave
  /// shutdown draining to the coordinator's own DrainAll.
  bool exclusive_process = false;
};

/// \brief A worker node: task executor + segment server + heartbeats.
class Worker {
 public:
  /// `transport` (and `options.env` when set) must outlive the worker.
  explicit Worker(net::Transport* transport,
                  const WorkerOptions& options = WorkerOptions());
  ~Worker();

  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  /// Start the shuffle server on `shuffle_addr` ("" = auto), dial
  /// `coordinator_addr`, register, and start serving tasks.
  Status Start(const std::string& coordinator_addr,
               const std::string& shuffle_addr = "");

  /// Coordinator-assigned id (valid after Start).
  uint32_t id() const { return id_; }
  const std::string& shuffle_addr() const { return shuffle_server_.addr(); }
  const net::SegmentServer& shuffle_server() const { return shuffle_server_; }

  /// Block until the coordinator sends Shutdown or the connection drops.
  void WaitDone();

  /// Graceful stop: close everything, join threads. Idempotent.
  void Stop();

  /// Simulate abrupt process death: stop heartbeating, close the control
  /// connection and the shuffle server, and suppress any in-flight task's
  /// result send. The coordinator sees exactly what a kill -9 produces —
  /// a dead conn and unreachable segments. Threads are joined later by
  /// Stop()/the destructor, since Crash is typically called from inside a
  /// task (via the test hooks below).
  void Crash();

  bool crashed() const { return crashed_.load(std::memory_order_acquire); }

  // Test hooks, called on the executing thread before the task body runs
  // (fault-injection tests use them to Crash this or another worker at the
  // worst moment). Set before Start; not synchronized afterwards.
  std::function<void(int task_index, uint32_t attempt)> on_map_start;
  std::function<void(int task_index, uint32_t attempt)> on_reduce_start;

 private:
  void ReceiveLoop();
  void HeartbeatLoop();
  /// Cancel every running attempt whose job_id is in `scope` (kCancelJob).
  void CancelJobTasks(const std::string& scope);
  /// Delete every stored file in `scope` from this worker's Env (kScrubJob).
  void ScrubJobFiles(const std::string& scope);
  void Execute(const net::TaskAssignMsg& assign);
  Status ExecuteTask(const net::TaskAssignMsg& assign, TaskControl* control,
                     net::TaskResultMsg* result);

  net::Transport* transport_;
  WorkerOptions options_;
  std::unique_ptr<Env> owned_env_;
  Env* env_ = nullptr;
  net::SegmentServer shuffle_server_;
  TaskPool pool_;
  std::unique_ptr<net::Conn> conn_;
  uint32_t id_ = 0;
  std::thread receiver_;
  std::thread heartbeat_;

  std::mutex write_mu_;  ///< serializes frame writes on conn_
  std::mutex trace_mu_;  ///< guards pending_trace_
  std::mutex tasks_mu_;  ///< guards running_tasks_
  struct RunningTask {
    std::shared_ptr<TaskControl> control;
    std::string job_id;  ///< assignment's (attempt-scoped) job id
  };
  /// Live tasks keyed by rpc_id: heartbeats read their progress, CancelTask
  /// frames flip their cancel flags, CancelJob sweeps them by job scope.
  /// Entries live exactly as long as Execute runs the task.
  std::map<uint64_t, RunningTask> running_tasks_;
  /// Trace chunks drained by shuffle handler threads (via the SegmentServer
  /// sink); piggybacked on the next TaskResult or the final Shutdown chunk.
  std::string pending_trace_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  bool stopped_ = false;
  std::atomic<bool> crashed_{false};
  std::atomic<int> inflight_tasks_{0};
};

}  // namespace engine
}  // namespace antimr

#endif  // ANTIMR_ENGINE_WORKER_H_
