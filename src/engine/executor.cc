#include "engine/executor.h"

#include <atomic>
#include <memory>
#include <utility>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "engine/planner.h"
#include "io/throttled_env.h"
#include "mr/reduce_task.h"
#include "net/shuffle_service.h"
#include "obs/trace.h"

namespace antimr {
namespace engine {

std::vector<KV> PlanResult::FlatOutput(const std::string& name) const {
  std::vector<KV> flat;
  auto it = outputs.find(name);
  if (it == outputs.end()) return flat;
  for (const auto& part : it->second) {
    flat.insert(flat.end(), part.begin(), part.end());
  }
  return flat;
}

namespace {

/// Runs tasks in-process. Segments are written to `task_env` (maybe
/// throttled), served by the run's SegmentServer at `shuffle_addr` and
/// pulled through `shuffle`, so every shuffled byte crosses the transport
/// framing layer; `cleanup_env` deletes them.
struct LocalRunner : public TaskRunner {
  Env* task_env = nullptr;
  Env* cleanup_env = nullptr;
  TaskPool* fetches = nullptr;
  net::ShuffleClient* shuffle = nullptr;
  std::string shuffle_addr;

  TaskPool* fetch_pool() override { return fetches; }

  Status Map(StageExec* st, size_t m, int attempt) override {
    // Idempotent retry: discard the prior attempt's partial result and
    // write under an attempt-scoped job id so a half-written file from the
    // failed attempt can never be read as output.
    if (attempt > 0) st->map_results[m] = MapTaskResult();
    const std::string job_id =
        attempt == 0 ? st->job_id
                     : st->job_id + "_r" + std::to_string(attempt);
    return RunMapTask(st->run_spec, job_id, static_cast<int>(m),
                      st->map_inputs[m].split, task_env, &st->map_results[m]);
  }

  Status Fetch(StageExec* st, size_t p, size_t m) override {
    const std::vector<std::string>& files =
        st->map_results[m].segment_files[p];
    if (files.empty()) return Status::OK();
    ANTIMR_TRACE_SPAN_DYN("task", "fetch:" + st->trace_label + " p" +
                                      std::to_string(p) + " m" +
                                      std::to_string(m));
    // Every attempt starts over from empty segments so a partially-filled
    // buffer from a failed attempt cannot leak into the merge.
    std::vector<FetchedSegment>& out = st->fetched[p][m];
    out.assign(files.size(), FetchedSegment());
    if (st->maps_remaining.load(std::memory_order_relaxed) > 0) {
      st->overlapped_fetches.fetch_add(1, std::memory_order_relaxed);
    }
    const uint64_t cpu_start = ThreadCpuNanos();
    // Over the shuffle service, so the copy crosses the counted transport
    // boundary.
    Status status;
    for (size_t r = 0; r < files.size() && status.ok(); ++r) {
      status = shuffle->Fetch(shuffle_addr, files[r], &out[r]);
    }
    st->fetch_cpu[p].fetch_add(ThreadCpuNanos() - cpu_start,
                               std::memory_order_relaxed);
    return status;
  }

  Status Reduce(StageExec* st, size_t p, int attempt) override {
    if (attempt > 0) st->reduce_results[p] = ReduceTaskResult();
    ReduceTaskInputs inputs;
    // Borrow the fetched segments in (map, run) order — the StageExec keeps
    // owning them so a transiently-failed reduce retries against the same
    // bytes instead of finding moved-out empties.
    for (const std::vector<FetchedSegment>& runs : st->fetched[p]) {
      for (const FetchedSegment& fs : runs) inputs.fetched.push_back(&fs);
    }
    Status status =
        RunReduceTask(st->run_spec, static_cast<int>(p), inputs, task_env,
                      st->publish_output, &st->reduce_results[p]);
    // The fetch tasks ran for this reduce; their CPU is its CPU.
    st->reduce_results[p].metrics.total_cpu_nanos +=
        st->fetch_cpu[p].load(std::memory_order_relaxed);
    if (status.ok()) {
      // Success is terminal: drop the fetched frames now (not at stage
      // teardown) to keep shuffle memory bounded per live reduce.
      for (std::vector<FetchedSegment>& runs : st->fetched[p]) {
        std::vector<FetchedSegment>().swap(runs);
      }
    }
    return status;
  }

  void Cleanup(StageExec* st) override {
    for (const MapTaskResult& mr : st->map_results) {
      for (const std::vector<std::string>& files : mr.segment_files) {
        for (const std::string& fname : files) cleanup_env->DeleteFile(fname);
      }
    }
  }
};

}  // namespace

Executor::Executor(const ExecutorOptions& options)
    : options_(options),
      pool_(options.num_workers),
      fetch_pool_(pool_.num_workers(), "fetch") {}

Status Executor::Run(const JobPlan& plan, PlanResult* result) {
  *result = PlanResult();
  ANTIMR_RETURN_NOT_OK(plan.Validate());
  ANTIMR_TRACE_SPAN_DYN("engine", "plan:" + plan.name);
  ANTIMR_LOG(kInfo) << "plan " << plan.name << ": " << plan.stages().size()
                    << " stage(s), " << pool_.num_workers() << " workers";
  const uint64_t wall_start = NowNanos();

  std::unique_ptr<Env> owned_env;
  Env* env = options_.env;
  IoStats io_before;
  if (env == nullptr) {
    owned_env = NewMemEnv();
    env = owned_env.get();
  } else {
    io_before = env->stats();
  }
  // Simulated local-disk bandwidth: tasks see the throttled wrapper; the
  // underlying env still owns the bytes and the counters. Cleanup bypasses
  // the throttle (deletions are metadata ops).
  std::unique_ptr<Env> throttled_env;
  Env* task_env = env;
  if (options_.hardware.disk_mb_per_s > 0) {
    throttled_env = NewThrottledEnv(env, options_.hardware.disk_mb_per_s);
    task_env = throttled_env.get();
  }

  // Shuffle data plane: a per-run SegmentServer exports the segments tasks
  // write to task_env (so the disk throttle still applies on the serving
  // side) and every reduce-side fetch pulls them through a ShuffleClient
  // over the transport — loopback by default, or whatever the caller
  // injected (e.g. TCP for single-process wire benchmarks). The network
  // throttle is paid per fetched chunk in the client. Declared before the
  // TaskGraph so they outlive every task.
  std::unique_ptr<net::Transport> owned_transport;
  net::Transport* transport = options_.transport;
  if (transport == nullptr) {
    owned_transport = net::NewLoopbackTransport();
    transport = owned_transport.get();
  }
  net::SegmentServer shuffle_server(transport, task_env);
  ANTIMR_RETURN_NOT_OK(shuffle_server.Start(""));
  net::ShuffleClient shuffle_client(transport,
                                    options_.hardware.network_mb_per_s);

  LocalRunner runner;
  runner.task_env = task_env;
  runner.cleanup_env = env;
  runner.fetches = &fetch_pool_;
  runner.shuffle = &shuffle_client;
  runner.shuffle_addr = shuffle_server.addr();
  PlannerContext ctx;
  ctx.plan = &plan;
  ctx.runner = &runner;
  ctx.job_id =
      options_.run_id.empty() ? UniqueJobId("plan", plan.name) : options_.run_id;
  ctx.pool = &pool_;
  ctx.retry.max_attempts = std::max(1, options_.max_task_attempts);
  ctx.retry.backoff_nanos = options_.retry_backoff_nanos;
  ctx.collect_outputs = options_.collect_outputs;
  ctx.cleanup_intermediates = options_.cleanup_intermediates;
  ctx.collect_task_metrics = options_.collect_task_metrics;
  const Status run_status = RunPlan(ctx, result);

  const IoStats io_after = env->stats();
  result->metrics.disk_bytes_read = io_after.bytes_read - io_before.bytes_read;
  result->metrics.disk_bytes_written =
      io_after.bytes_written - io_before.bytes_written;
  result->metrics.wall_nanos = NowNanos() - wall_start;
  ANTIMR_LOG(kInfo) << "plan " << plan.name << ": "
                    << (run_status.ok() ? "ok" : run_status.ToString())
                    << " in " << FormatNanos(result->metrics.wall_nanos);
  return run_status;
}

}  // namespace engine
}  // namespace antimr
