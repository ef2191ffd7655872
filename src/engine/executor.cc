#include "engine/executor.h"

#include <atomic>
#include <set>
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

const std::vector<std::vector<KV>>* PlanResult::Output(
    const std::string& name) const {
  auto it = outputs.find(name);
  return it == outputs.end() ? nullptr : &it->second;
}

std::vector<KV> PlanResult::FlatOutput(const std::string& name) const {
  std::vector<KV> flat;
  const auto* partitions = Output(name);
  if (partitions == nullptr) return flat;
  for (const auto& part : *partitions) {
    flat.insert(flat.end(), part.begin(), part.end());
  }
  return flat;
}

namespace {
std::string UniquePlanId(const std::string& name) {
  static std::atomic<uint64_t> counter{0};
  return "plan_" + name + "_" +
         std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
}
}  // namespace

Executor::Executor(const ExecutorOptions& options)
    : options_(options), pool_(options.num_workers) {}

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

  if (fetch_pool_ == nullptr) {
    fetch_pool_ = std::make_unique<TaskPool>(options_.fetch_threads > 0
                                                 ? options_.fetch_threads
                                                 : pool_.num_workers(),
                                             "fetch");
  }

  DatasetCatalog catalog;
  std::deque<StageExec> stages;
  RetryPolicy retry;
  retry.max_attempts = std::max(1, options_.max_task_attempts);
  retry.backoff_nanos = options_.retry_backoff_nanos;
  TaskGraph graph(&pool_, retry);

  PlannerContext ctx;
  ctx.plan = &plan;
  ctx.catalog = &catalog;
  ctx.task_env = task_env;
  ctx.cleanup_env = env;
  ctx.fetch_pool = fetch_pool_.get();
  ctx.shuffle = &shuffle_client;
  ctx.shuffle_addr = shuffle_server.addr();
  ctx.readahead_blocks = options_.readahead_blocks > 0
                             ? options_.readahead_blocks
                             : kShuffleReadaheadBlocks;
  ctx.collect_outputs = options_.collect_outputs;
  ctx.cleanup_intermediates = options_.cleanup_intermediates;
  ctx.run_id = options_.run_id.empty() ? UniquePlanId(plan.name)
                                       : options_.run_id;

  const Status lowered = LowerPlan(ctx, &graph, &stages);
  // Tasks added before a lowering error may already be running; always
  // drain the graph before touching (or destroying) the state they use.
  const Status run_status = graph.Wait();
  // On a failure path, consumer tasks that were skipped never reached their
  // ConsumerDone calls, so intermediates would sit unreleased. Every task is
  // terminal once Wait returns; reclaim whatever is still held so a failed
  // plan cannot leak dataset memory (sinks stay retained for TakePartitions).
  catalog.ReleaseAll();
  if (!lowered.ok()) return lowered;

  // ---- Aggregate: per-stage roll-ups, then the plan total ------------------
  result->stages.resize(plan.stages().size());
  for (size_t i = 0; i < plan.stages().size(); ++i) {
    const Stage& stage = plan.stages()[i];
    const StageExec& st = stages[i];
    StageResult& sr = result->stages[i];
    sr.name = stage.name.empty() ? stage.spec.name : stage.name;
    sr.output = stage.output;
    for (size_t m = 0; m < st.num_maps; ++m) {
      sr.metrics.Add(st.map_results[m].metrics);
      sr.metrics.total_cpu_nanos += st.map_cpu[m];
      if (options_.collect_task_metrics) {
        sr.tasks.push_back({/*is_map=*/true, static_cast<int>(m),
                            st.map_cpu[m], st.map_results[m].metrics});
      }
    }
    for (size_t p = 0; p < st.reduce_results.size(); ++p) {
      sr.metrics.Add(st.reduce_results[p].metrics);
      sr.metrics.total_cpu_nanos += st.reduce_cpu[p];
      if (options_.collect_task_metrics) {
        sr.tasks.push_back({/*is_map=*/false, static_cast<int>(p),
                            st.reduce_cpu[p], st.reduce_results[p].metrics});
      }
    }
    sr.metrics.shuffle_overlapped_fetches =
        st.overlapped_fetches.load(std::memory_order_relaxed);
    const uint64_t first = st.first_start.load(std::memory_order_relaxed);
    const uint64_t last = st.last_end.load(std::memory_order_relaxed);
    if (last > 0 && first != ~uint64_t{0}) {
      sr.first_start_nanos = first;
      sr.last_end_nanos = last;
      sr.metrics.wall_nanos = last - first;
      // One async track per stage: the stage's activity span, emitted
      // post-run with the timestamps the tasks stamped. Renders as a lane
      // above the worker threads showing how stages overlap.
      if (obs::kTraceCompiled && obs::TraceEnabled()) {
        static std::atomic<uint64_t> track_counter{0};
        const uint64_t track_id =
            track_counter.fetch_add(1, std::memory_order_relaxed) + 1;
        const std::string track_name =
            "stage:" + std::to_string(st.stage_index) + ":" + sr.name;
        obs::Tracer::Global().AsyncBegin("stage", track_name, track_id, first);
        obs::Tracer::Global().AsyncEnd("stage", track_name, track_id, last);
      }
    }
    result->metrics.Add(sr.metrics);
  }

  // Cross-stage pipelining metric: overlap of producer/consumer activity
  // spans, summed over distinct dataset edges.
  std::set<std::pair<int, int>> edges;
  for (size_t i = 0; i < plan.stages().size(); ++i) {
    for (const std::string& input : plan.stages()[i].inputs) {
      const int producer = plan.ProducerOf(input);
      if (producer >= 0) edges.insert({producer, static_cast<int>(i)});
    }
  }
  for (const auto& [producer, consumer] : edges) {
    const StageResult& a = result->stages[static_cast<size_t>(producer)];
    const StageResult& b = result->stages[static_cast<size_t>(consumer)];
    if (a.last_end_nanos == 0 || b.last_end_nanos == 0) continue;
    const uint64_t lo = std::max(a.first_start_nanos, b.first_start_nanos);
    const uint64_t hi = std::min(a.last_end_nanos, b.last_end_nanos);
    if (hi > lo) result->stage_overlap_nanos += hi - lo;
  }

  if (options_.collect_outputs) {
    for (size_t i = 0; i < plan.stages().size(); ++i) {
      if (!plan.IsSink(static_cast<int>(i))) continue;
      const std::string& name = plan.stages()[i].output;
      result->outputs[name] = catalog.TakePartitions(name);
    }
  }
  result->datasets = catalog.Describe();

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
