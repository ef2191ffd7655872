#include "engine/planner.h"

#include <set>
#include <utility>

#include "anticombine/transform.h"
#include "common/stopwatch.h"
#include "obs/trace.h"

namespace antimr {
namespace engine {

namespace {

void StampMin(std::atomic<uint64_t>* slot, uint64_t value) {
  uint64_t seen = slot->load(std::memory_order_relaxed);
  while (value < seen &&
         !slot->compare_exchange_weak(seen, value,
                                      std::memory_order_relaxed)) {
  }
}

void StampMax(std::atomic<uint64_t>* slot, uint64_t value) {
  uint64_t seen = slot->load(std::memory_order_relaxed);
  while (value > seen &&
         !slot->compare_exchange_weak(seen, value,
                                      std::memory_order_relaxed)) {
  }
}

// Lower `ctx.plan` into `graph`, appending one StageExec per stage to
// `stages` (indexed by stage, not topological position). Tasks may start
// running while later stages are still being lowered; dataset consumer
// counts are registered up front so that cannot release a dataset early.
// Task lambdas keep pointers to the runner, `catalog` and `stages`, which
// must outlive the graph run.
Status LowerPlan(const PlannerContext& ctx, DatasetCatalog* catalog,
                 TaskGraph* graph, std::deque<StageExec>* stages) {
  const JobPlan& plan = *ctx.plan;
  TaskRunner* runner = ctx.runner;
  std::vector<int> topo;
  ANTIMR_RETURN_NOT_OK(plan.TopologicalOrder(&topo));

  // ---- Register every dataset and its full consumer count up front -------
  // Tasks start running the moment they are added below; a consumer count
  // registered late could hit zero (and trigger release) while a
  // not-yet-lowered stage still needs the data.
  for (const auto& [name, splits] : plan.external_inputs()) {
    catalog->RegisterExternal(name);
    catalog->SetPendingConsumers(
        name, plan.NumSplits(name) * plan.ConsumerCount(name));
  }
  for (size_t i = 0; i < plan.stages().size(); ++i) {
    const std::string& output = plan.stages()[i].output;
    catalog->RegisterIntermediate(
        output, static_cast<int>(i), plan.NumSplits(output),
        /*retained=*/plan.IsSink(static_cast<int>(i)) && ctx.collect_outputs);
    catalog->SetPendingConsumers(
        output, plan.NumSplits(output) * plan.ConsumerCount(output));
  }

  for (size_t i = 0; i < plan.stages().size(); ++i) stages->emplace_back();

  // ---- Lower stages in dependency order -----------------------------------
  for (int stage_index : topo) {
    const Stage& stage = plan.stages()[static_cast<size_t>(stage_index)];
    StageExec* st = &(*stages)[static_cast<size_t>(stage_index)];
    st->stage_index = stage_index;
    // A registered stage arrives transformed (JobPlan::Validate keeps its
    // anti_combine option off), so this never wraps a spec twice.
    st->run_spec = stage.options.anti_combine
                       ? anticombine::EnableAntiCombining(
                             stage.spec, stage.options.anti_combine_options)
                       : stage.spec;
    st->job_id = plan.stages().size() == 1
                     ? ctx.job_id
                     : ctx.job_id + "/s" + std::to_string(stage_index);
    st->trace_label = stage.name.empty() ? stage.spec.name : stage.name;
    st->output_dataset = stage.output;
    st->publish_output = !plan.IsSink(stage_index) || ctx.collect_outputs;

    // Map inputs: one task per external split, one task per partition of
    // each intermediate input (the cross-stage pipelining edge).
    for (const std::string& input : stage.inputs) {
      const int producer = plan.ProducerOf(input);
      for (int i = 0; i < plan.NumSplits(input); ++i) {
        const size_t at = static_cast<size_t>(i);
        st->map_inputs.push_back(
            producer < 0
                ? MapInput{plan.external_inputs().at(input)[at], -1, &input, i}
                : MapInput{catalog->PartitionSplit(input, i),
                           (*stages)[static_cast<size_t>(producer)]
                               .reduce_task_ids[at],
                           &input, i});
      }
    }

    const size_t num_maps = st->map_inputs.size();
    const size_t num_reduce =
        static_cast<size_t>(st->run_spec.num_reduce_tasks);
    st->map_results.resize(num_maps);
    st->reduce_results.resize(num_reduce);
    st->maps_remaining.store(num_maps, std::memory_order_relaxed);

    std::vector<int> map_ids(num_maps, -1);
    for (size_t m = 0; m < num_maps; ++m) {
      const MapInput& in = st->map_inputs[m];
      const std::vector<int> deps =
          in.dep >= 0 ? std::vector<int>{in.dep} : std::vector<int>{};
      map_ids[m] = graph->AddTask(
          [catalog, runner, st, m](int attempt) {
            StampMin(&st->first_start, NowNanos());
            Status status = runner->Map(st, m, attempt);
            if (status.ok()) {
              // Only a terminal outcome may drop the consumer refcount or
              // the in-flight map count; a retried attempt is still "the
              // same task" to the shuffle and the catalog. Failed tasks are
              // covered by RunPlan's ReleaseAll epilogue.
              st->maps_remaining.fetch_sub(1, std::memory_order_relaxed);
              catalog->ConsumerDone(*st->map_inputs[m].dataset);
            }
            StampMax(&st->last_end, NowNanos());
            return status;
          },
          deps, TaskGraph::TaskOptions{});
    }

    // Concurrent fetches overlap the map wave: fetch(p, m) pulls every
    // segment of map m for partition p the moment map m finishes; only the
    // merge+reduce waits for all of p's inputs. A runner whose reduces
    // fetch for themselves gets the map -> reduce edges directly.
    TaskPool* fetch_pool = runner->fetch_pool();
    st->reduce_task_ids.assign(num_reduce, -1);
    if (fetch_pool != nullptr) {
      st->fetched.resize(num_reduce);
      for (auto& per_map : st->fetched) per_map.resize(num_maps);
      st->fetch_cpu = std::vector<std::atomic<uint64_t>>(num_reduce);
    }

    for (size_t p = 0; p < num_reduce; ++p) {
      std::vector<int> reduce_deps = map_ids;
      if (fetch_pool != nullptr) {
        TaskGraph::TaskOptions fetch_options;
        fetch_options.pool = fetch_pool;
        for (size_t m = 0; m < num_maps; ++m) {
          reduce_deps[m] = graph->AddTask(
              [runner, st, p, m](int) { return runner->Fetch(st, p, m); },
              {map_ids[m]}, fetch_options);
        }
      }
      st->reduce_task_ids[p] = graph->AddTask(
          [catalog, runner, st, p](int attempt) {
            StampMin(&st->first_start, NowNanos());
            Status status = runner->Reduce(st, p, attempt);
            if (status.ok() && st->publish_output) {
              catalog->Publish(st->output_dataset, static_cast<int>(p),
                               std::move(st->reduce_results[p].output));
            }
            StampMax(&st->last_end, NowNanos());
            return status;
          },
          reduce_deps, TaskGraph::TaskOptions{});
    }

    if (ctx.cleanup_intermediates) {
      // Segment files die as soon as the stage's reduces are done — not at
      // the end of the plan — bounding intermediate storage per stage.
      // always_run: a failed reduce must not strand the stage's segment
      // files; by the time this runs every map/reduce is terminal, so
      // reading map_results is safe even on the failure path.
      TaskGraph::TaskOptions cleanup_options;
      cleanup_options.always_run = true;
      graph->AddTask(
          [runner, st](int) {
            ANTIMR_TRACE_SPAN_DYN("task", "cleanup:" + st->trace_label);
            runner->Cleanup(st);
            return Status::OK();
          },
          st->reduce_task_ids, cleanup_options);
    }
  }
  return Status::OK();
}

}  // namespace

std::string UniqueJobId(const std::string& prefix, const std::string& name) {
  static std::atomic<uint64_t> counter{0};
  return prefix + "_" + name + "_" +
         std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
}

Status RunPlan(const PlannerContext& ctx, PlanResult* result) {
  const JobPlan& plan = *ctx.plan;
  DatasetCatalog catalog;
  std::deque<StageExec> stages;
  TaskGraph graph(ctx.pool, ctx.retry);
  const Status lowered = LowerPlan(ctx, &catalog, &graph, &stages);
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
    for (size_t m = 0; m < st.map_inputs.size(); ++m) {
      sr.metrics.Add(st.map_results[m].metrics);
      if (ctx.collect_task_metrics) {
        sr.tasks.push_back({/*is_map=*/true, static_cast<int>(m),
                            st.map_results[m].metrics});
      }
    }
    for (size_t p = 0; p < st.reduce_results.size(); ++p) {
      sr.metrics.Add(st.reduce_results[p].metrics);
      if (ctx.collect_task_metrics) {
        sr.tasks.push_back({/*is_map=*/false, static_cast<int>(p),
                            st.reduce_results[p].metrics});
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

  if (ctx.collect_outputs) {
    for (size_t i = 0; i < plan.stages().size(); ++i) {
      if (!plan.IsSink(static_cast<int>(i))) continue;
      const std::string& name = plan.stages()[i].output;
      result->outputs[name] = catalog.TakePartitions(name);
    }
  }
  result->datasets = catalog.Describe();
  return run_status;
}

}  // namespace engine
}  // namespace antimr
