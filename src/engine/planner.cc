#include "engine/planner.h"

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

/// One map task's input: its split, the graph task it must wait for
/// (the producing reduce task; -1 for external splits), and the dataset it
/// consumes (for the catalog's refcount).
struct MapInput {
  InputSplit split;
  int dep = -1;
  const std::string* dataset = nullptr;
};

/// Run reduce partition `p`, bill its CPU plus its fetches' CPU, publish the
/// partition to the catalog, and stamp the stage's activity span.
Status RunStageReduce(const PlannerContext& ctx, StageExec* st, int p,
                      ReduceTaskInputs& inputs) {
  StampMin(&st->first_start, NowNanos());
  const uint64_t cpu_start = ThreadCpuNanos();
  Status status =
      RunReduceTask(st->run_spec, p, inputs, ctx.task_env, st->collect_output,
                    &st->reduce_results[static_cast<size_t>(p)]);
  st->reduce_cpu[static_cast<size_t>(p)] =
      ThreadCpuNanos() - cpu_start +
      st->fetch_cpu[static_cast<size_t>(p)].load(std::memory_order_relaxed);
  if (status.ok() && st->publish_output) {
    ctx.catalog->Publish(
        st->output_dataset, p,
        std::move(st->reduce_results[static_cast<size_t>(p)].output));
  }
  StampMax(&st->last_end, NowNanos());
  return status;
}

}  // namespace

Status LowerPlan(const PlannerContext& ctx, TaskGraph* graph,
                 std::deque<StageExec>* stages) {
  const JobPlan& plan = *ctx.plan;
  std::vector<int> topo;
  ANTIMR_RETURN_NOT_OK(plan.TopologicalOrder(&topo));

  // ---- Register every dataset and its full consumer count up front -------
  // Tasks start running the moment they are added below; a consumer count
  // registered late could hit zero (and trigger release) while a
  // not-yet-lowered stage still needs the data.
  for (const auto& [name, splits] : plan.external_inputs()) {
    ctx.catalog->RegisterExternal(name, &splits);
  }
  for (size_t i = 0; i < plan.stages().size(); ++i) {
    const Stage& stage = plan.stages()[i];
    const bool is_sink = plan.IsSink(static_cast<int>(i));
    ctx.catalog->RegisterIntermediate(
        stage.output, static_cast<int>(i), stage.spec.num_reduce_tasks,
        /*retained=*/is_sink && ctx.collect_outputs);
  }
  auto consumer_map_tasks = [&](const std::string& dataset) {
    int count = 0;
    for (const Stage& stage : plan.stages()) {
      for (const std::string& input : stage.inputs) {
        if (input != dataset) continue;
        const int producer = plan.ProducerOf(input);
        count += producer >= 0
                     ? plan.stages()[static_cast<size_t>(producer)]
                           .spec.num_reduce_tasks
                     : static_cast<int>(
                           plan.external_inputs().at(input).size());
      }
    }
    return count;
  };
  for (const auto& [name, splits] : plan.external_inputs()) {
    ctx.catalog->SetPendingConsumers(name, consumer_map_tasks(name));
  }
  for (const Stage& stage : plan.stages()) {
    ctx.catalog->SetPendingConsumers(stage.output,
                                     consumer_map_tasks(stage.output));
  }

  for (size_t i = 0; i < plan.stages().size(); ++i) stages->emplace_back();

  // ---- Lower stages in dependency order -----------------------------------
  for (int stage_index : topo) {
    const Stage& stage = plan.stages()[static_cast<size_t>(stage_index)];
    StageExec* st = &(*stages)[static_cast<size_t>(stage_index)];
    st->stage_index = stage_index;
    st->run_spec = stage.options.anti_combine
                       ? anticombine::EnableAntiCombining(
                             stage.spec, stage.options.anti_combine_options)
                       : stage.spec;
    st->job_id = ctx.run_id + "_s" + std::to_string(stage_index) + "_" +
                 stage.spec.name;
    st->trace_label = stage.name.empty() ? stage.spec.name : stage.name;
    st->output_dataset = stage.output;
    const bool is_sink = plan.IsSink(stage_index);
    st->publish_output = !is_sink || ctx.collect_outputs;
    st->collect_output = st->publish_output;

    // Map inputs: one task per external split, one task per partition of
    // each intermediate input (the cross-stage pipelining edge).
    std::vector<MapInput> map_inputs;
    for (const std::string& input : stage.inputs) {
      const int producer = plan.ProducerOf(input);
      if (producer < 0) {
        const auto& splits = plan.external_inputs().at(input);
        for (const InputSplit& split : splits) {
          map_inputs.push_back({split, -1, &input});
        }
      } else {
        const StageExec& prod =
            (*stages)[static_cast<size_t>(producer)];
        const int partitions =
            plan.stages()[static_cast<size_t>(producer)]
                .spec.num_reduce_tasks;
        for (int p = 0; p < partitions; ++p) {
          map_inputs.push_back({ctx.catalog->PartitionSplit(input, p),
                                prod.reduce_task_ids[static_cast<size_t>(p)],
                                &input});
        }
      }
    }

    const size_t num_maps = map_inputs.size();
    const size_t num_reduce =
        static_cast<size_t>(st->run_spec.num_reduce_tasks);
    st->num_maps = num_maps;
    st->map_results.resize(num_maps);
    st->map_cpu.assign(num_maps, 0);
    st->reduce_results.resize(num_reduce);
    st->reduce_cpu.assign(num_reduce, 0);
    st->maps_remaining.store(num_maps, std::memory_order_relaxed);

    // Move the splits into shared storage the task lambdas can capture.
    auto inputs = std::make_shared<std::vector<MapInput>>(
        std::move(map_inputs));

    std::vector<int> map_ids(num_maps, -1);
    for (size_t m = 0; m < num_maps; ++m) {
      const MapInput& in = (*inputs)[m];
      const std::vector<int> deps =
          in.dep >= 0 ? std::vector<int>{in.dep} : std::vector<int>{};
      map_ids[m] = graph->AddTask(
          [&ctx, st, inputs, m](int attempt) {
            StampMin(&st->first_start, NowNanos());
            // Idempotent retry: discard the prior attempt's partial result
            // and write under an attempt-scoped job id so a half-written
            // file from the failed attempt can never be read as output.
            if (attempt > 0) st->map_results[m] = MapTaskResult();
            const std::string job_id =
                attempt == 0 ? st->job_id
                             : st->job_id + "_r" + std::to_string(attempt);
            const uint64_t cpu_start = ThreadCpuNanos();
            Status status = RunMapTask(st->run_spec, job_id,
                                       static_cast<int>(m),
                                       (*inputs)[m].split, ctx.task_env,
                                       &st->map_results[m]);
            st->map_cpu[m] = ThreadCpuNanos() - cpu_start;
            if (status.ok()) {
              // Only a terminal outcome may drop the consumer refcount or
              // the in-flight map count; a retried attempt is still "the
              // same task" to the shuffle and the catalog. Failed tasks are
              // covered by the executor's ReleaseAll epilogue.
              st->maps_remaining.fetch_sub(1, std::memory_order_relaxed);
              ctx.catalog->ConsumerDone(*(*inputs)[m].dataset);
            }
            StampMax(&st->last_end, NowNanos());
            return status;
          },
          deps, TaskGraph::TaskOptions{});
    }

    // Concurrent fetches overlap the map wave: fetch(p, m) pulls every
    // segment of map m for partition p the moment map m finishes; only the
    // merge+reduce waits for all of p's inputs.
    st->reduce_task_ids.assign(num_reduce, -1);
    st->fetched.resize(num_reduce);
    for (auto& per_map : st->fetched) per_map.resize(num_maps);
    st->fetch_cpu = std::vector<std::atomic<uint64_t>>(num_reduce);

    for (size_t p = 0; p < num_reduce; ++p) {
      std::vector<int> fetch_ids;
      fetch_ids.reserve(num_maps);
      for (size_t m = 0; m < num_maps; ++m) {
        TaskGraph::TaskOptions fetch_options;
        fetch_options.pool = ctx.fetch_pool;
        fetch_ids.push_back(graph->AddTask(
            [&ctx, st, p, m](int) {
              const std::vector<std::string>& files =
                  st->map_results[m].segment_files[p];
              if (files.empty()) return Status::OK();
              ANTIMR_TRACE_SPAN_DYN(
                  "task", "fetch:" + st->trace_label + " p" +
                              std::to_string(p) + " m" + std::to_string(m));
              // Every attempt starts over from empty segments so a
              // partially-filled buffer from a failed attempt cannot leak
              // into the merge.
              std::vector<FetchedSegment>& out = st->fetched[p][m];
              out.assign(files.size(), FetchedSegment());
              if (st->maps_remaining.load(std::memory_order_relaxed) > 0) {
                st->overlapped_fetches.fetch_add(1,
                                                 std::memory_order_relaxed);
              }
              const uint64_t cpu_start = ThreadCpuNanos();
              // Over the shuffle service, so the copy crosses the counted
              // transport boundary.
              Status status;
              for (size_t r = 0; r < files.size() && status.ok(); ++r) {
                status = ctx.shuffle->Fetch(ctx.shuffle_addr, files[r],
                                            &out[r]);
              }
              st->fetch_cpu[p].fetch_add(ThreadCpuNanos() - cpu_start,
                                         std::memory_order_relaxed);
              return status;
            },
            {map_ids[m]}, fetch_options));
      }
      st->reduce_task_ids[p] = graph->AddTask(
          [&ctx, st, p](int attempt) {
            if (attempt > 0) st->reduce_results[p] = ReduceTaskResult();
            ReduceTaskInputs inputs;
            inputs.readahead_blocks = ctx.readahead_blocks;
            // Borrow the fetched segments in (map, run) order — the
            // StageExec keeps owning them so a transiently-failed reduce
            // retries against the same bytes instead of finding moved-out
            // empties.
            for (const std::vector<FetchedSegment>& runs : st->fetched[p]) {
              for (const FetchedSegment& fs : runs) {
                inputs.fetched.push_back(&fs);
              }
            }
            Status status =
                RunStageReduce(ctx, st, static_cast<int>(p), inputs);
            if (status.ok()) {
              // Success is terminal: drop the fetched frames now (not at
              // stage teardown) to keep shuffle memory bounded per live
              // reduce.
              for (std::vector<FetchedSegment>& runs : st->fetched[p]) {
                std::vector<FetchedSegment>().swap(runs);
              }
            }
            return status;
          },
          fetch_ids, TaskGraph::TaskOptions{});
    }

    if (ctx.cleanup_intermediates) {
      // Segment files die as soon as the stage's reduces are done — not at
      // the end of the plan — bounding intermediate storage per stage.
      // always_run: a failed reduce must not strand the stage's segment
      // files on disk; by the time this runs every map/reduce is terminal,
      // so reading map_results is safe even on the failure path.
      TaskGraph::TaskOptions cleanup_options;
      cleanup_options.always_run = true;
      graph->AddTask(
          [&ctx, st](int) {
            ANTIMR_TRACE_SPAN_DYN("task", "cleanup:" + st->trace_label);
            for (const MapTaskResult& mr : st->map_results) {
              for (const std::vector<std::string>& files : mr.segment_files) {
                for (const std::string& fname : files) {
                  ctx.cleanup_env->DeleteFile(fname);
                }
              }
            }
            return Status::OK();
          },
          st->reduce_task_ids, cleanup_options);
    }
  }
  return Status::OK();
}

}  // namespace engine
}  // namespace antimr
