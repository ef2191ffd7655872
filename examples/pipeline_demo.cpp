// Pipeline demo: chain two MapReduce jobs — wordcount, then a framework
// sort of the counts — as ONE engine::JobPlan and run it with a single
// Executor::Run call.
//
//   $ ./build/examples/pipeline_demo
//
// Each stage carries its own knobs: the aggregation stage uses EagerSH
// (heavy value sharing across a word's occurrences) while the re-sort stage
// uses LazySH. Because the sort stage's map tasks consume the wordcount
// stage's reduce *partitions*, sorting of partition p starts the instant
// counting of partition p finishes — the executor reports that cross-stage
// overlap.
#include <cstdio>
#include <memory>

#include "antimr.h"
#include "datagen/random_text.h"
#include "workloads/sort.h"
#include "workloads/wordcount.h"

using namespace antimr;  // NOLINT: example brevity

int main() {
  // 1. Input: generated text lines, 4 map splits.
  RandomTextConfig text;
  text.num_lines = 20000;
  text.seed = 42;

  engine::JobPlan plan;
  plan.name = "wordcount_sort";
  ANTIMR_CHECK_OK(
      plan.AddInput("lines", RandomTextGenerator(text).MakeSplits(4)));

  // 2. Stage 1: count words, EagerSH.
  workloads::WordCountConfig wc;
  wc.num_reduce_tasks = 4;
  engine::Stage count_stage;
  count_stage.name = "wordcount";
  count_stage.spec = workloads::MakeWordCountJob(wc);
  count_stage.inputs = {"lines"};
  count_stage.output = "counts";
  count_stage.options.anti_combine = true;
  count_stage.options.anti_combine_options.lazy_threshold_nanos = 0;  // eager
  plan.AddStage(std::move(count_stage));

  // 3. Stage 2: re-sort the counts through the shuffle, LazySH.
  workloads::SortConfig sort;
  sort.num_reduce_tasks = 4;
  engine::Stage sort_stage;
  sort_stage.name = "sort";
  sort_stage.spec = workloads::MakeSortJob(sort);
  sort_stage.inputs = {"counts"};
  sort_stage.output = "sorted";
  sort_stage.options.anti_combine = true;
  sort_stage.options.anti_combine_options.force_lazy = true;  // lazy
  plan.AddStage(std::move(sort_stage));

  // 4. One run for the whole DAG.
  engine::Executor executor;
  engine::PlanResult result;
  ANTIMR_CHECK_OK(executor.Run(plan, &result));

  const std::vector<KV> sorted = result.FlatOutput("sorted");
  std::printf("distinct words: %zu (first: %s, last: %s)\n\n", sorted.size(),
              sorted.empty() ? "-" : sorted.front().key.c_str(),
              sorted.empty() ? "-" : sorted.back().key.c_str());

  for (const engine::StageResult& stage : result.stages) {
    std::printf("stage %-10s wall=%-10s eager=%llu lazy=%llu out=%llu\n",
                stage.name.c_str(),
                FormatNanos(stage.metrics.wall_nanos).c_str(),
                static_cast<unsigned long long>(stage.metrics.eager_records),
                static_cast<unsigned long long>(stage.metrics.lazy_records),
                static_cast<unsigned long long>(stage.metrics.output_records));
  }
  std::printf("cross-stage overlap: %s\n",
              FormatNanos(result.stage_overlap_nanos).c_str());

  // 5. The intermediate "counts" dataset was reclaimed the moment the sort
  //    stage's last map task read it.
  for (const engine::DatasetInfo& ds : result.datasets) {
    std::printf("dataset %-8s %s\n", ds.name.c_str(),
                ds.external   ? "external"
                : ds.retained ? "retained (plan output)"
                : ds.released ? "released after last consumer"
                              : "live");
  }
  return 0;
}
