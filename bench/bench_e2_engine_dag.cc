// E2 (engine): cross-stage pipelining vs back-to-back jobs.
//
// The same two-stage computation — wordcount (EagerSH) feeding a framework
// sort (LazySH) — is executed two ways:
//
//   seq: two RunJob calls with a driver barrier between them (collect stage
//        1's output, re-split it, submit stage 2), the pre-engine shape.
//   dag: one engine::JobPlan run by one Executor, where each sort map task
//        depends only on the wordcount reduce partition it consumes.
//
// With fewer workers than reduce partitions, stage 1's reduces run in
// waves; in the dag the sort maps over early partitions execute alongside
// stage 1's later waves, which the executor reports as stage overlap. A
// PageRank 4-iteration DAG is measured the same way. Results (including the
// overlap) land in BENCH_e2.json.
#include <cinttypes>
#include <cstdio>

#include "bench_util.h"
#include "datagen/graph.h"
#include "datagen/random_text.h"
#include "workloads/pagerank.h"
#include "workloads/sort.h"
#include "workloads/wordcount.h"

namespace antimr {
namespace bench {
namespace {

constexpr int kNumLines = 120000;
constexpr int kMapSplits = 8;
constexpr int kReduceTasks = 8;
constexpr int kWorkers = 4;  // < kReduceTasks: reduces run in waves
constexpr int kPageRankNodes = 20000;
constexpr int kPageRankIterations = 4;

struct PipelineMeasurement {
  JobMetrics total;
  uint64_t stage_overlap_nanos = 0;
};

JobSpec EagerWordCount() {
  workloads::WordCountConfig wc;
  wc.num_reduce_tasks = kReduceTasks;
  return workloads::MakeWordCountJob(wc);
}

JobSpec LazySort() {
  workloads::SortConfig sort;
  sort.num_reduce_tasks = kReduceTasks;
  return workloads::MakeSortJob(sort);
}

/// Legacy shape: stage 2 only starts after stage 1's output is fully
/// collected by the driver.
PipelineMeasurement RunBackToBack(const std::vector<InputSplit>& lines) {
  PipelineMeasurement m;

  JobSpec count = anticombine::EnableAntiCombining(
      EagerWordCount(), anticombine::AntiCombineOptions::EagerOnly());
  RunOptions run;
  run.num_workers = kWorkers;
  JobResult counts;
  ANTIMR_CHECK_OK(RunJob(count, lines, run, &counts));
  m.total = counts.metrics;

  JobSpec sort = anticombine::EnableAntiCombining(
      LazySort(), anticombine::AntiCombineOptions::LazyOnly());
  JobResult sorted;
  ANTIMR_CHECK_OK(
      RunJob(sort, MakeSplits(counts.FlatOutput(), kReduceTasks), run,
             &sorted));
  m.total.Add(sorted.metrics);
  // Sequential by construction: wall times add, overlap is zero.
  m.total.wall_nanos = counts.metrics.wall_nanos + sorted.metrics.wall_nanos;
  return m;
}

/// Engine shape: one plan, per-partition cross-stage dependencies.
PipelineMeasurement RunDag(const std::vector<InputSplit>& lines) {
  engine::JobPlan plan;
  plan.name = "wordcount_sort";
  ANTIMR_CHECK_OK(plan.AddInput("lines", lines));

  engine::Stage count_stage;
  count_stage.name = "wordcount";
  count_stage.spec = EagerWordCount();
  count_stage.inputs = {"lines"};
  count_stage.output = "counts";
  count_stage.options.anti_combine = true;
  count_stage.options.anti_combine_options =
      anticombine::AntiCombineOptions::EagerOnly();
  plan.AddStage(std::move(count_stage));

  engine::Stage sort_stage;
  sort_stage.name = "sort";
  sort_stage.spec = LazySort();
  sort_stage.inputs = {"counts"};
  sort_stage.output = "sorted";
  sort_stage.options.anti_combine = true;
  sort_stage.options.anti_combine_options =
      anticombine::AntiCombineOptions::LazyOnly();
  plan.AddStage(std::move(sort_stage));

  engine::ExecutorOptions options;
  options.num_workers = kWorkers;
  engine::Executor executor(options);
  engine::PlanResult result;
  ANTIMR_CHECK_OK(executor.Run(plan, &result));

  PipelineMeasurement m;
  m.total = result.metrics;
  m.stage_overlap_nanos = result.stage_overlap_nanos;
  return m;
}

PipelineMeasurement RunPageRankPlan(const std::vector<KV>& graph) {
  workloads::PageRankConfig cfg;
  cfg.num_nodes = kPageRankNodes;
  cfg.num_reduce_tasks = kReduceTasks;
  engine::ExecutorOptions options;
  options.num_workers = kWorkers;
  engine::Executor executor(options);
  workloads::PageRankRunResult result;
  engine::PlanResult plan_result;
  ANTIMR_CHECK_OK(workloads::RunPageRank(cfg, graph, kPageRankIterations,
                                         nullptr, kMapSplits, &result,
                                         &executor, &plan_result));
  PipelineMeasurement m;
  m.total = result.total;
  m.stage_overlap_nanos = plan_result.stage_overlap_nanos;
  return m;
}

void PrintRow(const char* name, const PipelineMeasurement& m) {
  std::printf("%-18s wall=%-10s cpu=%-10s shuffle=%-10s overlap=%s\n", name,
              FormatNanos(m.total.wall_nanos).c_str(),
              FormatNanos(m.total.total_cpu_nanos).c_str(),
              FormatBytes(m.total.shuffle_bytes).c_str(),
              FormatNanos(m.stage_overlap_nanos).c_str());
}

void WriteReport(const PipelineMeasurement& wc_seq,
                 const PipelineMeasurement& wc_dag,
                 const PipelineMeasurement& pr_dag) {
  // The per-run stage overlap rides next to each metrics object via the
  // JsonRow extra member; the shared helper stamps the envelope.
  struct Row {
    const char* name;
    const PipelineMeasurement* m;
  };
  const Row rows[] = {{"wordcount_sort_seq", &wc_seq},
                      {"wordcount_sort_dag", &wc_dag},
                      {"pagerank_dag", &pr_dag}};
  std::vector<JsonRow> report;
  for (const Row& row : rows) {
    char extra[64];
    std::snprintf(extra, sizeof(extra), "\"stage_overlap_nanos\": %" PRIu64,
                  row.m->stage_overlap_nanos);
    JsonRow out;
    out.name = row.name;
    out.metrics = row.m->total;
    out.extra = extra;
    report.push_back(std::move(out));
  }
  WriteJsonReport("BENCH_e2.json", "bench_e2_engine_dag", report);
}

void Run() {
  Header("E2-engine: multi-stage DAG vs back-to-back jobs",
         "engine layering PR",
         "same work, two drivers: sequential RunJob calls vs one JobPlan");

  RandomTextConfig text;
  text.num_lines = kNumLines;
  text.seed = 42;
  const std::vector<InputSplit> lines =
      RandomTextGenerator(text).MakeSplits(kMapSplits);

  GraphConfig gc;
  gc.num_nodes = kPageRankNodes;
  gc.seed = 7;
  const std::vector<KV> graph = GraphGenerator(gc).Generate();

  std::printf("wordcount(EagerSH) -> sort(LazySH), %d lines, %d workers, "
              "%d reduce tasks\n",
              kNumLines, kWorkers, kReduceTasks);
  const PipelineMeasurement wc_seq = RunBackToBack(lines);
  const PipelineMeasurement wc_dag = RunDag(lines);
  PrintRow("seq (2x RunJob)", wc_seq);
  PrintRow("dag (1 plan)", wc_dag);
  std::printf("dag wall vs seq: %s\n\n",
              Percent(wc_seq.total.wall_nanos, wc_dag.total.wall_nanos)
                  .c_str());

  std::printf("pagerank, %d nodes, %d iterations\n", kPageRankNodes,
              kPageRankIterations);
  const PipelineMeasurement pr_dag = RunPageRankPlan(graph);
  PrintRow("dag (1 plan)", pr_dag);
  std::printf("\n");

  WriteReport(wc_seq, wc_dag, pr_dag);
}

}  // namespace
}  // namespace bench
}  // namespace antimr

int main() {
  antimr::bench::Run();
  return 0;
}
