// Skew analysis — paper Section 6.2, "Total cost versus running time":
// "a reducer dealing with many LazySH encoded records might receive a large
// share of additional CPU and local I/O cost ... by choosing a smaller
// threshold T, the user can control how aggressively she wants to optimize
// for lower cost at the cost of potentially longer job completion time."
//
// Query-Suggestion under the skewed Prefix-1 partitioner: hot reduce tasks
// (popular first letters) receive most LazySH records and re-execute Map for
// each, so Adaptive-inf shows a higher per-task CPU spread than Adaptive-0.
#include <algorithm>

#include "bench_util.h"
#include "datagen/qlog.h"
#include "workloads/query_suggestion.h"

using namespace antimr;         // NOLINT
using namespace antimr::bench;  // NOLINT

namespace {

struct TaskStats {
  uint64_t max_cpu = 0;
  double mean_cpu = 0;
  uint64_t max_remaps = 0;
  uint64_t total_remaps = 0;
};

TaskStats ReduceTaskStats(const JobResult& result) {
  TaskStats s;
  uint64_t total = 0;
  int count = 0;
  for (const TaskMetrics& t : result.task_metrics) {
    if (t.is_map) continue;
    total += t.metrics.total_cpu_nanos;
    s.max_cpu = std::max(s.max_cpu, t.metrics.total_cpu_nanos);
    s.max_remaps = std::max(s.max_remaps, t.metrics.remap_calls);
    s.total_remaps += t.metrics.remap_calls;
    ++count;
  }
  s.mean_cpu = count == 0 ? 0 : static_cast<double>(total) / count;
  return s;
}

}  // namespace

int main() {
  Header("Skew analysis: LazySH load imbalance vs threshold T",
         "paper Section 6.2",
         "per-reduce-task CPU under Adaptive-0 vs Adaptive-inf, Prefix-1");

  QLogConfig qc;
  qc.num_records = 15000;
  QLogGenerator gen(qc);
  const auto splits = gen.MakeSplits(8);

  workloads::QuerySuggestionConfig cfg;
  cfg.scheme = workloads::QuerySuggestionConfig::Scheme::kPrefix1;
  cfg.num_reduce_tasks = 8;
  // Make Map calls non-trivial (Figure 11's busy-work knob) so duplicate
  // executions on hot reducers are visible in task CPU.
  cfg.extra_work = 2;
  const JobSpec base = workloads::MakeQuerySuggestionJob(cfg);

  struct Variant {
    const char* label;
    anticombine::AntiCombineOptions options;
  } variants[] = {
      {"Adaptive-0 (T=0)", anticombine::AntiCombineOptions::EagerOnly()},
      {"Adaptive-alpha", anticombine::AntiCombineOptions::Alpha()},
      {"Adaptive-inf", anticombine::AntiCombineOptions::Unrestricted()},
  };

  std::printf("%-20s %12s %12s %10s %12s %12s\n", "variant", "max task cpu",
              "mean cpu", "max/mean", "remaps(max)", "remaps(all)");
  for (const Variant& v : variants) {
    RunOptions run;
    run.collect_output = false;
    run.collect_task_metrics = true;
    JobResult result;
    ANTIMR_CHECK_OK(RunJob(
        anticombine::EnableAntiCombining(base, v.options), splits, run,
        &result));
    const TaskStats s = ReduceTaskStats(result);
    std::printf("%-20s %12s %12s %9.2fx %12llu %12llu\n", v.label,
                FormatNanos(s.max_cpu).c_str(),
                FormatNanos(static_cast<uint64_t>(s.mean_cpu)).c_str(),
                s.mean_cpu == 0 ? 0 : static_cast<double>(s.max_cpu) /
                                          s.mean_cpu,
                static_cast<unsigned long long>(s.max_remaps),
                static_cast<unsigned long long>(s.total_remaps));
  }

  PaperNote("Section 6.2: LazySH concentrates duplicate Map executions on "
            "the reducers that receive the most encoded records; skew grows "
            "with T and vanishes at T=0, the knob the paper gives users to "
            "trade total cost against completion time");
  return 0;
}
