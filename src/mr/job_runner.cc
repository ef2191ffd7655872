#include "mr/job_runner.h"

#include <utility>

#include "engine/executor.h"
#include "engine/job_plan.h"

namespace antimr {

std::vector<KV> JobResult::FlatOutput() const {
  std::vector<KV> flat;
  for (const auto& task_output : outputs) {
    flat.insert(flat.end(), task_output.begin(), task_output.end());
  }
  return flat;
}

Status RunJob(const JobSpec& spec, const std::vector<InputSplit>& splits,
              const RunOptions& options, JobResult* result) {
  // One-stage plan: "in" -> spec -> "out". The spec is taken as-is (callers
  // apply EnableAntiCombining themselves in this legacy API).
  engine::JobPlan plan;
  plan.name = spec.name;
  ANTIMR_RETURN_NOT_OK(plan.AddInput("in", splits));
  engine::Stage stage;
  stage.name = spec.name;
  stage.spec = spec;
  stage.inputs = {"in"};
  stage.output = "out";
  plan.AddStage(std::move(stage));

  engine::ExecutorOptions exec_options;
  exec_options.num_workers = options.num_workers;
  exec_options.env = options.env;
  exec_options.collect_outputs = options.collect_output;
  exec_options.cleanup_intermediates = options.cleanup_intermediates;
  exec_options.hardware = options.hardware;
  exec_options.collect_task_metrics = options.collect_task_metrics;
  exec_options.run_id = options.job_id;
  exec_options.max_task_attempts = options.max_task_attempts;
  exec_options.retry_backoff_nanos = options.retry_backoff_nanos;

  engine::Executor executor(exec_options);
  engine::PlanResult plan_result;
  const Status status = executor.Run(plan, &plan_result);

  result->metrics = plan_result.metrics;
  result->outputs.clear();
  result->task_metrics.clear();
  if (!plan_result.stages.empty()) {
    result->task_metrics = std::move(plan_result.stages[0].tasks);
  }
  auto it = plan_result.outputs.find("out");
  if (it != plan_result.outputs.end()) {
    result->outputs = std::move(it->second);
  }
  return status;
}

Status RunJob(const JobSpec& spec, const std::vector<InputSplit>& splits,
              JobResult* result) {
  return RunJob(spec, splits, RunOptions(), result);
}

}  // namespace antimr
