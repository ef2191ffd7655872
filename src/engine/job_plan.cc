#include "engine/job_plan.h"

#include <utility>

#include "engine/job_registry.h"

namespace antimr {
namespace engine {

Status JobPlan::AddInput(const std::string& dataset,
                         std::vector<InputSplit> splits) {
  if (dataset.empty()) {
    return Status::InvalidArgument("JobPlan: input dataset name is empty");
  }
  if (external_inputs_.count(dataset) > 0) {
    return Status::InvalidArgument("JobPlan: duplicate input dataset " +
                                   dataset);
  }
  external_inputs_.emplace(dataset, std::move(splits));
  return Status::OK();
}

int JobPlan::AddStage(Stage stage) {
  stages_.push_back(std::move(stage));
  return static_cast<int>(stages_.size()) - 1;
}

int JobPlan::ProducerOf(const std::string& dataset) const {
  for (size_t i = 0; i < stages_.size(); ++i) {
    if (stages_[i].output == dataset) return static_cast<int>(i);
  }
  return -1;
}

int JobPlan::ConsumerCount(const std::string& dataset) const {
  int count = 0;
  for (const Stage& stage : stages_) {
    for (const std::string& input : stage.inputs) {
      if (input == dataset) ++count;
    }
  }
  return count;
}

bool JobPlan::IsSink(int stage) const {
  return ConsumerCount(stages_[static_cast<size_t>(stage)].output) == 0;
}

int JobPlan::NumSplits(const std::string& dataset) const {
  const int producer = ProducerOf(dataset);
  return producer >= 0
             ? stages_[static_cast<size_t>(producer)].spec.num_reduce_tasks
             : static_cast<int>(external_inputs_.at(dataset).size());
}

Status MakeRegisteredStage(const std::string& builder, net::JobParams params,
                           Stage* stage) {
  ANTIMR_RETURN_NOT_OK(BuildRegisteredJob(builder, params, &stage->spec));
  if (stage->name.empty()) stage->name = builder;
  stage->builder = builder;
  stage->params = std::move(params);
  return Status::OK();
}

Status JobPlan::Validate() const {
  if (stages_.empty()) {
    return Status::InvalidArgument("JobPlan: no stages");
  }
  for (size_t i = 0; i < stages_.size(); ++i) {
    const Stage& stage = stages_[i];
    ANTIMR_RETURN_NOT_OK(stage.spec.Validate());
    // Plan-time partitioner check: a bad partition count must surface here
    // as a permanent InvalidArgument, not as modulo-by-zero UB mid-task.
    ANTIMR_RETURN_NOT_OK(stage.spec.partitioner->ValidatePartitions(
        stage.spec.num_reduce_tasks));
    if (!stage.builder.empty() && stage.options.anti_combine) {
      // A registered spec carries its strategy from its params already.
      return Status::InvalidArgument("JobPlan: registered stage " +
                                     stage.name + " must not set anti_combine");
    }
    if (stage.output.empty()) {
      return Status::InvalidArgument("JobPlan: stage " + stage.name +
                                     " has no output dataset");
    }
    if (stage.inputs.empty()) {
      return Status::InvalidArgument("JobPlan: stage " + stage.name +
                                     " has no input datasets");
    }
    if (external_inputs_.count(stage.output) > 0) {
      return Status::InvalidArgument("JobPlan: dataset " + stage.output +
                                     " is both an external input and the "
                                     "output of stage " +
                                     stage.name);
    }
    for (size_t j = i + 1; j < stages_.size(); ++j) {
      if (stages_[j].output == stage.output) {
        return Status::InvalidArgument("JobPlan: dataset " + stage.output +
                                       " has two producing stages");
      }
    }
    for (const std::string& input : stage.inputs) {
      if (external_inputs_.count(input) == 0 && ProducerOf(input) < 0) {
        return Status::InvalidArgument("JobPlan: stage " + stage.name +
                                       " reads unknown dataset " + input);
      }
    }
  }
  std::vector<int> order;
  return TopologicalOrder(&order);
}

Status JobPlan::TopologicalOrder(std::vector<int>* order) const {
  // Kahn's algorithm over stage->stage edges induced by dataset wiring.
  const size_t n = stages_.size();
  std::vector<int> in_degree(n, 0);
  std::vector<std::vector<int>> out_edges(n);
  for (size_t i = 0; i < n; ++i) {
    for (const std::string& input : stages_[i].inputs) {
      const int producer = ProducerOf(input);
      if (producer >= 0) {
        if (producer == static_cast<int>(i)) {
          return Status::InvalidArgument("JobPlan: stage " + stages_[i].name +
                                         " consumes its own output");
        }
        out_edges[static_cast<size_t>(producer)].push_back(
            static_cast<int>(i));
        ++in_degree[i];
      }
    }
  }
  order->clear();
  order->reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (in_degree[i] == 0) order->push_back(static_cast<int>(i));
  }
  for (size_t head = 0; head < order->size(); ++head) {
    for (int next : out_edges[static_cast<size_t>((*order)[head])]) {
      if (--in_degree[static_cast<size_t>(next)] == 0) order->push_back(next);
    }
  }
  if (order->size() != n) {
    return Status::InvalidArgument("JobPlan: stage graph has a cycle");
  }
  return Status::OK();
}

}  // namespace engine
}  // namespace antimr
