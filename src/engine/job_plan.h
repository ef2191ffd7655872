// The logical layer of the execution engine: a JobPlan is a DAG of stages,
// each a complete MapReduce JobSpec wired to named input/output datasets.
// Per-stage knobs — the Anti-Combining options — live here because real
// pipelines tune them per stage: an aggregation stage with heavy value
// sharing wants EagerSH while a re-sort stage downstream wants LazySH or none
// at all (the per-job knobs of the paper's Section 6 become per-stage knobs
// of a pipeline).
//
// A JobPlan is purely declarative. The planner (engine/planner.h) lowers it
// into one dependency-aware TaskGraph, and the Executor (engine/executor.h)
// runs that graph over a persistent TaskPool.
#ifndef ANTIMR_ENGINE_JOB_PLAN_H_
#define ANTIMR_ENGINE_JOB_PLAN_H_

#include <map>
#include <string>
#include <vector>

#include "anticombine/options.h"
#include "mr/job_spec.h"
#include "net/wire.h"

namespace antimr {
namespace engine {

/// Per-stage execution knobs.
struct StageOptions {
  /// Apply the Anti-Combining transform to this stage's JobSpec.
  bool anti_combine = false;
  /// Options for the transform when anti_combine is set.
  anticombine::AntiCombineOptions anti_combine_options;
};

/// \brief One stage of a pipeline: a JobSpec plus dataset wiring.
///
/// A registered stage (MakeRegisteredStage) can run on remote workers, which
/// rebuild `spec` from its `builder` and `params`. Its params carry its
/// Anti-Combining strategy, so options.anti_combine must stay off.
struct Stage {
  std::string name;
  JobSpec spec;
  std::string builder;  ///< registered builder name; "" = local-only stage
  net::JobParams params;  ///< builder params, shipped verbatim to workers
  /// Dataset names this stage maps over. Each must be either an external
  /// input (JobPlan::AddInput) or the output of exactly one other stage.
  std::vector<std::string> inputs;
  /// Dataset name this stage's reduce output is published under.
  std::string output;
  StageOptions options;
};

/// \brief A DAG of stages over named datasets.
///
/// Build with AddInput/AddStage in any order; Validate checks the shape
/// (every input resolvable, one producer per dataset, acyclic). Stage
/// N+1's map tasks consume the *partitions* of stage N's output dataset,
/// which is what lets the planner pipeline across stages: a downstream map
/// task starts the moment the one partition it reads is published, not when
/// the whole upstream stage finishes.
class JobPlan {
 public:
  std::string name = "plan";

  /// Register an external input dataset backed by ready-made splits.
  /// Returns InvalidArgument if the dataset name is already taken.
  Status AddInput(const std::string& dataset, std::vector<InputSplit> splits);

  /// Append a stage; returns its index. Wiring errors surface in Validate.
  int AddStage(Stage stage);

  /// Check the whole plan: per-stage JobSpec validity, dataset wiring
  /// (unique producers, resolvable inputs), and acyclicity.
  Status Validate() const;

  /// Stage indexes in a dependency-respecting order. Returns
  /// InvalidArgument on a cycle.
  Status TopologicalOrder(std::vector<int>* order) const;

  /// Producing stage index for `dataset`, or -1 (external or unknown).
  int ProducerOf(const std::string& dataset) const;

  /// Number of stages that list `dataset` as an input.
  int ConsumerCount(const std::string& dataset) const;

  /// True when no stage consumes `stage`'s output (a plan output).
  bool IsSink(int stage) const;

  /// Map tasks a stage runs over `dataset`: one per split of an external
  /// input, one per reduce partition of an intermediate one.
  int NumSplits(const std::string& dataset) const;

  const std::vector<Stage>& stages() const { return stages_; }
  const std::map<std::string, std::vector<InputSplit>>& external_inputs()
      const {
    return external_inputs_;
  }

 private:
  std::vector<Stage> stages_;
  std::map<std::string, std::vector<InputSplit>> external_inputs_;
};

/// Build `stage->spec` from the registered `builder` and `params` and record
/// both on the stage (its name defaults to the builder's). NotFound for an
/// unknown builder; the builder's own errors otherwise.
Status MakeRegisteredStage(const std::string& builder, net::JobParams params,
                           Stage* stage);

}  // namespace engine
}  // namespace antimr

#endif  // ANTIMR_ENGINE_JOB_PLAN_H_
