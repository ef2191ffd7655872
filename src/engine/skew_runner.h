// The skew-defense plan builder (mr/skew.h), shared by local and
// distributed runs. The sampling pass runs on the driver with the job's own
// untransformed mapper; what it learns enters the plan as builder params —
// range_pivots, skew_stage, hot_keys, hot_fanout — that the job registry
// turns into per-stage JobSpecs (workloads::ApplySkewParams) before the
// Anti-Combining strategy. The plan is one range-partitioned stage, or the
// split1 -> merge fix-up chain when hot keys were found. Its stages are all
// registered, so it runs on the Executor or, through the RemoteRunner, on a
// cluster whose workers rebuild the identical salted pipeline (so LazySH
// re-execution sees the keys the map side produced). Either way the output
// equals the unsplit run of the same job as a key/value multiset.
#ifndef ANTIMR_ENGINE_SKEW_RUNNER_H_
#define ANTIMR_ENGINE_SKEW_RUNNER_H_

#include <string>
#include <vector>

#include "engine/job_plan.h"
#include "mr/skew.h"

namespace antimr {
namespace engine {

struct SkewPlanOptions {
  SkewSampleOptions sample;
  /// Salt superfrequent keys and add the merge fix-up stage when the sample
  /// finds any. Off = plain range partitioning from the sampled pivots.
  bool hot_key_split = true;
};

/// Sample `splits` with the registered job `builder`/`params` (its strategy
/// switched off) and build the plan from registered stages that carry
/// `params` plus the skew params. On return *output_dataset names the sink
/// dataset and, when `model_out` is set, it holds what the sampling pass
/// learned (pivots, hot keys).
Status MakeSkewPlan(const std::string& builder, const net::JobParams& params,
                    std::vector<InputSplit> splits,
                    const SkewPlanOptions& options, JobPlan* plan,
                    std::string* output_dataset,
                    SkewModel* model_out = nullptr);

}  // namespace engine
}  // namespace antimr

#endif  // ANTIMR_ENGINE_SKEW_RUNNER_H_
