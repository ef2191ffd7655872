#include "engine/skew_runner.h"

#include <utility>

#include "engine/job_registry.h"

namespace antimr {
namespace engine {

Status MakeSkewPlan(const std::string& builder, const net::JobParams& params,
                    std::vector<InputSplit> splits,
                    const SkewPlanOptions& options, JobPlan* plan,
                    std::string* output_dataset, SkewModel* model_out) {
  // The sample models the job's own mapper, not the anti-combining wrapper.
  // (A builder reads its params in order, so a later value overrides.)
  net::JobParams base = params;
  base.emplace_back("anti_combine", "off");
  JobSpec spec;
  ANTIMR_RETURN_NOT_OK(BuildRegisteredJob(builder, base, &spec));
  SkewModel model;
  ANTIMR_RETURN_NOT_OK(BuildSkewModel(spec, splits, options.sample, &model));
  if (model_out != nullptr) *model_out = model;

  plan->name = spec.name + "_skew";
  const std::string input = spec.name + "_in";
  *output_dataset = spec.name + "_out";
  ANTIMR_RETURN_NOT_OK(plan->AddInput(input, std::move(splits)));

  auto add_stage = [&](const std::string& suffix, net::JobParams stage_params,
                       const std::string& in, const std::string& out) {
    Stage stage;
    stage.name = spec.name + suffix;
    stage.inputs = {in};
    stage.output = out;
    ANTIMR_RETURN_NOT_OK(
        MakeRegisteredStage(builder, std::move(stage_params), &stage));
    plan->AddStage(std::move(stage));
    return Status::OK();
  };

  if (!options.hot_key_split || !model.HasHotKeys()) {
    net::JobParams ranged = params;
    ranged.emplace_back("range_pivots", EncodeKeyList(model.pivots));
    return add_stage("_range", std::move(ranged), input, *output_dataset);
  }

  const std::string partials = spec.name + "_partials";
  net::JobParams split1 = params;
  split1.emplace_back("skew_stage", "split1");
  split1.emplace_back("range_pivots", EncodeKeyList(model.salted_pivots));
  split1.emplace_back("hot_keys", EncodeKeyList(model.hot_keys));
  split1.emplace_back("hot_fanout", std::to_string(model.hot_fanout));
  ANTIMR_RETURN_NOT_OK(add_stage("_split1", std::move(split1), input,
                                 partials));
  net::JobParams merge = params;
  merge.emplace_back("skew_stage", "merge");
  merge.emplace_back("range_pivots", EncodeKeyList(model.pivots));
  return add_stage("_merge", std::move(merge), partials, *output_dataset);
}

}  // namespace engine
}  // namespace antimr
