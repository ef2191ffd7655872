#include "workloads/registry.h"

#include <map>
#include <string>

#include "anticombine/transform.h"
#include "engine/job_registry.h"
#include "mr/skew.h"
#include "workloads/sort.h"
#include "workloads/theta_join.h"
#include "workloads/wordcount.h"

namespace antimr {
namespace workloads {

namespace {

using engine::ParamBool;
using engine::ParamCodec;
using engine::ParamInt;
using engine::ParamUint64;
using Params = std::map<std::string, std::string>;

// Apply the anti_combine strategy and its knobs as the builder's last step,
// so the transform wraps the fully configured original job.
Status ApplyAntiCombine(const Params& params, JobSpec* spec) {
  auto it = params.find("anti_combine");
  const std::string mode = it == params.end() ? "off" : it->second;
  if (mode == "off") return Status::OK();
  anticombine::AntiCombineOptions options;
  if (mode == "eager") {
    options = anticombine::AntiCombineOptions::EagerOnly();
  } else if (mode == "lazy") {
    options = anticombine::AntiCombineOptions::LazyOnly();
  } else if (mode == "adaptive") {
    options = anticombine::AntiCombineOptions::Unrestricted();
  } else if (mode == "alpha") {
    options = anticombine::AntiCombineOptions::Alpha();
  } else {
    return Status::InvalidArgument("bad anti_combine mode: " + mode);
  }
  ANTIMR_RETURN_NOT_OK(ParamUint64(params, "lazy_threshold_nanos",
                                   options.lazy_threshold_nanos,
                                   &options.lazy_threshold_nanos));
  ANTIMR_RETURN_NOT_OK(ParamInt(params, "cross_call_window",
                                options.cross_call_window,
                                &options.cross_call_window));
  ANTIMR_RETURN_NOT_OK(ParamBool(params, "map_phase_combiner",
                                 options.map_phase_combiner,
                                 &options.map_phase_combiner));
  *spec = anticombine::EnableAntiCombining(*spec, options);
  return Status::OK();
}

// Apply skew-defense params *before* ApplyAntiCombine, so the anti-combine
// wrappers (and LazySH's per-record re-execution on reducers) see the salted
// keys and range pivots exactly as the map side produced them.
//   range_pivots       EncodeKeyList'd pivots -> RangePartitioner
//   skew_stage=split1  salting mapper + salt-stripping partial reducer; needs
//                      hot_keys + hot_fanout, range_pivots = salted pivots
//   skew_stage=merge   identity mapper + original reducer over stage-1
//                      partials; range_pivots = unsalted pivots
Status ApplySkewParams(const Params& params, JobSpec* spec) {
  auto pivots_it = params.find("range_pivots");
  auto stage_it = params.find("skew_stage");
  if (pivots_it == params.end() && stage_it == params.end()) {
    return Status::OK();
  }
  std::vector<std::string> pivots;
  if (pivots_it != params.end()) {
    ANTIMR_RETURN_NOT_OK(DecodeKeyList(pivots_it->second, &pivots));
  }
  if (stage_it == params.end()) {
    spec->partitioner = std::make_shared<RangePartitioner>(std::move(pivots));
    return Status::OK();
  }
  auto model = std::make_shared<SkewModel>();
  JobSpec staged;
  if (stage_it->second == "split1") {
    auto hot_it = params.find("hot_keys");
    if (hot_it == params.end()) {
      return Status::InvalidArgument("skew_stage=split1 requires hot_keys");
    }
    ANTIMR_RETURN_NOT_OK(DecodeKeyList(hot_it->second, &model->hot_keys));
    ANTIMR_RETURN_NOT_OK(
        ParamInt(params, "hot_fanout", 2, &model->hot_fanout));
    model->salted_pivots = std::move(pivots);
    ANTIMR_RETURN_NOT_OK(MakeSplitStage1Spec(*spec, model, &staged));
  } else if (stage_it->second == "merge") {
    model->pivots = std::move(pivots);
    ANTIMR_RETURN_NOT_OK(MakeSplitStage2Spec(*spec, model, &staged));
  } else {
    return Status::InvalidArgument("bad skew_stage: " + stage_it->second);
  }
  *spec = std::move(staged);
  return Status::OK();
}

Status BuildWordCount(const Params& params, JobSpec* spec) {
  WordCountConfig config;
  ANTIMR_RETURN_NOT_OK(ParamInt(params, "reduces", config.num_reduce_tasks,
                                &config.num_reduce_tasks));
  ANTIMR_RETURN_NOT_OK(
      ParamCodec(params, "codec", config.codec, &config.codec));
  ANTIMR_RETURN_NOT_OK(ParamBool(params, "combiner", config.with_combiner,
                                 &config.with_combiner));
  uint64_t buffer = config.map_buffer_bytes;
  ANTIMR_RETURN_NOT_OK(
      ParamUint64(params, "map_buffer_bytes", buffer, &buffer));
  config.map_buffer_bytes = static_cast<size_t>(buffer);
  *spec = MakeWordCountJob(config);
  ANTIMR_RETURN_NOT_OK(ApplySkewParams(params, spec));
  return ApplyAntiCombine(params, spec);
}

Status BuildSort(const Params& params, JobSpec* spec) {
  SortConfig config;
  ANTIMR_RETURN_NOT_OK(ParamInt(params, "reduces", config.num_reduce_tasks,
                                &config.num_reduce_tasks));
  ANTIMR_RETURN_NOT_OK(
      ParamCodec(params, "codec", config.codec, &config.codec));
  uint64_t buffer = config.map_buffer_bytes;
  ANTIMR_RETURN_NOT_OK(
      ParamUint64(params, "map_buffer_bytes", buffer, &buffer));
  config.map_buffer_bytes = static_cast<size_t>(buffer);
  *spec = MakeSortJob(config);
  ANTIMR_RETURN_NOT_OK(ApplySkewParams(params, spec));
  return ApplyAntiCombine(params, spec);
}

Status BuildThetaJoin(const Params& params, JobSpec* spec) {
  ThetaJoinConfig config;
  ANTIMR_RETURN_NOT_OK(ParamInt(params, "reduces", config.num_reduce_tasks,
                                &config.num_reduce_tasks));
  ANTIMR_RETURN_NOT_OK(
      ParamCodec(params, "codec", config.codec, &config.codec));
  ANTIMR_RETURN_NOT_OK(
      ParamInt(params, "grid_rows", config.grid_rows, &config.grid_rows));
  ANTIMR_RETURN_NOT_OK(
      ParamInt(params, "grid_cols", config.grid_cols, &config.grid_cols));
  ANTIMR_RETURN_NOT_OK(ParamInt(params, "latitude_band", config.latitude_band,
                                &config.latitude_band));
  ANTIMR_RETURN_NOT_OK(ParamUint64(params, "salt", config.salt, &config.salt));
  uint64_t buffer = config.map_buffer_bytes;
  ANTIMR_RETURN_NOT_OK(
      ParamUint64(params, "map_buffer_bytes", buffer, &buffer));
  config.map_buffer_bytes = static_cast<size_t>(buffer);
  *spec = MakeThetaJoinJob(config);
  ANTIMR_RETURN_NOT_OK(ApplySkewParams(params, spec));
  return ApplyAntiCombine(params, spec);
}

}  // namespace

void RegisterStandardJobs() {
  engine::RegisterJobBuilder("wordcount", BuildWordCount);
  engine::RegisterJobBuilder("sort", BuildSort);
  engine::RegisterJobBuilder("theta_join", BuildThetaJoin);
}

}  // namespace workloads
}  // namespace antimr
