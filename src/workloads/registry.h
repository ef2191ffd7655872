// Registers the standard workloads with the engine's job registry so
// coordinator and worker processes can rebuild identical JobSpecs from
// (name, params) pairs shipped over the wire.
//
// Registered names and their params (all optional, all string-encoded):
//
//   "wordcount"   reduces, codec, combiner, map_buffer_bytes
//   "sort"        reduces, codec, map_buffer_bytes
//   "theta_join"  reduces, codec, grid_rows, grid_cols, latitude_band,
//                 salt, map_buffer_bytes
//
// Every job additionally honors the Anti-Combining params, applied as the
// final step of the builder so the transform sees the fully configured spec:
//
//   anti_combine = off | eager | lazy | adaptive | alpha   (default off)
//   lazy_threshold_nanos = <uint64>   (overrides the mode's threshold T)
//   cross_call_window = <int>         (window W, default 1)
//   map_phase_combiner = 0 | 1        (the paper's flag C, default 1)
#ifndef ANTIMR_WORKLOADS_REGISTRY_H_
#define ANTIMR_WORKLOADS_REGISTRY_H_

namespace antimr {
namespace workloads {

/// Register the standard job builders. Idempotent; call once per process
/// before running distributed jobs (both coordinator and worker side).
void RegisterStandardJobs();

}  // namespace workloads
}  // namespace antimr

#endif  // ANTIMR_WORKLOADS_REGISTRY_H_
