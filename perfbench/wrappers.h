// Wrappers that time the program's layers from outside (spans.h). They are
// applied to the specs and Envs of traced jobs only.
//
// A traced spec is built in three steps, so the same user functions are
// timed in both of their roles:
//   WrapUserFunctions(original)        workloads.* spans around the user's
//                                      Map, Partition and Reduce
//   anticombine::EnableAntiCombining   the program's own transform
//   WrapAntiCombined(transformed)      anticombine.* spans around the
//                                      transformed mapper and reducer
// The transformed reducer re-executes the wrapped user Map for LazySH, so
// those calls show up as workloads.map spans nested in anticombine.reduce.
#ifndef PERFBENCH_WRAPPERS_H_
#define PERFBENCH_WRAPPERS_H_

#include <memory>

#include "io/env.h"
#include "mr/job_spec.h"

namespace perfbench {

antimr::JobSpec WrapUserFunctions(const antimr::JobSpec& original);

antimr::JobSpec WrapAntiCombined(const antimr::JobSpec& transformed);

/// Env decorator that records io.write / io.read spans and byte counts for
/// every file operation while spans are enabled. `base` must outlive it.
std::unique_ptr<antimr::Env> NewTimingEnv(antimr::Env* base);

}  // namespace perfbench

#endif  // PERFBENCH_WRAPPERS_H_
