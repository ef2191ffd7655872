// Name -> JobSpec builder registry, the serialization escape hatch of the
// distributed engine: a JobSpec holds std::function factories and cannot
// cross a process boundary, so the coordinator ships (job_name, params) and
// each worker rebuilds the spec locally from the same registered builder.
// Both sides must register the same builders (workloads/registry.h does the
// standard set); a deterministic builder guarantees coordinator and workers
// agree on partitioners, comparators, and codecs.
#ifndef ANTIMR_ENGINE_JOB_REGISTRY_H_
#define ANTIMR_ENGINE_JOB_REGISTRY_H_

#include <functional>
#include <map>
#include <string>

#include "mr/job_spec.h"
#include "net/wire.h"

namespace antimr {
namespace engine {

/// Build a JobSpec from decoded string params. Unknown keys should be
/// ignored (forward compatibility); bad values return InvalidArgument.
using JobBuilder =
    std::function<Status(const std::map<std::string, std::string>& params,
                         JobSpec* spec)>;

/// Register `builder` under `name`, replacing any previous registration
/// (idempotent re-registration keeps tests simple). Thread-safe.
void RegisterJobBuilder(const std::string& name, JobBuilder builder);

/// Rebuild the spec for a registered job. NotFound when no builder exists.
/// A key given twice in `params` takes its last value.
Status BuildRegisteredJob(const std::string& name, const net::JobParams& params,
                          JobSpec* spec);

// --- param parsing helpers (shared by builders) --------------------------

/// params[key] as int, or `def` when absent. InvalidArgument on garbage.
Status ParamInt(const std::map<std::string, std::string>& params,
                const std::string& key, int def, int* out);

/// params[key] as uint64, or `def` when absent.
Status ParamUint64(const std::map<std::string, std::string>& params,
                   const std::string& key, uint64_t def, uint64_t* out);

/// params[key] as bool ("1"/"true"/"0"/"false"), or `def` when absent.
Status ParamBool(const std::map<std::string, std::string>& params,
                 const std::string& key, bool def, bool* out);

/// params[key] as a codec name (none|snappy|deflate|gzip|bzip2).
Status ParamCodec(const std::map<std::string, std::string>& params,
                  const std::string& key, CodecType def, CodecType* out);

}  // namespace engine
}  // namespace antimr

#endif  // ANTIMR_ENGINE_JOB_REGISTRY_H_
