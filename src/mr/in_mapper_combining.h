// The in-mapper combining design pattern (Lin & Dyer, "Data-Intensive Text
// Processing with MapReduce" — the paper's reference [16] and Section 1):
// aggregate map output inside the mapper's own memory instead of relying on
// spill-time Combiner passes. Provided as a wrapper so any (mapper,
// combiner) pair gets the pattern without code changes — and so the bench
// suite can compare it against Combiners and Anti-Combining.
#ifndef ANTIMR_MR_IN_MAPPER_COMBINING_H_
#define ANTIMR_MR_IN_MAPPER_COMBINING_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/arena.h"
#include "common/hash.h"
#include "mr/api.h"
#include "mr/job_spec.h"

namespace antimr {

/// \brief Mapper wrapper that buffers and combines output in-mapper.
///
/// Output records accumulate in a hash table keyed by the intermediate key;
/// when the table exceeds `memory_budget` bytes (and at Cleanup) each key's
/// values are run through the combiner and the results emitted downstream.
class InMapperCombiningMapper : public Mapper {
 public:
  InMapperCombiningMapper(MapperFactory base_factory,
                          ReducerFactory combiner_factory,
                          size_t memory_budget = 4 * 1024 * 1024);

  void Setup(const TaskInfo& info, MapContext* ctx) override;
  void Map(const Slice& key, const Slice& value, MapContext* ctx) override;
  void Cleanup(MapContext* ctx) override;

 private:
  /// Collects the wrapped mapper's emissions into the table.
  class BufferingContext;

  void Add(const Slice& key, const Slice& value);
  void Flush(MapContext* ctx);

  MapperFactory base_factory_;
  ReducerFactory combiner_factory_;
  size_t memory_budget_;

  std::unique_ptr<Mapper> base_;
  std::unique_ptr<Reducer> combiner_;
  std::unique_ptr<BufferingContext> buffer_ctx_;
  Arena arena_;  ///< table_'s keys and values
  std::unordered_map<Slice, std::vector<Slice>, SliceHash> table_;
  size_t memory_bytes_ = 0;
};

/// Convenience: rewrite `spec` so its mapper applies in-mapper combining
/// with the job's own Combiner (which is removed from the spill path, as
/// the pattern prescribes). The rewritten spec is not `deterministic`: a
/// Map call's emissions depend on the calls before it, so Anti-Combining
/// keeps it to EagerSH.
JobSpec ApplyInMapperCombining(const JobSpec& spec,
                               size_t memory_budget = 4 * 1024 * 1024);

}  // namespace antimr

#endif  // ANTIMR_MR_IN_MAPPER_COMBINING_H_
