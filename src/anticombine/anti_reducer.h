// AntiReducer: the reducer-side half of the syntactic transformation (paper
// Figure 8, Algorithms 2 and 4). Decodes EagerSH/LazySH records into Shared,
// re-executes the original Map + Partition for LazySH records, and drives the
// original Reduce over the merged stream of regular input and Shared, in key
// order. AntiCombiner applies the same treatment to a Combiner so map-phase
// combining can run over encoded records (paper Section 6.1).
#ifndef ANTIMR_ANTICOMBINE_ANTI_REDUCER_H_
#define ANTIMR_ANTICOMBINE_ANTI_REDUCER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "anticombine/anti_mapper.h"
#include "anticombine/options.h"
#include "anticombine/shared.h"
#include "common/arena.h"
#include "common/hash.h"
#include "mr/api.h"

namespace antimr {
namespace anticombine {

/// \brief Decoding reducer.
class AntiReducer : public Reducer {
 public:
  /// \param o_reducer_factory the original program's reducer
  /// \param o_mapper_factory  the original mapper, re-executed for LazySH
  /// \param o_combiner_factory original combiner or null; applied inside
  ///        Shared when options.combine_in_shared is set
  AntiReducer(ReducerFactory o_reducer_factory, MapperFactory o_mapper_factory,
              ReducerFactory o_combiner_factory, AntiCombineOptions options);

  void Setup(const TaskInfo& info, ReduceContext* ctx) override;
  void Reduce(const Slice& key, ValueIterator* values,
              ReduceContext* ctx) override;
  void Cleanup(ReduceContext* ctx) override;

 private:
  /// Run the original Reduce on the Shared groups strictly before `key`
  /// (the repeat-until loop of Algorithms 2 and 4). With `to_end` set,
  /// drains everything (the cleanup path).
  void DrainShared(const Slice& key, bool to_end, ReduceContext* ctx);

  /// Decode one incoming record into Shared.
  void DecodeValue(const Slice& rep_key, const Slice& payload);

  ReducerFactory o_reducer_factory_;
  MapperFactory o_mapper_factory_;
  ReducerFactory o_combiner_factory_;
  AntiCombineOptions options_;

  TaskInfo info_;
  std::unique_ptr<Reducer> o_reducer_;
  std::unique_ptr<Mapper> o_mapper_;
  std::unique_ptr<Reducer> o_combiner_;
  std::unique_ptr<Shared> shared_;
  CaptureContext remap_capture_;
  std::vector<KV> discard_;  // sink for Setup-time emissions of sub-objects

  // Scratch reused across Reduce calls to avoid per-group allocations. The
  // local-group fast path interns each plain record once into local_arena_
  // (cleared per Reduce call) instead of materializing two strings per
  // record.
  Arena local_arena_;
  std::vector<RecordRef> local_group_;
  std::vector<Slice> local_values_;
  std::vector<Slice> decode_keys_;
  std::string group_key_;
  std::vector<Slice> group_values_;  // views into Shared's latest pop
  std::vector<bool> mine_;
};

/// \brief Anti-Combining-aware Combiner wrapper.
///
/// Runs in the map phase over *encoded* records: decodes the records of its
/// partition, applies the original Combiner per key, and re-encodes the
/// combined output with EagerSH (grouping by combined value across keys),
/// emitting in key order so the segment stays merge-compatible.
class AntiCombiner : public Reducer {
 public:
  AntiCombiner(ReducerFactory o_combiner_factory,
               MapperFactory o_mapper_factory);

  void Setup(const TaskInfo& info, ReduceContext* ctx) override;
  void Reduce(const Slice& key, ValueIterator* values,
              ReduceContext* ctx) override;
  void Cleanup(ReduceContext* ctx) override;

 private:
  void DecodeValue(const Slice& rep_key, const Slice& payload);
  /// Intern (key, value) into the accumulator; the arena owns all bytes.
  void AddAcc(const Slice& key, const Slice& value);

  ReducerFactory o_combiner_factory_;
  MapperFactory o_mapper_factory_;

  TaskInfo info_;
  std::unique_ptr<Reducer> o_combiner_;
  std::unique_ptr<Mapper> o_mapper_;
  CaptureContext remap_capture_;

  /// Decoded records accumulated across the whole combine pass; sorted by
  /// the key comparator once, in Cleanup (cheaper than an ordered map for
  /// the hot insert path). Keys and values are views into acc_arena_ — each
  /// distinct key is interned once, each value once, instead of a
  /// std::string pair per decoded record.
  Arena acc_arena_;
  std::unordered_map<Slice, std::vector<Slice>, SliceHash> acc_;
};

}  // namespace anticombine
}  // namespace antimr

#endif  // ANTIMR_ANTICOMBINE_ANTI_REDUCER_H_
