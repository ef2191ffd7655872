// AntiReducer: the reducer-side half of the syntactic transformation (paper
// Figure 8, Algorithms 2 and 4). Decodes EagerSH/LazySH records into Shared,
// re-executes the original Map + Partition for LazySH records, and drives the
// original Reduce over the merged stream of regular input and Shared, in key
// order. AntiCombiner applies the same treatment to a Combiner so map-phase
// combining can run over encoded records (paper Section 6.1). Both decode
// through one RecordDecoder; the AntiCombiner re-encodes through the
// AntiMapper's BatchEncoder.
#ifndef ANTIMR_ANTICOMBINE_ANTI_REDUCER_H_
#define ANTIMR_ANTICOMBINE_ANTI_REDUCER_H_

#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "anticombine/anti_mapper.h"
#include "anticombine/options.h"
#include "anticombine/shared.h"
#include "common/arena.h"
#include "common/hash.h"
#include "mr/api.h"

namespace antimr {
namespace anticombine {

/// \brief Map sink for LazySH decoding: keeps only the records of one
/// shuffle partition.
///
/// The Partitioner runs as each record is emitted, and only the records
/// `info.shuffle_partition` owns are copied; the rest of the re-executed
/// Map's output is never interned. Kept views are stable until Clear().
class PartitionFilterContext : public MapContext {
 public:
  /// Keep the records that `info.partitioner` assigns to
  /// `info.shuffle_partition` of `info.num_reduce_tasks`. Clears.
  void Bind(const TaskInfo& info);

  void Emit(const Slice& key, const Slice& value) override {
    if (partitioner_->Partition(key, num_partitions_) == partition_) {
      kept_.Emit(key, value);
    }
  }

  const CaptureContext& kept() const { return kept_; }
  void Clear() { kept_.Clear(); }

 private:
  const Partitioner* partitioner_ = nullptr;
  int num_partitions_ = 1;
  int partition_ = 0;
  CaptureContext kept_;
};

/// \brief Algorithms 2 and 4's decode of one encoded record, shared by the
/// AntiReducer and the map-side AntiCombiner.
///
/// An EagerSH record decodes to its keys with its one value; a LazySH record
/// re-executes the original Map and decodes to the records it emits for
/// `info.shuffle_partition`. Owns the re-executed mapper from Setup to
/// Cleanup.
class RecordDecoder {
 public:
  explicit RecordDecoder(MapperFactory o_mapper_factory)
      : o_mapper_factory_(std::move(o_mapper_factory)) {}

  /// Create the original mapper and run its Setup, discarding emissions
  /// (they were already shipped by the map phase).
  void Setup(const TaskInfo& info);
  /// Run the original mapper's Cleanup, discarding emissions.
  void Cleanup();

  /// Decode `payload`, the value of the record keyed `rep_key`, into
  /// *records, which stays valid until the next Decode. Called in
  /// Phase::decode; a LazySH record leaves the clock in Phase::remap. A
  /// malformed payload is Corruption.
  Status Decode(const Slice& rep_key, const Slice& payload,
                std::span<const RecordRef>* records);

 private:
  MapperFactory o_mapper_factory_;
  std::unique_ptr<Mapper> o_mapper_;
  JobMetrics* metrics_ = nullptr;
  PartitionFilterContext remap_;
  std::vector<Slice> keys_;
  std::vector<RecordRef> eager_records_;  // an EagerSH record's keys
};

/// \brief Decoding reducer.
///
/// Errors (a corrupt encoded record, a failed Shared spill) go to
/// ReduceContext::Fail, which fails the reduce task with them.
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
  Status DrainShared(const Slice& key, bool to_end, ReduceContext* ctx);

  /// Decode one incoming record into Shared. A malformed payload is
  /// Corruption; Shared's spill errors keep their code.
  Status DecodeIntoShared(const Slice& rep_key, const Slice& payload);

  /// The body of Reduce; its error goes to ctx->Fail.
  Status ReduceGroup(const Slice& key, ValueIterator* values,
                     ReduceContext* ctx);

  ReducerFactory o_reducer_factory_;
  ReducerFactory o_combiner_factory_;
  AntiCombineOptions options_;

  TaskInfo info_;
  std::unique_ptr<Reducer> o_reducer_;
  RecordDecoder decoder_;
  std::unique_ptr<Reducer> o_combiner_;
  std::unique_ptr<Shared> shared_;

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
};

/// \brief Anti-Combining-aware Combiner wrapper.
///
/// Runs in the map phase over *encoded* records of one partition: decodes
/// them, applies the original Combiner per key, and re-encodes the combined
/// output with EagerSH through BatchEncoder (grouping by combined value
/// across keys), emitting in key order so the segment stays
/// merge-compatible. A corrupt encoded record goes to ReduceContext::Fail
/// as Corruption.
class AntiCombiner : public Reducer {
 public:
  AntiCombiner(ReducerFactory o_combiner_factory,
               MapperFactory o_mapper_factory);

  void Setup(const TaskInfo& info, ReduceContext* ctx) override;
  void Reduce(const Slice& key, ValueIterator* values,
              ReduceContext* ctx) override;
  void Cleanup(ReduceContext* ctx) override;

 private:
  /// Intern (key, value) into the accumulator; the arena owns all bytes.
  void AddAcc(const Slice& key, const Slice& value);

  ReducerFactory o_combiner_factory_;

  TaskInfo info_;
  std::unique_ptr<Reducer> o_combiner_;
  RecordDecoder decoder_;

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
