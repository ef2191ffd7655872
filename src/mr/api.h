// The user-facing MapReduce programming model: Mapper, Reducer (a Combiner is
// a Reducer, as in Hadoop), Partitioner, and the contexts they emit into.
// Records are opaque byte strings; programs serialize typed fields through
// common/coding.h. Records move one at a time, as views: a RecordSource
// hands the map loop one record per NextRef, Map emits one per Emit, and
// Reduce reads one value per ValueIterator::Next; every view is valid until
// the next call on whatever produced it.
#ifndef ANTIMR_MR_API_H_
#define ANTIMR_MR_API_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "codec/codec.h"
#include "common/arena.h"
#include "common/slice.h"
#include "common/status.h"
#include "io/env.h"
#include "io/merger.h"

namespace antimr {

/// A materialized key/value record. The owning-string counterpart of
/// RecordRef (common/arena.h); the hot record path moves RecordRef views,
/// KV remains the user-facing type for inputs and collected outputs.
struct KV {
  std::string key;
  std::string value;

  KV() = default;
  KV(std::string k, std::string v) : key(std::move(k)), value(std::move(v)) {}
  /// Materialize a view-typed record (copies both byte ranges).
  explicit KV(const RecordRef& ref)
      : key(ref.key.data(), ref.key.size()),
        value(ref.value.data(), ref.value.size()) {}

  /// Borrow this record as views (valid while *this is alive, unmoved).
  RecordRef ref() const { return RecordRef(Slice(key), Slice(value)); }

  bool operator==(const KV& other) const = default;
};

/// \brief Assigns intermediate keys to reduce tasks.
///
/// Implementations must be stateless and thread-safe: one instance is shared
/// by all tasks, and Anti-Combining re-invokes it on reducers (LazySH decode).
class Partitioner {
 public:
  virtual ~Partitioner() = default;
  /// Return the reduce task in [0, num_partitions) for `key`. Callers must
  /// have validated num_partitions (ValidatePartitions) at plan time;
  /// Partition itself clamps a non-positive count to partition 0 rather
  /// than hitting modulo-by-zero UB.
  virtual int Partition(const Slice& key, int num_partitions) const = 0;

  /// Plan-time validation of the partition count this partitioner will be
  /// asked to cover. The base check rejects num_partitions <= 0 with a
  /// permanent InvalidArgument (never retried); subclasses may add checks
  /// but must call the base first.
  virtual Status ValidatePartitions(int num_partitions) const;
};

/// Default partitioner: hash(key) mod num_partitions.
class HashPartitioner : public Partitioner {
 public:
  int Partition(const Slice& key, int num_partitions) const override;
};

/// Range partitioner over sorted pivots built from an input sample
/// (mr/skew.h). pivots holds num_partitions - 1 bytewise-sorted boundary
/// keys (duplicates allowed); Partition(key) is the index of the first
/// pivot > key (upper_bound), clamped to num_partitions - 1, so partition p
/// receives keys in (pivot[p-1], pivot[p]]. An empty pivot list (empty
/// sample) falls back to hash partitioning. Stateless after construction,
/// so LazySH re-invocation on reducers sees identical placements.
class RangePartitioner : public Partitioner {
 public:
  explicit RangePartitioner(std::vector<std::string> pivots);

  int Partition(const Slice& key, int num_partitions) const override;
  Status ValidatePartitions(int num_partitions) const override;

  const std::vector<std::string>& pivots() const { return pivots_; }

 private:
  std::vector<std::string> pivots_;  ///< bytewise-sorted boundary keys
};

std::shared_ptr<const Partitioner> DefaultPartitioner();

class JobMetrics;  // defined in mr/metrics.h

/// \brief Per-task environment handed to Setup.
///
/// Mirrors the slice of Hadoop's task context that Anti-Combining needs: the
/// task's identity, the job's Partitioner and comparators, node-local
/// storage, and a metrics sink.
struct TaskInfo {
  int task_id = 0;             ///< map task index or reduce partition index
  int num_reduce_tasks = 1;
  /// The shuffle partition whose records this task/combiner instance sees:
  /// the reduce partition index in reduce tasks, and the partition being
  /// combined during map-side spill/merge combining. -1 in map tasks.
  int shuffle_partition = -1;
  const Partitioner* partitioner = nullptr;
  KeyComparator key_cmp;
  KeyComparator grouping_cmp;
  Env* env = nullptr;          ///< node-local disk for task-scoped files
  JobMetrics* metrics = nullptr;  ///< task-private; aggregated at job end
  /// Format of the sorted runs a task spills to `env` (Shared's spills):
  /// the job's map_output_codec and shuffle_block_bytes, so they are block
  /// segments like the map side's.
  CodecType spill_codec = CodecType::kNone;
  size_t spill_block_bytes = kDefaultBlockBytes;
};

/// Several borrowed records, the argument of MapContext::EmitBatch.
using RecordBatch = std::vector<RecordRef>;

/// \brief Sink for Map output records.
class MapContext {
 public:
  virtual ~MapContext() = default;
  virtual void Emit(const Slice& key, const Slice& value) = 0;

  /// Emit per record. Kept only for perfbench's EmitSpanMapContext override.
  virtual void EmitBatch(const RecordBatch& batch) {
    for (const RecordRef& r : batch) Emit(r.key, r.value);
  }
};

/// \brief The Map primitive. One instance per map task (may hold state).
class Mapper {
 public:
  virtual ~Mapper() = default;
  virtual void Setup(const TaskInfo& info, MapContext* ctx) {
    (void)info;
    (void)ctx;
  }
  /// Called once per input record.
  virtual void Map(const Slice& key, const Slice& value, MapContext* ctx) = 0;
  virtual void Cleanup(MapContext* ctx) { (void)ctx; }
};

/// \brief Forward iteration over the values of one reduce group.
class ValueIterator {
 public:
  virtual ~ValueIterator() = default;
  /// Advance to the next value; returns false when the group is exhausted.
  /// *value stays valid until the next call.
  virtual bool Next(Slice* value) = 0;

  /// Key of the record whose value the last successful Next returned. With
  /// a grouping comparator (secondary sort) this can differ from the
  /// Reduce call's group key. Only valid after Next returned true;
  /// iterators over bare value lists return an empty slice.
  virtual Slice key() const { return Slice(); }
};

/// \brief ValueIterator over a vector of slices (one key's values, borrowed
/// from an arena or block frame).
class SliceVectorIterator : public ValueIterator {
 public:
  explicit SliceVectorIterator(const std::vector<Slice>* values)
      : values_(values) {}

  bool Next(Slice* value) override {
    if (pos_ >= values_->size()) return false;
    *value = (*values_)[pos_++];
    return true;
  }

 private:
  const std::vector<Slice>* values_;
  size_t pos_ = 0;
};

/// \brief Sink for Reduce output records, and the failure channel of the
/// code that emits into it.
///
/// Reduce has no Status return, so a reducer that hits an error (a framework
/// reducer's spill I/O, a corrupt encoded record) reports it with Fail and
/// returns. The first error latches; the framework checks status() after
/// Setup, after every Reduce call and after Cleanup, and fails the task with
/// it, so an IOError is retried like any other transient task failure.
class ReduceContext {
 public:
  virtual ~ReduceContext() = default;
  virtual void Emit(const Slice& key, const Slice& value) = 0;

  /// Latch `status` if it is the first error; OK and later errors are
  /// ignored.
  void Fail(Status status) {
    if (status_.ok()) status_ = std::move(status);
  }
  const Status& status() const { return status_; }

 private:
  Status status_;
};

/// \brief The Reduce primitive. One instance per reduce task. Also the
/// interface for Combiners (Hadoop defines a Combiner as a reducer class).
class Reducer {
 public:
  virtual ~Reducer() = default;
  virtual void Setup(const TaskInfo& info, ReduceContext* ctx) {
    (void)info;
    (void)ctx;
  }
  /// Called once per key group, in key order.
  virtual void Reduce(const Slice& key, ValueIterator* values,
                      ReduceContext* ctx) = 0;
  virtual void Cleanup(ReduceContext* ctx) { (void)ctx; }
};

using MapperFactory = std::function<std::unique_ptr<Mapper>()>;
using ReducerFactory = std::function<std::unique_ptr<Reducer>()>;

/// \brief Streaming reader over one input split.
class RecordSource {
 public:
  virtual ~RecordSource() = default;
  /// Produce the next record as views; returns false at end of split. *ref
  /// stays valid until the next call: a caller that keeps a record copies
  /// it (KV(ref)).
  virtual bool NextRef(RecordRef* ref) = 0;
};

/// \brief An input split: a factory so each map task opens its own reader.
struct InputSplit {
  std::function<std::unique_ptr<RecordSource>()> open;
};

/// RecordSource over a materialized vector (shared ownership so splits can
/// be reopened cheaply).
class VectorSource : public RecordSource {
 public:
  explicit VectorSource(std::shared_ptr<const std::vector<KV>> records)
      : records_(std::move(records)) {}

  /// Zero-copy: views into the shared vector, which outlives the source.
  bool NextRef(RecordRef* ref) override {
    if (pos_ >= records_->size()) return false;
    *ref = (*records_)[pos_++].ref();
    return true;
  }

 private:
  std::shared_ptr<const std::vector<KV>> records_;
  size_t pos_ = 0;
};

/// Wrap materialized records as an InputSplit.
InputSplit MakeSplit(std::vector<KV> records);

/// Split `records` into `num_splits` contiguous chunks.
std::vector<InputSplit> MakeSplits(std::vector<KV> records, int num_splits);

}  // namespace antimr

#endif  // ANTIMR_MR_API_H_
