// K-way merge of sorted KVStreams with a pluggable comparator. Used on the
// map side (merging spill files per partition), the reduce side (merging
// shuffled segments), and inside Shared (merging its spills).
#ifndef ANTIMR_IO_MERGER_H_
#define ANTIMR_IO_MERGER_H_

#include <functional>
#include <memory>
#include <vector>

#include "io/run_file.h"

namespace antimr {

/// Three-way key comparator; negative/zero/positive like memcmp.
using KeyComparator = std::function<int(const Slice&, const Slice&)>;

/// Bytewise comparison; the default key order.
int BytewiseCompare(const Slice& a, const Slice& b);

/// \brief A KeyComparator for per-record compare loops.
///
/// Compares inline, without the std::function dispatch, when the comparator
/// is BytewiseCompare (the default key order, and most jobs'). The merge
/// heap, the map-output sort, Shared's heap and the AntiMapper's grouping
/// sort all compare through one.
class KeyOrder {
 public:
  KeyOrder() = default;
  explicit KeyOrder(KeyComparator cmp);

  int operator()(const Slice& a, const Slice& b) const {
    return bytewise_ ? a.compare(b) : cmp_(a, b);
  }
  bool Less(const Slice& a, const Slice& b) const { return (*this)(a, b) < 0; }

  const KeyComparator& comparator() const { return cmp_; }
  /// Plain-function form of the comparator; null when it wraps a closure.
  int (*raw())(const Slice&, const Slice&) const { return raw_; }

 private:
  KeyComparator cmp_;
  int (*raw_)(const Slice&, const Slice&) = nullptr;
  bool bytewise_ = false;
};

/// \brief Heap-based k-way merging stream.
///
/// Stable across inputs: on equal keys, records from lower-indexed input
/// streams are produced first, so merge output is deterministic.
class MergingStream : public KVStream {
 public:
  MergingStream(std::vector<std::unique_ptr<KVStream>> inputs,
                KeyComparator cmp);

  bool Valid() const override { return current_ >= 0; }
  Slice key() const override { return inputs_[current_]->key(); }
  Slice value() const override { return inputs_[current_]->value(); }
  Status Next() override;

  /// Vectorized merge, when every input supports eager batches: each
  /// winning stream drains a whole run bounded by the second-best head key
  /// in one NextBatch call, with one heap fix-up per run instead of per
  /// record, and runs accumulate into the batch until an input would have
  /// to produce a second run (which would invalidate its first run's
  /// views). Ties drain to the lower-indexed input first, so batch output
  /// is byte-identical to the record-wise merge. Falls back to the
  /// one-record adapter when any input is deferred-advance.
  Status NextBatch(RecordBatch* batch, const BatchOptions& opts) override;
  bool SupportsEagerBatches() const override { return eager_inputs_; }

 private:
  void SiftDown(size_t i);
  bool HeapLess(int a, int b) const;
  void InitHeap();

  std::vector<std::unique_ptr<KVStream>> inputs_;
  // Its raw() form is handed to producers via BatchOptions::raw_cmp.
  KeyOrder order_;
  std::vector<int> heap_;  // indexes into inputs_
  int current_ = -1;       // stream whose head is the current record
  bool eager_inputs_ = false;
  // NextBatch scratch: the current winner's run, and per-input marks of the
  // merged-batch generation that last drained it.
  RecordBatch run_;
  std::vector<uint64_t> drained_in_;
  uint64_t drain_gen_ = 0;
};

}  // namespace antimr

#endif  // ANTIMR_IO_MERGER_H_
