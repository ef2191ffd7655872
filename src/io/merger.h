// K-way merge of sorted KVStreams with a pluggable comparator. Used on the
// map side (merging spill files per partition), the reduce side (merging
// shuffled segments), and inside Shared (merging its spills). The merge is
// itself a KVStream: its key()/value() are the winning input's views, and
// each Next() advances exactly that input, so they too are valid until the
// next Next().
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

 private:
  KeyComparator cmp_;
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

 private:
  void SiftDown(size_t i);
  bool HeapLess(int a, int b) const;
  void InitHeap();

  std::vector<std::unique_ptr<KVStream>> inputs_;
  KeyOrder order_;
  std::vector<int> heap_;  // indexes into inputs_
  int current_ = -1;       // stream whose head is the current record
};

}  // namespace antimr

#endif  // ANTIMR_IO_MERGER_H_
