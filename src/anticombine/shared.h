// The Shared structure (paper Section 5): a reduce-task-level store for
// decoded key/value pairs awaiting their Reduce call. Faithful to the paper's
// design: a min-heap over keys for O(1) peeks, a hash table from key to value
// list, sorted spills to local disk when the memory budget is exceeded,
// spill merging past a threshold, buffered sequential reads of spilled
// groups, and optional reduce-phase Combining that collapses each key's
// values as they arrive.
//
// Ownership: each distinct key is interned once into a key arena; each key's
// values are packed into one buffer (varint length + bytes per value, in
// insertion order), so an Add allocates only when a key first appears or its
// buffer grows. A pop moves the group's buffers into pop storage and hands
// out views into them, valid until the next PopMinKeyValues. The key arena
// is compacted once popped keys dominate it, so a key parked far ahead of
// the drain cursor cannot pin the bytes of every key popped since.
#ifndef ANTIMR_ANTICOMBINE_SHARED_H_
#define ANTIMR_ANTICOMBINE_SHARED_H_

#include <memory>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/arena.h"
#include "common/hash.h"
#include "io/merger.h"
#include "mr/api.h"
#include "mr/metrics.h"

namespace antimr {
namespace anticombine {

/// \brief Buffer for decoded records, drained in key order.
class Shared {
 public:
  struct Options {
    KeyComparator key_cmp;       ///< total key order (drain order)
    KeyComparator grouping_cmp;  ///< key equality for groups
    Env* env = nullptr;          ///< node-local disk for spills
    std::string file_prefix;     ///< unique per reduce task
    size_t memory_limit_bytes = 8 * 1024 * 1024;
    /// Merge spill files once their count exceeds this (mirrors the map
    /// phase's io.sort.factor-style merging).
    int spill_merge_threshold = 10;
    /// Optional reduce-phase Combiner: values of one key are combined as
    /// they are added, often keeping Shared entirely in memory (paper
    /// Sections 5, 7.5).
    Reducer* combiner = nullptr;
    JobMetrics* metrics = nullptr;
  };

  explicit Shared(Options options);
  ~Shared();

  Shared(const Shared&) = delete;
  Shared& operator=(const Shared&) = delete;

  /// Insert one decoded record; may trigger combining and/or a spill.
  void Add(const Slice& key, const Slice& value);

  /// True when no records remain (memory and spills).
  bool Empty();

  /// Copy the minimal key into *key. Returns false when empty.
  bool PeekMinKey(std::string* key);

  /// Zero-copy peek: *key views either an interned in-memory key or a spill
  /// stream head. Valid until the next Add/PopMinKeyValues call.
  bool PeekMinKey(Slice* key);

  /// Remove the minimal group (all keys grouping-equal to the minimal key,
  /// from memory and spills) and append views of its values, in key order,
  /// to *values. *group_key gets the minimal key. The views stay valid until
  /// the next PopMinKeyValues call (or destruction); Add and PeekMinKey leave
  /// them intact. Returns false when empty.
  bool PopMinKeyValues(std::string* group_key, std::vector<Slice>* values);

  size_t memory_usage() const { return memory_bytes_; }

  /// Chunk capacity held by the key arena (the retained key footprint).
  size_t key_arena_bytes() const { return key_arena_->bytes_allocated(); }

 private:
  struct HeapCmp {
    const KeyComparator* cmp;
    bool operator()(const Slice& a, const Slice& b) const {
      return (*cmp)(a, b) > 0;  // min-heap
    }
  };

  /// A key's pending values, packed into one buffer, plus the count at
  /// which the next combine fires. The doubling threshold keeps combining
  /// amortized-linear even when the combiner cannot shrink a key's values
  /// below 2 (e.g. top-k style aggregates over many distinct sub-values).
  struct ValueList {
    std::string packed;  ///< varint32 length + bytes per value
    size_t count = 0;
    size_t value_bytes = 0;  ///< sum of value sizes (memory accounting)
    size_t next_combine = 2;
  };

  void AddInternal(const Slice& key, const Slice& value, bool allow_combine);
  void CombineKey(const Slice& key, ValueList* list);
  void SpillToDisk();
  void MaybeMergeSpills();
  /// Minimal key across the in-memory heap and spill stream heads; false
  /// when everything is empty. *out is a view (interned key or spill stream
  /// head) valid until the next mutation.
  bool FindMinKey(Slice* out);
  /// Clear the key arena once nothing references it (table and heap empty),
  /// or compact it once popped keys dominate its bytes.
  void MaybeReclaimKeys();
  /// Re-intern the resident keys into a fresh arena, re-key the table nodes
  /// and rebuild the heap; the old arena's chunks are freed.
  void CompactKeys();

  Options options_;
  /// Each distinct key's bytes are interned once into key_arena_; the table
  /// key and the heap entry are both views of that single copy. The arena is
  /// cleared when table and heap drain (spill, or the last group popped) and
  /// compacted when its bytes exceed twice the resident keys plus a chunk.
  std::unique_ptr<Arena> key_arena_ = std::make_unique<Arena>();
  size_t key_bytes_ = 0;  ///< bytes of the keys resident in table_
  std::unordered_map<Slice, ValueList, SliceHash> table_;
  std::priority_queue<Slice, std::vector<Slice>, HeapCmp> heap_;
  struct SpillRun {
    std::string fname;
    std::unique_ptr<KVStream> stream;
  };
  std::vector<SpillRun> spills_;
  size_t memory_bytes_ = 0;
  int spill_counter_ = 0;

  /// Storage behind the latest pop's views: the popped keys' packed
  /// buffers, and (when the group also lived in spills) the merged values
  /// repacked in merge order. Cleared at the start of the next pop.
  std::vector<std::string> pop_buffers_;
  std::vector<Slice> pop_keys_;  ///< popped keys, for the spill merge
  std::string pop_merged_;
};

}  // namespace anticombine
}  // namespace antimr

#endif  // ANTIMR_ANTICOMBINE_SHARED_H_
