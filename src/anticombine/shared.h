// The Shared structure (paper Section 5): a reduce-task-level store for
// decoded key/value pairs awaiting their Reduce call. Faithful to the paper's
// design: a min-heap over keys for O(1) peeks, a hash table from key to value
// list, sorted spills to local disk when the memory budget is exceeded,
// spill merging past a threshold, buffered sequential reads of spilled
// groups, and optional reduce-phase Combining that collapses each key's
// values as they arrive.
//
// Spills are block segments, the map side's sorted-run format
// (io/run_file.h): CRC-checked per block and compressed with the job's
// map-output codec. Spill I/O and corrupt spill blocks surface as the
// Status of the call that hit them (Add or PopMinKeyValues); after a non-OK
// Status the Shared holds an undefined subset of its records, and the only
// valid operation left is destruction, which deletes its spill files.
//
// Pops run in Phase::shared (common/stopwatch.h), as callers' Adds do; the
// Combiner and spill compression inside are combine and compress time.
//
// Table layout: each distinct in-memory key is one entry in a slab (a
// vector of {interned key, cached hash, value list}, freed slots chained
// for reuse). An open-addressed, linearly probed index of entry ids finds a
// key's entry, with backward-shift deletion so erased slots leave no
// tombstones; the min-heap holds entry ids, so a pop or a spill reaches its
// entry without hashing the key again. The index hashes with SliceHash, a
// word-at-a-time hash whose values stay in the process; Hash64, which
// decides partitions, is not involved.
//
// Ownership: each distinct key is interned once into a key arena. Values
// live in a value store: their bytes in a value arena, and one slot per
// stored value holding its view and a reference count. One Add call is one
// decode call (an EagerSH record's keys, or the kept records of one LazySH
// re-execution), and values equal within it are stored once: every key that
// got the value holds its id, and a key's ValueList is a vector of ids. A
// pop hands out views into the value arena, valid until the next
// PopMinKeyValues. A value whose last reference goes leaves the accounting
// at once; its bytes go with the next compaction or spill, and an arena
// that holds the latest pop's views is kept as the spare until the next
// pop. The key arena (at the end of a pop) and the value arena (at the end
// of a pop or of an Add whose combines replaced values) are compacted once
// dead bytes dominate them, so a key parked far ahead of the drain cursor
// pins neither the keys nor the values popped since.
//
// Memory accounting (memory_usage(), against memory_limit_bytes): key
// bytes once per distinct key, each stored value's bytes plus its slot
// (kValueSlotBytes), and kReferenceBytes per (key, value id) reference.
// Spills write one (key, value) record per reference into the block
// segments above: a spill with its own value dictionary would write fewer
// bytes but need the dictionary resident to be merged back.
#ifndef ANTIMR_ANTICOMBINE_SHARED_H_
#define ANTIMR_ANTICOMBINE_SHARED_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
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
    /// Spill segment codec and block size (TaskInfo::spill_codec and
    /// spill_block_bytes).
    CodecType codec = CodecType::kNone;
    size_t block_bytes = kDefaultBlockBytes;
  };

  explicit Shared(Options options);
  ~Shared();

  Shared(const Shared&) = delete;
  Shared& operator=(const Shared&) = delete;

  /// Insert the records of one decode call; may trigger combining and/or a
  /// spill, which is checked once the whole call is in. Values equal within
  /// the call are stored once (each value is compared with the first
  /// kCallValues distinct values of the call). Fails with the spill's I/O
  /// error or the combiner's reported error.
  Status Add(std::span<const RecordRef> records);

  /// Insert one decoded record: a decode call of one.
  Status Add(const Slice& key, const Slice& value) {
    const RecordRef record(key, value);
    return Add(std::span<const RecordRef>(&record, 1));
  }

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
  /// them intact. Returns NotFound when empty, and the spill read's error
  /// (Corruption naming the spill file for a bad block) when one fails.
  Status PopMinKeyValues(std::string* group_key, std::vector<Slice>* values);

  /// Charged per stored value beyond its bytes: its slot.
  static constexpr size_t kValueSlotBytes = 16;
  /// Charged per (key, value id) reference: a 4-byte id in a vector that
  /// grows by doubling, so at most twice its size.
  static constexpr size_t kReferenceBytes = 2 * sizeof(uint32_t);
  size_t memory_usage() const { return memory_bytes_; }

  /// Chunk capacity held by the key arena (the retained key footprint).
  size_t key_arena_bytes() const { return key_arena_->bytes_allocated(); }

  /// Capacity held by the value store: both value arenas and the slots.
  size_t value_store_bytes() const {
    return value_arena_->bytes_allocated() + spare_arena_->bytes_allocated() +
           slots_.capacity() * sizeof(ValueSlot);
  }

  /// Capacity of the resident keys' value-id vectors (walks the table).
  size_t reference_bytes() const;

 private:
  /// One stored value. A free slot has no references; its `size` holds the
  /// id of the next free slot.
  struct ValueSlot {
    const char* data = nullptr;  ///< in value_arena_
    uint32_t size = 0;
    uint32_t refs = 0;
  };
  static_assert(sizeof(ValueSlot) == kValueSlotBytes);

  /// A key's pending values as value ids, in insertion order, plus the
  /// count at which the next combine fires. The doubling threshold keeps
  /// combining amortized-linear even when the combiner cannot shrink a key's
  /// values below 2 (e.g. top-k style aggregates over many distinct
  /// sub-values).
  struct ValueList {
    std::vector<uint32_t> ids;
    size_t next_combine = 2;
  };

  /// One distinct in-memory key. A free entry's `hash` holds the id of the
  /// next free entry.
  struct Entry {
    Slice key;          ///< interned in key_arena_
    uint64_t hash = 0;  ///< SliceHash of key
    ValueList values;
  };

  static constexpr uint32_t kNoEntry = UINT32_MAX;
  /// Distinct values of one decode call that later values are compared
  /// with; beyond them a value is stored without looking for a twin.
  static constexpr size_t kCallValues = 8;

  /// Entry id of `key` (kNoEntry when absent); *slot gets its index slot,
  /// or the empty slot where it would go.
  uint32_t Find(const Slice& key, uint64_t hash, size_t* slot) const;
  /// Entry id of `key`, creating an empty entry (interned key, heap and
  /// index registration) on first sighting.
  uint32_t FindOrInsert(const Slice& key);
  /// Unlink entry `id` from the index (backward-shift deletion) and put it
  /// on the free list. The heap must no longer hold it.
  void Erase(uint32_t id);
  /// Double the index (at least 16 slots) and re-seat every entry.
  void GrowIndex();
  /// Drop every entry and empty the index, keeping their capacity.
  void ResetTable();
  /// Min-heap order over entry ids: the minimal key at heap_.front().
  bool HeapAfter(uint32_t a, uint32_t b) const {
    return key_order_(entries_[a].key, entries_[b].key) > 0;
  }
  void HeapPush(uint32_t id);
  void HeapPop();

  Slice ValueAt(uint32_t id) const {
    return Slice(slots_[id].data, slots_[id].size);
  }
  /// Copy `value` into the value store; the new slot has no references.
  uint32_t StoreValue(const Slice& value);
  /// Drop one reference to value `id`, freeing its slot at the last one
  /// (its bytes stay in the arena until a compaction or a spill).
  void Unref(uint32_t id);
  /// Id of `value` for the decode call under way: a value equal to one
  /// already stored for the call shares its id.
  uint32_t CallValueId(const Slice& value);

  /// Add a reference to value `value_id` under `key`.
  Status AddInternal(const Slice& key, uint32_t value_id, bool allow_combine);
  /// Append value `value_id` to entry `id`'s list, taking a reference.
  void AddRef(uint32_t id, uint32_t value_id);
  /// Combine entry `id`'s values; its references are replaced by the
  /// combiner's outputs, one reference each. An output under another key is
  /// added as a new record, which may grow the slab: entries are re-fetched
  /// by id after every AddInternal.
  Status CombineKey(uint32_t id);
  Status SpillToDisk();
  /// Write the heap's drain, in key order, to `fname` as a block segment.
  Status WriteSpill(const std::string& fname, uint64_t* bytes);
  Status MaybeMergeSpills();
  std::string NextSpillName();
  /// Open spill `fname` and append it to spills_; deletes the file when the
  /// write or the open failed (`status`).
  Status AdoptSpill(const std::string& fname, Status status);
  /// Minimal key across the in-memory heap and spill stream heads; false
  /// when everything is empty. *out is a view (interned key or spill stream
  /// head) valid until the next mutation.
  bool FindMinKey(Slice* out);
  /// Clear the key arena and the slab once no key is resident, or compact
  /// the arena once popped keys dominate its bytes; compact the value arena
  /// likewise. Runs at the end of a pop.
  void MaybeReclaim();
  /// Re-intern the resident keys into a fresh arena and re-point their
  /// entries; the old arena's chunks are freed.
  void CompactKeys();
  /// Copy the live values into a fresh arena once dead bytes dominate
  /// value_arena_ (after a pop, or combines in an Add).
  void MaybeCompactValues();
  /// Forget every stored value (a spill took their references).
  void ResetValues();

  Options options_;
  KeyOrder key_order_;       ///< options_.key_cmp, inline when bytewise
  KeyOrder grouping_order_;  ///< options_.grouping_cmp, likewise
  /// Each distinct key's bytes are interned once into key_arena_; its entry
  /// is the only reference. The arena is cleared when the table drains
  /// (spill, or the last group popped) and compacted when its bytes exceed
  /// twice the resident keys plus a chunk.
  std::unique_ptr<Arena> key_arena_ = std::make_unique<Arena>();
  size_t key_bytes_ = 0;  ///< bytes of the resident keys
  std::vector<Entry> entries_;  ///< the slab; ids index it
  uint32_t free_head_ = kNoEntry;  ///< first free entry id
  size_t live_entries_ = 0;
  /// Open-addressed index: entry id per slot (kNoEntry = empty); its size
  /// is a power of two, at most 3/4 full.
  std::vector<uint32_t> index_;
  std::vector<uint32_t> heap_;  ///< every live entry id, once
  struct SpillRun {
    std::string fname;
    std::unique_ptr<KVStream> stream;
  };
  std::vector<SpillRun> spills_;
  size_t memory_bytes_ = 0;
  int spill_counter_ = 0;

  /// The value store. Stored values live in value_arena_; spare_arena_ is
  /// either empty or (spare_has_pop_views_) the arena the latest pop's
  /// views point into, retired by a compaction or a spill after that pop
  /// and cleared at the start of the next one.
  std::unique_ptr<Arena> value_arena_ = std::make_unique<Arena>();
  std::unique_ptr<Arena> spare_arena_ = std::make_unique<Arena>();
  bool spare_has_pop_views_ = false;
  std::vector<ValueSlot> slots_;  ///< value ids index it
  uint32_t free_slot_ = UINT32_MAX;  ///< first free slot id
  size_t live_value_bytes_ = 0;  ///< bytes of the referenced values
  /// The decode call under way: its first distinct values and their ids,
  /// each holding one reference until the call ends.
  struct CallValue {
    Slice value;
    uint32_t id;
  };
  std::vector<CallValue> call_values_;

  /// Storage behind the latest pop: the popped entries, and (when the group
  /// also lived in spills) the memory side's records for the merge and the
  /// merged values repacked in merge order.
  std::vector<uint32_t> pop_entries_;
  std::vector<RecordRef> pop_records_;
  std::string pop_merged_;
  /// CombineKey's scratch: its input views and its captured outputs.
  std::vector<Slice> combine_views_;
  Arena combine_arena_;
  std::vector<RecordRef> combine_out_;
};

}  // namespace anticombine
}  // namespace antimr

#endif  // ANTIMR_ANTICOMBINE_SHARED_H_
