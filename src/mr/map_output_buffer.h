// In-memory map output collection: a chunked arena plus a record index,
// sorted by (partition, key) before each spill — the scaled-down analog of
// Hadoop's io.sort.mb circular buffer. Records are interned once at Emit
// time and flow out as RecordRef views; chunked storage means growth never
// re-copies already-buffered bytes (unlike the old std::string arena, whose
// doubling realloc moved every record).
#ifndef ANTIMR_MR_MAP_OUTPUT_BUFFER_H_
#define ANTIMR_MR_MAP_OUTPUT_BUFFER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/arena.h"
#include "io/merger.h"
#include "io/run_file.h"

namespace antimr {

/// \brief Buffers map output records grouped by target partition.
class MapOutputBuffer {
 public:
  MapOutputBuffer(int num_partitions, KeyComparator key_cmp);

  /// Append one record destined for `partition`.
  void Add(int partition, const Slice& key, const Slice& value);

  /// Approximate bytes held (payload + per-record index overhead).
  size_t memory_usage() const;
  size_t record_count() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Sort records by (partition, key); stable so equal keys keep insertion
  /// order. Must be called before PartitionStream.
  void Sort();

  /// Stream over the sorted records of one partition. Valid until
  /// Clear()/Add()/Sort() is next called.
  std::unique_ptr<KVStream> PartitionStream(int partition) const;

  /// Number of records currently buffered for `partition` (post-Sort).
  uint64_t PartitionRecords(int partition) const;

  /// Drop all buffered data, retaining arena capacity. Also the map-attempt
  /// scrub point: a retried attempt starts from a cleared (but warm) arena.
  void Clear();

  /// Arena bytes interned since the last Clear (tests/metrics).
  size_t arena_bytes_used() const { return arena_.bytes_used(); }

 private:
  /// InternRecord lays the value directly after the key, so one base
  /// pointer plus two lengths indexes the whole record.
  struct Entry {
    const char* base;
    uint32_t key_len;
    uint32_t val_len;
    int32_t partition;
  };

  class BufferStream;

  Slice KeyOf(const Entry& e) const { return Slice(e.base, e.key_len); }
  Slice ValueOf(const Entry& e) const {
    return Slice(e.base + e.key_len, e.val_len);
  }

  int num_partitions_;
  KeyOrder key_order_;
  Arena arena_;
  std::vector<Entry> entries_;
  std::vector<size_t> partition_begin_;  // boundaries after Sort
  bool sorted_ = false;
};

}  // namespace antimr

#endif  // ANTIMR_MR_MAP_OUTPUT_BUFFER_H_
