#include "mr/map_output_buffer.h"

#include <algorithm>
#include <cassert>

namespace antimr {

class MapOutputBuffer::BufferStream : public KVStream {
 public:
  BufferStream(const MapOutputBuffer* buffer, size_t begin, size_t end)
      : buffer_(buffer), pos_(begin), end_(end) {}

  bool Valid() const override { return pos_ < end_; }
  Slice key() const override { return buffer_->KeyOf(buffer_->entries_[pos_]); }
  Slice value() const override {
    return buffer_->ValueOf(buffer_->entries_[pos_]);
  }
  Status Next() override {
    ++pos_;
    return Status::OK();
  }

  /// Eager batches: entries view arena storage that outlives the stream.
  Status NextBatch(RecordBatch* batch, const BatchOptions& opts) override {
    batch->clear();
    while (pos_ < end_ && batch->size() < opts.max_records) {
      const Entry& e = buffer_->entries_[pos_];
      const Slice k = buffer_->KeyOf(e);
      if (!opts.Admits(k)) break;
      batch->emplace_back(k, buffer_->ValueOf(e));
      ++pos_;
    }
    return Status::OK();
  }
  bool SupportsEagerBatches() const override { return true; }

 private:
  const MapOutputBuffer* buffer_;
  size_t pos_;
  size_t end_;
};

MapOutputBuffer::MapOutputBuffer(int num_partitions, KeyComparator key_cmp)
    : num_partitions_(num_partitions), key_order_(std::move(key_cmp)) {
  assert(num_partitions_ > 0);
}

void MapOutputBuffer::Add(int partition, const Slice& key,
                          const Slice& value) {
  assert(partition >= 0 && partition < num_partitions_);
  const RecordRef rec = arena_.InternRecord(key, value);
  Entry e;
  e.base = rec.key.data();
  e.key_len = static_cast<uint32_t>(key.size());
  e.val_len = static_cast<uint32_t>(value.size());
  e.partition = partition;
  entries_.push_back(e);
  sorted_ = false;
}

void MapOutputBuffer::AddBatch(const RecordBatch& batch,
                               const std::vector<int>& partitions) {
  assert(batch.size() == partitions.size());
  entries_.reserve(entries_.size() + batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    Add(partitions[i], batch[i].key, batch[i].value);
  }
}

size_t MapOutputBuffer::memory_usage() const {
  return arena_.bytes_used() + entries_.size() * sizeof(Entry);
}

void MapOutputBuffer::Sort() {
  std::stable_sort(entries_.begin(), entries_.end(),
                   [this](const Entry& a, const Entry& b) {
                     if (a.partition != b.partition) {
                       return a.partition < b.partition;
                     }
                     return key_order_.Less(KeyOf(a), KeyOf(b));
                   });
  partition_begin_.assign(static_cast<size_t>(num_partitions_) + 1, 0);
  // entries_ sorted by partition: record the first index of each partition.
  size_t idx = 0;
  for (int p = 0; p <= num_partitions_; ++p) {
    while (idx < entries_.size() && entries_[idx].partition < p) ++idx;
    partition_begin_[static_cast<size_t>(p)] = idx;
  }
  partition_begin_[static_cast<size_t>(num_partitions_)] = entries_.size();
  sorted_ = true;
}

std::unique_ptr<KVStream> MapOutputBuffer::PartitionStream(
    int partition) const {
  assert(sorted_);
  return std::make_unique<BufferStream>(
      this, partition_begin_[static_cast<size_t>(partition)],
      partition_begin_[static_cast<size_t>(partition) + 1]);
}

uint64_t MapOutputBuffer::PartitionRecords(int partition) const {
  assert(sorted_);
  return partition_begin_[static_cast<size_t>(partition) + 1] -
         partition_begin_[static_cast<size_t>(partition)];
}

void MapOutputBuffer::Clear() {
  arena_.Clear();
  entries_.clear();
  partition_begin_.clear();
  sorted_ = false;
}

}  // namespace antimr
