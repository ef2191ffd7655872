#include "anticombine/shared.h"

#include <algorithm>
#include <cassert>

#include "common/coding.h"
#include "common/stopwatch.h"
#include "mr/reduce_task.h"
#include "mr/shuffle.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"

namespace antimr {
namespace anticombine {

namespace {

// Exposes the prefix of `inner` whose keys are grouping-equal to `bound`,
// leaving `inner` positioned at the first record beyond the group.
class GroupBoundedStream : public KVStream {
 public:
  GroupBoundedStream(KVStream* inner, const std::string* bound,
                     const KeyOrder* grouping)
      : inner_(inner), bound_(bound), grouping_(grouping) {}

  bool Valid() const override {
    return inner_->Valid() && (*grouping_)(inner_->key(), Slice(*bound_)) == 0;
  }
  Slice key() const override { return inner_->key(); }
  Slice value() const override { return inner_->value(); }
  Status Next() override { return inner_->Next(); }

 private:
  KVStream* inner_;
  const std::string* bound_;
  const KeyOrder* grouping_;
};

// Walks a ValueList's packed buffer (varint32 length + bytes per value).
class PackedValueIterator : public ValueIterator {
 public:
  PackedValueIterator() = default;
  explicit PackedValueIterator(const std::string& packed)
      : p_(packed.data()), end_(packed.data() + packed.size()) {}

  bool Next(Slice* value) override {
    if (p_ == end_) return false;
    uint32_t n = 0;
    p_ = GetVarint32Ptr(p_, end_, &n);
    assert(p_ != nullptr && n <= static_cast<size_t>(end_ - p_));
    *value = Slice(p_, n);
    p_ += n;
    return true;
  }

 private:
  const char* p_ = nullptr;
  const char* end_ = nullptr;
};

void AppendPacked(const Slice& value, std::string* packed) {
  char len[5];
  packed->append(len, EncodeVarint32(len, static_cast<uint32_t>(value.size())));
  packed->append(value.data(), value.size());
}

void AppendViews(const std::string& packed, std::vector<Slice>* values) {
  PackedValueIterator it(packed);
  Slice value;
  while (it.Next(&value)) values->push_back(value);
}

// The popped in-memory keys of one group, in key order, each paired with its
// packed values: the memory side of the merge with the spill streams.
class PackedGroupStream : public KVStream {
 public:
  PackedGroupStream(const std::vector<Slice>* keys,
                    const std::vector<std::string>* buffers)
      : keys_(keys), buffers_(buffers) {
    if (!keys_->empty()) it_ = PackedValueIterator(buffers_->front());
    Advance();
  }

  bool Valid() const override { return pos_ < keys_->size(); }
  Slice key() const override { return (*keys_)[pos_]; }
  Slice value() const override { return value_; }
  Status Next() override {
    Advance();
    return Status::OK();
  }

 private:
  // Step to the next value, moving past keys whose values ran out.
  void Advance() {
    while (!it_.Next(&value_)) {
      if (++pos_ >= keys_->size()) return;
      it_ = PackedValueIterator((*buffers_)[pos_]);
    }
  }

  const std::vector<Slice>* keys_;
  const std::vector<std::string>* buffers_;
  PackedValueIterator it_;
  Slice value_;
  size_t pos_ = 0;
};

// Fetched here (not only at the spill site) so the histogram shows up in a
// metrics scrape even for runs that never spilled.
obs::Histogram* SpillBytesHistogram() {
  static obs::Histogram* const hist =
      obs::MetricsRegistry::Global().GetHistogram(
          "antimr_shared_spill_bytes", "Bytes written per Shared spill");
  return hist;
}

}  // namespace

Shared::Shared(Options options)
    : options_(std::move(options)),
      key_order_(options_.key_cmp),
      grouping_order_(options_.grouping_cmp) {
  assert(options_.key_cmp);
  assert(options_.grouping_cmp);
  assert(options_.env != nullptr);
  SpillBytesHistogram();
}

Shared::~Shared() {
  for (const SpillRun& run : spills_) {
    options_.env->DeleteFile(run.fname);
  }
}

Status Shared::Add(const Slice& key, const Slice& value) {
  // Untimed: callers enter Phase::shared once per batch of Adds, so the clock
  // is not read twice per decoded value.
  ANTIMR_RETURN_NOT_OK(AddInternal(key, value, /*allow_combine=*/true));
  if (options_.metrics) options_.metrics->shared_insertions += 1;
  if (memory_bytes_ > options_.memory_limit_bytes) {
    ANTIMR_RETURN_NOT_OK(SpillToDisk());
    return MaybeMergeSpills();
  }
  return Status::OK();
}

uint32_t Shared::Find(const Slice& key, uint64_t hash, size_t* slot) const {
  const size_t mask = index_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const uint32_t id = index_[i];
    if (id == kNoEntry ||
        (entries_[id].hash == hash && entries_[id].key == key)) {
      *slot = i;
      return id;
    }
  }
}

void Shared::GrowIndex() {
  std::vector<uint32_t> old(std::max<size_t>(16, 2 * index_.size()),
                            kNoEntry);
  old.swap(index_);
  const size_t mask = index_.size() - 1;
  for (const uint32_t id : old) {
    if (id == kNoEntry) continue;
    size_t i = entries_[id].hash & mask;
    while (index_[i] != kNoEntry) i = (i + 1) & mask;
    index_[i] = id;
  }
}

uint32_t Shared::FindOrInsert(const Slice& key) {
  const uint64_t hash = SliceHash()(key);
  size_t slot = 0;
  if (!index_.empty()) {
    const uint32_t id = Find(key, hash, &slot);
    if (id != kNoEntry) return id;
  }
  if (4 * (live_entries_ + 1) > 3 * index_.size()) {
    GrowIndex();
    Find(key, hash, &slot);
  }
  // First sighting of this key in memory: intern its bytes once, then
  // register its entry in the min-heap (the paper's "inserting the key into
  // the min-heap requires logarithmic time") and the index.
  uint32_t id = free_head_;
  if (id != kNoEntry) {
    free_head_ = static_cast<uint32_t>(entries_[id].hash);
    entries_[id].values = ValueList();
  } else {
    id = static_cast<uint32_t>(entries_.size());
    entries_.emplace_back();
  }
  Entry& e = entries_[id];
  e.key = key_arena_->Intern(key);
  e.hash = hash;
  index_[slot] = id;
  ++live_entries_;
  HeapPush(id);
  memory_bytes_ += key.size();
  key_bytes_ += key.size();
  return id;
}

void Shared::Erase(uint32_t id) {
  const size_t mask = index_.size() - 1;
  size_t hole = entries_[id].hash & mask;
  while (index_[hole] != id) hole = (hole + 1) & mask;
  // Backward shift: pull later members of the probe run into the hole
  // unless that would move one in front of its home slot.
  for (size_t j = (hole + 1) & mask; index_[j] != kNoEntry;
       j = (j + 1) & mask) {
    const size_t home = entries_[index_[j]].hash & mask;
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      index_[hole] = index_[j];
      hole = j;
    }
  }
  index_[hole] = kNoEntry;
  entries_[id].hash = free_head_;
  free_head_ = id;
  --live_entries_;
}

void Shared::ResetTable() {
  // Erase empties the index as the last entry goes; only a spill, which
  // drops live entries without erasing them, leaves slots to clear.
  if (live_entries_ > 0) std::fill(index_.begin(), index_.end(), kNoEntry);
  entries_.clear();
  heap_.clear();
  free_head_ = kNoEntry;
  live_entries_ = 0;
}

void Shared::HeapPush(uint32_t id) {
  heap_.push_back(id);
  std::push_heap(heap_.begin(), heap_.end(),
                 [this](uint32_t a, uint32_t b) { return HeapAfter(a, b); });
}

void Shared::HeapPop() {
  std::pop_heap(heap_.begin(), heap_.end(),
                [this](uint32_t a, uint32_t b) { return HeapAfter(a, b); });
  heap_.pop_back();
}

Status Shared::AddInternal(const Slice& key, const Slice& value,
                           bool allow_combine) {
  const uint32_t id = FindOrInsert(key);
  ValueList& list = entries_[id].values;
  AppendPacked(value, &list.packed);
  list.count += 1;
  list.value_bytes += value.size();
  memory_bytes_ += value.size();
  if (allow_combine && options_.combiner != nullptr &&
      list.count >= list.next_combine) {
    ANTIMR_RETURN_NOT_OK(CombineKey(id));
    ValueList& combined = entries_[id].values;  // the slab may have grown
    combined.next_combine = std::max<size_t>(2, 2 * combined.count);
  }
  return Status::OK();
}

Status Shared::CombineKey(uint32_t id) {
  const Slice key = entries_[id].key;  // arena bytes: stable across growth
  std::vector<KV> combined;
  CollectingContext ctx(&combined);
  {
    ScopedPhase phase(Phase::combine);
    PackedValueIterator it(entries_[id].values.packed);
    options_.combiner->Reduce(key, &it, &ctx);
  }
  ANTIMR_RETURN_NOT_OK(ctx.status());
  ValueList& list = entries_[id].values;
  if (options_.metrics) {
    options_.metrics->combine_input_records += list.count;
    options_.metrics->combine_output_records += combined.size();
  }
  memory_bytes_ -= list.value_bytes;
  list.packed.clear();
  list.count = 0;
  list.value_bytes = 0;
  for (KV& kv : combined) {
    if (Slice(kv.key) == key) {
      ValueList& own = entries_[id].values;
      AppendPacked(kv.value, &own.packed);
      own.count += 1;
      own.value_bytes += kv.value.size();
      memory_bytes_ += kv.value.size();
    } else {
      // A combiner emitting a different key is unusual but legal; store it
      // without re-combining to guarantee termination.
      ANTIMR_RETURN_NOT_OK(
          AddInternal(kv.key, kv.value, /*allow_combine=*/false));
    }
  }
  return Status::OK();
}

std::string Shared::NextSpillName() {
  return options_.file_prefix + "_shared_spill_" +
         std::to_string(spill_counter_++);
}

Status Shared::AdoptSpill(const std::string& fname, Status status) {
  std::unique_ptr<BlockRunReader> reader;
  if (status.ok()) {
    status = OpenSegmentReader(options_.env, fname, GetCodec(options_.codec),
                               {}, &reader);
  }
  if (!status.ok()) {
    options_.env->DeleteFile(fname);  // best effort; the task is failing
    return status;
  }
  SpillRun run;
  run.fname = fname;
  run.stream = std::move(reader);
  spills_.push_back(std::move(run));
  return Status::OK();
}

Status Shared::WriteSpill(const std::string& fname, uint64_t* bytes) {
  std::unique_ptr<WritableFile> file;
  ANTIMR_RETURN_NOT_OK(options_.env->NewWritableFile(fname, &file));
  BlockRunWriter writer(std::move(file), GetCodec(options_.codec),
                        {options_.block_bytes});
  // Drain the heap to emit keys in sorted order, mirroring the map phase's
  // sorted spills (paper Section 5). The caller resets the table and the
  // key arena once the drain finishes.
  while (!heap_.empty()) {
    const Entry& e = entries_[heap_.front()];
    PackedValueIterator values(e.values.packed);
    Slice value;
    while (values.Next(&value)) {
      ANTIMR_RETURN_NOT_OK(writer.Add(e.key, value));
    }
    HeapPop();
  }
  ANTIMR_RETURN_NOT_OK(writer.Finish());
  *bytes = writer.stored_bytes();
  return Status::OK();
}

Status Shared::SpillToDisk() {
  if (live_entries_ == 0) return Status::OK();
  const std::string fname = NextSpillName();
  uint64_t bytes = 0;
  const Status written = WriteSpill(fname, &bytes);
  memory_bytes_ = 0;
  key_bytes_ = 0;
  ResetTable();
  key_arena_->Clear();
  ANTIMR_RETURN_NOT_OK(AdoptSpill(fname, written));
  if (options_.metrics) {
    options_.metrics->shared_spills += 1;
    options_.metrics->shared_spill_bytes += bytes;
  }
  // Spills are rare (one per memory_limit_bytes of Shared growth), so the
  // instant + histogram stay unconditional.
  SpillBytesHistogram()->Observe(bytes);
  ANTIMR_TRACE_INSTANT("anticombine", "shared_spill",
                       obs::TraceArgs()
                           .Add("bytes", bytes)
                           .Add("spill", spill_counter_ - 1));
  return Status::OK();
}

Status Shared::MaybeMergeSpills() {
  if (spills_.size() <= static_cast<size_t>(options_.spill_merge_threshold)) {
    return Status::OK();
  }
  const std::string fname = NextSpillName();
  Status written;
  {
    std::vector<std::unique_ptr<KVStream>> inputs;
    inputs.reserve(spills_.size());
    for (SpillRun& run : spills_) inputs.push_back(std::move(run.stream));
    MergingStream merged(std::move(inputs), options_.key_cmp);
    written = WriteSegment(options_.env, fname, &merged,
                           GetCodec(options_.codec), nullptr,
                           options_.block_bytes);
  }
  // The merged-away files go whether or not the merge succeeded: their
  // streams are spent, so nothing could read them again.
  Status deleted;
  for (const SpillRun& run : spills_) {
    const Status st = options_.env->DeleteFile(run.fname);
    if (deleted.ok()) deleted = st;
  }
  spills_.clear();
  ANTIMR_RETURN_NOT_OK(AdoptSpill(fname, written));
  ANTIMR_RETURN_NOT_OK(deleted);
  if (options_.metrics) options_.metrics->shared_spill_merges += 1;
  ANTIMR_TRACE_INSTANT("anticombine", "shared_spill_merge");
  return Status::OK();
}

bool Shared::FindMinKey(Slice* out) {
  bool found = false;
  if (!heap_.empty()) {
    *out = entries_[heap_.front()].key;
    found = true;
  }
  for (const SpillRun& run : spills_) {
    if (!run.stream->Valid()) continue;
    if (!found || key_order_(run.stream->key(), *out) < 0) {
      *out = run.stream->key();
      found = true;
    }
  }
  return found;
}

void Shared::MaybeReclaimKeys() {
  if (live_entries_ == 0) {
    ResetTable();
    key_arena_->Clear();
  } else if (key_arena_->bytes_used() >
             2 * key_bytes_ + Arena::kDefaultChunkBytes) {
    CompactKeys();
  }
}

void Shared::CompactKeys() {
  // Entries keep their ids, hashes and heap positions; only the key bytes
  // move. Every live entry is in the heap exactly once.
  auto fresh = std::make_unique<Arena>();
  for (const uint32_t id : heap_) {
    entries_[id].key = fresh->Intern(entries_[id].key);
  }
  key_arena_ = std::move(fresh);
}

bool Shared::Empty() {
  Slice ignored;
  return !FindMinKey(&ignored);
}

bool Shared::PeekMinKey(Slice* key) { return FindMinKey(key); }

bool Shared::PeekMinKey(std::string* key) {
  Slice min;
  if (!FindMinKey(&min)) return false;
  key->assign(min.data(), min.size());
  return true;
}

Status Shared::PopMinKeyValues(std::string* group_key,
                               std::vector<Slice>* values) {
  ScopedPhase phase(Phase::shared);

  Slice min_key;
  if (!FindMinKey(&min_key)) return Status::NotFound("Shared is empty");
  // Materialize the group key once: the merge below advances spill streams,
  // which would invalidate a stream-head view mid-drain.
  group_key->assign(min_key.data(), min_key.size());

  // Move the group's in-memory buffers (heap pops ascend in key order) into
  // pop storage. Views are taken only once every buffer has moved: moving a
  // short string relocates its inline bytes.
  pop_buffers_.clear();
  pop_keys_.clear();
  pop_merged_.clear();
  size_t count = 0;
  while (!heap_.empty() &&
         grouping_order_(entries_[heap_.front()].key, Slice(*group_key)) ==
             0) {
    const uint32_t id = heap_.front();
    HeapPop();
    Entry& e = entries_[id];
    count += e.values.count;
    memory_bytes_ -= e.key.size() + e.values.value_bytes;
    key_bytes_ -= e.key.size();
    pop_keys_.push_back(e.key);  // interned view; survives the erase
    pop_buffers_.push_back(std::move(e.values.packed));
    Erase(id);
  }

  bool spilled_group = false;
  for (SpillRun& run : spills_) {
    if (run.stream->Valid() &&
        grouping_order_(run.stream->key(), Slice(*group_key)) == 0) {
      spilled_group = true;
      break;
    }
  }
  if (!spilled_group) {
    // Fast path: the group lives entirely in memory, already in key order.
    values->reserve(values->size() + count);
    for (const std::string& packed : pop_buffers_) AppendViews(packed, values);
    MaybeReclaimKeys();
    return Status::OK();
  }

  // Merge the memory records with the group prefix of each spill stream,
  // repacking the values (spill stream views die as the streams advance).
  std::vector<std::unique_ptr<KVStream>> inputs;
  inputs.push_back(
      std::make_unique<PackedGroupStream>(&pop_keys_, &pop_buffers_));
  for (SpillRun& run : spills_) {
    inputs.push_back(std::make_unique<GroupBoundedStream>(
        run.stream.get(), group_key, &grouping_order_));
  }
  MergingStream merged(std::move(inputs), options_.key_cmp);
  while (merged.Valid()) {
    AppendPacked(merged.value(), &pop_merged_);
    ANTIMR_RETURN_NOT_OK(merged.Next());
  }
  // The merge read the popped keys' interned bytes; reclaim only now.
  MaybeReclaimKeys();
  AppendViews(pop_merged_, values);
  return Status::OK();
}

}  // namespace anticombine
}  // namespace antimr
