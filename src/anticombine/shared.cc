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

// Walks a packed buffer (varint32 length + bytes per value).
class PackedValueIterator : public ValueIterator {
 public:
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
  const char* p_;
  const char* end_;
};

void AppendPacked(const Slice& value, std::string* packed) {
  char len[5];
  packed->append(len, EncodeVarint32(len, static_cast<uint32_t>(value.size())));
  packed->append(value.data(), value.size());
}

// The popped in-memory records of one group, in key order: the memory side
// of the merge with the spill streams.
class RecordRefStream : public KVStream {
 public:
  explicit RecordRefStream(const std::vector<RecordRef>* records)
      : records_(records) {}

  bool Valid() const override { return pos_ < records_->size(); }
  Slice key() const override { return (*records_)[pos_].key; }
  Slice value() const override { return (*records_)[pos_].value; }
  Status Next() override {
    ++pos_;
    return Status::OK();
  }

 private:
  const std::vector<RecordRef>* records_;
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

Status Shared::Add(std::span<const RecordRef> records) {
  // Untimed: callers enter Phase::shared once per batch of Adds, so the clock
  // is not read twice per decoded value.
  Status status;
  for (const RecordRef& record : records) {
    status = AddInternal(record.key, CallValueId(record.value),
                         /*allow_combine=*/true);
    if (!status.ok()) break;
  }
  // The call's values lose the reference that kept them findable.
  for (const CallValue& cv : call_values_) Unref(cv.id);
  call_values_.clear();
  ANTIMR_RETURN_NOT_OK(status);
  if (options_.metrics) options_.metrics->shared_insertions += records.size();
  if (memory_bytes_ > options_.memory_limit_bytes) {
    ANTIMR_RETURN_NOT_OK(SpillToDisk());
    return MaybeMergeSpills();
  }
  // A combine replaces a key's values between pops.
  MaybeCompactValues();
  return Status::OK();
}

uint32_t Shared::StoreValue(const Slice& value) {
  uint32_t id = free_slot_;
  if (id != kNoEntry) {
    free_slot_ = slots_[id].size;
  } else {
    id = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  ValueSlot& slot = slots_[id];
  slot.data = value_arena_->Intern(value).data();
  slot.size = static_cast<uint32_t>(value.size());
  slot.refs = 0;
  live_value_bytes_ += value.size();
  memory_bytes_ += value.size() + kValueSlotBytes;
  return id;
}

void Shared::Unref(uint32_t id) {
  ValueSlot& slot = slots_[id];
  assert(slot.refs > 0);
  if (--slot.refs > 0) return;
  live_value_bytes_ -= slot.size;
  memory_bytes_ -= slot.size + kValueSlotBytes;
  slot.size = free_slot_;
  free_slot_ = id;
}

uint32_t Shared::CallValueId(const Slice& value) {
  for (const CallValue& cv : call_values_) {
    // An EagerSH record hands every key the same view.
    if ((cv.value.data() == value.data() && cv.value.size() == value.size()) ||
        cv.value == value) {
      return cv.id;
    }
  }
  const uint32_t id = StoreValue(value);
  if (call_values_.size() < kCallValues) {
    slots_[id].refs = 1;
    call_values_.push_back({value, id});
  }
  return id;
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

Status Shared::AddInternal(const Slice& key, uint32_t value_id,
                           bool allow_combine) {
  const uint32_t id = FindOrInsert(key);
  AddRef(id, value_id);
  const ValueList& list = entries_[id].values;
  if (allow_combine && options_.combiner != nullptr &&
      list.ids.size() >= list.next_combine) {
    ANTIMR_RETURN_NOT_OK(CombineKey(id));
    ValueList& combined = entries_[id].values;  // the slab may have grown
    combined.next_combine = std::max<size_t>(2, 2 * combined.ids.size());
  }
  return Status::OK();
}

Status Shared::CombineKey(uint32_t id) {
  const Slice key = entries_[id].key;  // arena bytes: stable across growth
  // The combiner's inputs are views into the value store, so every output
  // is captured before any input is unreferenced, and stored after.
  combine_arena_.Clear();
  combine_out_.clear();
  OutputSink ctx([this](const Slice& k, const Slice& v) {
    combine_out_.push_back(combine_arena_.InternRecord(k, v));
    return Status::OK();
  });
  {
    ScopedPhase phase(Phase::combine);
    combine_views_.clear();
    for (const uint32_t v : entries_[id].values.ids) {
      combine_views_.push_back(ValueAt(v));
    }
    SliceVectorIterator it(&combine_views_);
    options_.combiner->Reduce(key, &it, &ctx);
  }
  ANTIMR_RETURN_NOT_OK(ctx.status());
  ValueList& list = entries_[id].values;
  if (options_.metrics) {
    options_.metrics->shared_combine_input_records += list.ids.size();
    options_.metrics->shared_combine_output_records += combine_out_.size();
  }
  for (const uint32_t v : list.ids) Unref(v);
  memory_bytes_ -= kReferenceBytes * list.ids.size();
  list.ids.clear();
  for (const RecordRef& out : combine_out_) {
    const uint32_t value_id = StoreValue(out.value);
    if (out.key == key) {
      AddRef(id, value_id);
    } else {
      // A combiner emitting a different key is unusual but legal; store it
      // without re-combining to guarantee termination.
      ANTIMR_RETURN_NOT_OK(
          AddInternal(out.key, value_id, /*allow_combine=*/false));
    }
  }
  return Status::OK();
}

void Shared::AddRef(uint32_t id, uint32_t value_id) {
  entries_[id].values.ids.push_back(value_id);
  slots_[value_id].refs += 1;
  memory_bytes_ += kReferenceBytes;
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
  // sorted spills (paper Section 5): one record per reference, so a value
  // shared by several keys is written under each. The caller resets the
  // table, the key arena and the value store once the drain finishes.
  while (!heap_.empty()) {
    const Entry& e = entries_[heap_.front()];
    for (const uint32_t id : e.values.ids) {
      ANTIMR_RETURN_NOT_OK(writer.Add(e.key, ValueAt(id)));
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
  ResetValues();
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

void Shared::MaybeReclaim() {
  if (live_entries_ == 0) {
    ResetTable();
    key_arena_->Clear();
  } else if (key_arena_->bytes_used() >
             2 * key_bytes_ + Arena::kDefaultChunkBytes) {
    CompactKeys();
  }
  MaybeCompactValues();
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

void Shared::MaybeCompactValues() {
  if (value_arena_->bytes_used() <=
      2 * live_value_bytes_ + Arena::kDefaultChunkBytes) {
    return;
  }
  // Slots keep their ids; only the bytes of referenced values move. The
  // arena the latest pop's views point into survives until the next pop:
  // it is retired to the spare, unless the spare already holds those views
  // (a compaction or spill since that pop), and then nothing points into
  // value_arena_ but the slots.
  const bool retire = !spare_has_pop_views_;
  std::unique_ptr<Arena> fresh =
      retire ? std::move(spare_arena_) : std::make_unique<Arena>();
  for (ValueSlot& slot : slots_) {
    if (slot.refs == 0) continue;
    slot.data = fresh->Intern(Slice(slot.data, slot.size)).data();
  }
  if (retire) {
    spare_arena_ = std::move(value_arena_);
    spare_has_pop_views_ = true;
  }
  value_arena_ = std::move(fresh);
}

void Shared::ResetValues() {
  // The latest pop's views may point into value_arena_: unless a compaction
  // already retired that arena, retire it now, to the spare that its pop
  // cleared.
  if (!spare_has_pop_views_) {
    std::swap(value_arena_, spare_arena_);
    spare_has_pop_views_ = true;
  }
  value_arena_->Clear();
  slots_.clear();
  free_slot_ = kNoEntry;
  live_value_bytes_ = 0;
}

size_t Shared::reference_bytes() const {
  size_t bytes = 0;
  for (const uint32_t id : heap_) {
    bytes += entries_[id].values.ids.capacity() * sizeof(uint32_t);
  }
  return bytes;
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
  // The previous pop's views die here: release the arena a compaction or a
  // spill retired while they were alive.
  if (spare_has_pop_views_) {
    spare_arena_->Clear();
    spare_has_pop_views_ = false;
  }
  pop_merged_.clear();

  Slice min_key;
  if (!FindMinKey(&min_key)) return Status::NotFound("Shared is empty");
  // Materialize the group key once: the merge below advances spill streams,
  // which would invalidate a stream-head view mid-drain.
  group_key->assign(min_key.data(), min_key.size());

  // The group's in-memory entries, in key order (heap pops ascend).
  pop_entries_.clear();
  size_t count = 0;
  while (!heap_.empty() &&
         grouping_order_(entries_[heap_.front()].key, Slice(*group_key)) ==
             0) {
    pop_entries_.push_back(heap_.front());
    count += entries_[heap_.front()].values.ids.size();
    HeapPop();
  }

  bool spilled_group = false;
  for (SpillRun& run : spills_) {
    if (run.stream->Valid() &&
        grouping_order_(run.stream->key(), Slice(*group_key)) == 0) {
      spilled_group = true;
      break;
    }
  }

  // Views of the popped values go straight out when the group lives
  // entirely in memory (already in key order), else into the merge below.
  // Either way they point into the value arena, whose bytes outlive the
  // references dropped here until the next pop.
  if (spilled_group) {
    pop_records_.clear();
    pop_records_.reserve(count);
  } else {
    values->reserve(values->size() + count);
  }
  for (const uint32_t id : pop_entries_) {
    Entry& e = entries_[id];
    for (const uint32_t v : e.values.ids) {
      // The interned key survives the erase, until MaybeReclaim.
      if (spilled_group) {
        pop_records_.emplace_back(e.key, ValueAt(v));
      } else {
        values->push_back(ValueAt(v));
      }
      Unref(v);
    }
    memory_bytes_ -= e.key.size() + kReferenceBytes * e.values.ids.size();
    key_bytes_ -= e.key.size();
    e.values = ValueList();
    Erase(id);
  }

  if (spilled_group) {
    // Merge the memory records with the group prefix of each spill stream,
    // repacking the values (spill stream views die as the streams advance).
    std::vector<std::unique_ptr<KVStream>> inputs;
    inputs.push_back(std::make_unique<RecordRefStream>(&pop_records_));
    for (SpillRun& run : spills_) {
      inputs.push_back(std::make_unique<GroupBoundedStream>(
          run.stream.get(), group_key, &grouping_order_));
    }
    MergingStream merged(std::move(inputs), options_.key_cmp);
    while (merged.Valid()) {
      AppendPacked(merged.value(), &pop_merged_);
      ANTIMR_RETURN_NOT_OK(merged.Next());
    }
    PackedValueIterator it(pop_merged_);
    Slice value;
    while (it.Next(&value)) values->push_back(value);
  }
  // The merge read the popped keys' interned bytes; reclaim only now.
  MaybeReclaim();
  return Status::OK();
}

}  // namespace anticombine
}  // namespace antimr
