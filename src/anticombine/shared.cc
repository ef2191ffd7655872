#include "anticombine/shared.h"

#include <algorithm>
#include <cassert>

#include "common/coding.h"
#include "common/stopwatch.h"
#include "io/run_file.h"
#include "mr/reduce_task.h"
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
                     const KeyComparator* grouping_cmp)
      : inner_(inner), bound_(bound), grouping_cmp_(grouping_cmp) {}

  bool Valid() const override {
    return inner_->Valid() &&
           (*grouping_cmp_)(inner_->key(), Slice(*bound_)) == 0;
  }
  Slice key() const override { return inner_->key(); }
  Slice value() const override { return inner_->value(); }
  Status Next() override { return inner_->Next(); }

 private:
  KVStream* inner_;
  const std::string* bound_;
  const KeyComparator* grouping_cmp_;
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
      heap_(HeapCmp{&options_.key_cmp}) {
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

void Shared::Add(const Slice& key, const Slice& value) {
  // Untimed: callers charge cpu.shared once per batch of Adds, so the clock
  // is not read twice per decoded value.
  AddInternal(key, value, /*allow_combine=*/true);
  if (options_.metrics) options_.metrics->shared_insertions += 1;
  if (memory_bytes_ > options_.memory_limit_bytes) {
    SpillToDisk();
    MaybeMergeSpills();
  }
}

void Shared::AddInternal(const Slice& key, const Slice& value,
                         bool allow_combine) {
  auto it = table_.find(key);
  if (it == table_.end()) {
    // First sighting of this key in memory: intern its bytes once, then
    // register that single copy in the min-heap (the paper's "inserting the
    // key into the min-heap requires logarithmic time") and the table.
    const Slice interned = key_arena_->Intern(key);
    heap_.push(interned);
    it = table_.emplace(interned, ValueList()).first;
    memory_bytes_ += key.size();
    key_bytes_ += key.size();
  }
  ValueList& list = it->second;
  AppendPacked(value, &list.packed);
  list.count += 1;
  list.value_bytes += value.size();
  memory_bytes_ += value.size();
  if (allow_combine && options_.combiner != nullptr &&
      list.count >= list.next_combine) {
    CombineKey(it->first, &list);
    list.next_combine = std::max<size_t>(2, 2 * list.count);
  }
}

void Shared::CombineKey(const Slice& key, ValueList* list) {
  uint64_t combine_nanos = 0;
  std::vector<KV> combined;
  {
    ScopedTimer t(&combine_nanos);
    PackedValueIterator it(list->packed);
    CollectingContext ctx(&combined);
    options_.combiner->Reduce(key, &it, &ctx);
  }
  if (options_.metrics) {
    options_.metrics->cpu.combine += combine_nanos;
    options_.metrics->combine_input_records += list->count;
    options_.metrics->combine_output_records += combined.size();
  }
  memory_bytes_ -= list->value_bytes;
  list->packed.clear();
  list->count = 0;
  list->value_bytes = 0;
  for (KV& kv : combined) {
    if (Slice(kv.key) == key) {
      AppendPacked(kv.value, &list->packed);
      list->count += 1;
      list->value_bytes += kv.value.size();
      memory_bytes_ += kv.value.size();
    } else {
      // A combiner emitting a different key is unusual but legal; store it
      // without re-combining to guarantee termination.
      AddInternal(kv.key, kv.value, /*allow_combine=*/false);
    }
  }
}

void Shared::SpillToDisk() {
  if (table_.empty()) return;
  const std::string fname = options_.file_prefix + "_shared_spill_" +
                            std::to_string(spill_counter_++);
  std::unique_ptr<WritableFile> file;
  ANTIMR_CHECK_OK(options_.env->NewWritableFile(fname, &file));
  RunWriter writer(std::move(file));
  // Drain the heap to emit keys in sorted order, mirroring the map phase's
  // sorted spills (paper Section 5). heap_.top() is a view of the interned
  // key, which outlives both the pop and the table erase (the arena is only
  // reclaimed below, once the drain finishes).
  while (!heap_.empty()) {
    const Slice key = heap_.top();
    heap_.pop();
    auto it = table_.find(key);
    if (it == table_.end()) continue;  // stale heap entry
    PackedValueIterator values(it->second.packed);
    Slice value;
    while (values.Next(&value)) ANTIMR_CHECK_OK(writer.Add(key, value));
    table_.erase(it);
  }
  ANTIMR_CHECK_OK(writer.Close());
  memory_bytes_ = 0;
  key_bytes_ = 0;
  MaybeReclaimKeys();

  SpillRun run;
  run.fname = fname;
  std::unique_ptr<KVStream> stream;
  ANTIMR_CHECK_OK(OpenRun(options_.env, fname, &stream));
  run.stream = std::move(stream);
  spills_.push_back(std::move(run));
  if (options_.metrics) {
    options_.metrics->shared_spills += 1;
    options_.metrics->shared_spill_bytes += writer.bytes_written();
  }
  // Spills are rare (one per memory_limit_bytes of Shared growth), so the
  // instant + histogram stay unconditional.
  SpillBytesHistogram()->Observe(writer.bytes_written());
  ANTIMR_TRACE_INSTANT("anticombine", "shared_spill",
                       obs::TraceArgs()
                           .Add("bytes", writer.bytes_written())
                           .Add("spill", spill_counter_ - 1));
}

void Shared::MaybeMergeSpills() {
  if (spills_.size() <= static_cast<size_t>(options_.spill_merge_threshold)) {
    return;
  }
  const std::string fname = options_.file_prefix + "_shared_spill_" +
                            std::to_string(spill_counter_++);
  {
    std::vector<std::unique_ptr<KVStream>> inputs;
    inputs.reserve(spills_.size());
    for (SpillRun& run : spills_) inputs.push_back(std::move(run.stream));
    MergingStream merged(std::move(inputs), options_.key_cmp);
    std::unique_ptr<WritableFile> file;
    ANTIMR_CHECK_OK(options_.env->NewWritableFile(fname, &file));
    RunWriter writer(std::move(file));
    while (merged.Valid()) {
      ANTIMR_CHECK_OK(writer.Add(merged.key(), merged.value()));
      ANTIMR_CHECK_OK(merged.Next());
    }
    ANTIMR_CHECK_OK(writer.Close());
  }
  for (const SpillRun& run : spills_) {
    ANTIMR_CHECK_OK(options_.env->DeleteFile(run.fname));
  }
  spills_.clear();
  SpillRun run;
  run.fname = fname;
  std::unique_ptr<KVStream> stream;
  ANTIMR_CHECK_OK(OpenRun(options_.env, fname, &stream));
  run.stream = std::move(stream);
  spills_.push_back(std::move(run));
  if (options_.metrics) options_.metrics->shared_spill_merges += 1;
  ANTIMR_TRACE_INSTANT("anticombine", "shared_spill_merge");
}

bool Shared::FindMinKey(Slice* out) {
  bool found = false;
  // Drop stale heap entries (keys whose table entry was spilled away).
  while (!heap_.empty() && table_.find(heap_.top()) == table_.end()) {
    heap_.pop();
  }
  if (!heap_.empty()) {
    *out = heap_.top();
    found = true;
  }
  for (const SpillRun& run : spills_) {
    if (!run.stream->Valid()) continue;
    if (!found || options_.key_cmp(run.stream->key(), *out) < 0) {
      *out = run.stream->key();
      found = true;
    }
  }
  return found;
}

void Shared::MaybeReclaimKeys() {
  if (table_.empty() && heap_.empty()) {
    key_arena_->Clear();
  } else if (key_arena_->bytes_used() >
             2 * key_bytes_ + Arena::kDefaultChunkBytes) {
    CompactKeys();
  }
}

void Shared::CompactKeys() {
  auto fresh = std::make_unique<Arena>();
  std::vector<decltype(table_)::node_type> nodes;
  nodes.reserve(table_.size());
  while (!table_.empty()) nodes.push_back(table_.extract(table_.begin()));
  std::vector<Slice> keys;
  keys.reserve(nodes.size());
  for (auto& node : nodes) {
    node.key() = fresh->Intern(node.key());
    keys.push_back(node.key());
    table_.insert(std::move(node));
  }
  // Every resident key is in the table; heap entries without one were stale.
  heap_ = decltype(heap_)(HeapCmp{&options_.key_cmp}, std::move(keys));
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

bool Shared::PopMinKeyValues(std::string* group_key,
                             std::vector<Slice>* values) {
  uint64_t* shared_nanos =
      options_.metrics ? &options_.metrics->cpu.shared : nullptr;
  uint64_t local = 0;
  ScopedTimer t(shared_nanos ? shared_nanos : &local);

  Slice min_key;
  if (!FindMinKey(&min_key)) return false;
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
         options_.grouping_cmp(heap_.top(), Slice(*group_key)) == 0) {
    const Slice key = heap_.top();  // interned view; survives the pop
    heap_.pop();
    auto it = table_.find(key);
    if (it == table_.end()) continue;  // stale
    count += it->second.count;
    memory_bytes_ -= key.size() + it->second.value_bytes;
    key_bytes_ -= key.size();
    pop_keys_.push_back(key);
    pop_buffers_.push_back(std::move(it->second.packed));
    table_.erase(it);
  }

  bool spilled_group = false;
  for (SpillRun& run : spills_) {
    if (run.stream->Valid() &&
        options_.grouping_cmp(run.stream->key(), Slice(*group_key)) == 0) {
      spilled_group = true;
      break;
    }
  }
  if (!spilled_group) {
    // Fast path: the group lives entirely in memory, already in key order.
    values->reserve(values->size() + count);
    for (const std::string& packed : pop_buffers_) AppendViews(packed, values);
    MaybeReclaimKeys();
    return true;
  }

  // Merge the memory records with the group prefix of each spill stream,
  // repacking the values (spill stream views die as the streams advance).
  std::vector<std::unique_ptr<KVStream>> inputs;
  inputs.push_back(
      std::make_unique<PackedGroupStream>(&pop_keys_, &pop_buffers_));
  for (SpillRun& run : spills_) {
    inputs.push_back(std::make_unique<GroupBoundedStream>(
        run.stream.get(), group_key, &options_.grouping_cmp));
  }
  MergingStream merged(std::move(inputs), options_.key_cmp);
  while (merged.Valid()) {
    AppendPacked(merged.value(), &pop_merged_);
    ANTIMR_CHECK_OK(merged.Next());
  }
  // The merge read the popped keys' interned bytes; reclaim only now.
  MaybeReclaimKeys();
  AppendViews(pop_merged_, values);
  return true;
}

}  // namespace anticombine
}  // namespace antimr
