#include "anticombine/anti_reducer.h"

#include <algorithm>
#include <atomic>
#include <unordered_map>

#include "anticombine/encoding.h"
#include "common/stopwatch.h"
#include "mr/metrics.h"
#include "mr/reduce_task.h"
#include "obs/metrics_registry.h"

namespace antimr {
namespace anticombine {

namespace {
std::string UniqueSharedPrefix(int task_id) {
  static std::atomic<uint64_t> counter{0};
  return "shared_r" + std::to_string(task_id) + "_" +
         std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
}
}  // namespace

AntiReducer::AntiReducer(ReducerFactory o_reducer_factory,
                         MapperFactory o_mapper_factory,
                         ReducerFactory o_combiner_factory,
                         AntiCombineOptions options)
    : o_reducer_factory_(std::move(o_reducer_factory)),
      o_mapper_factory_(std::move(o_mapper_factory)),
      o_combiner_factory_(std::move(o_combiner_factory)),
      options_(options) {}

void AntiReducer::Setup(const TaskInfo& info, ReduceContext* ctx) {
  info_ = info;
  o_reducer_ = o_reducer_factory_();
  o_reducer_->Setup(info, ctx);

  // The original mapper is needed to decode LazySH records. Setup-time
  // emissions (rare, and already shipped by the map phase) are discarded.
  o_mapper_ = o_mapper_factory_();
  remap_capture_.Clear();
  o_mapper_->Setup(info, &remap_capture_);
  remap_capture_.Clear();

  if (o_combiner_factory_ && options_.combine_in_shared) {
    o_combiner_ = o_combiner_factory_();
    CollectingContext discard_ctx(&discard_);
    o_combiner_->Setup(info, &discard_ctx);
    discard_.clear();
  }

  Shared::Options so;
  so.key_cmp = info.key_cmp;
  so.grouping_cmp = info.grouping_cmp;
  so.env = info.env;
  so.file_prefix = UniqueSharedPrefix(info.task_id);
  so.memory_limit_bytes = options_.shared_memory_bytes;
  so.combiner = o_combiner_.get();
  so.metrics = info.metrics;
  shared_ = std::make_unique<Shared>(std::move(so));
}

void AntiReducer::DrainShared(const Slice& key, bool to_end,
                              ReduceContext* ctx) {
  Slice alt_key;  // zero-copy peek; only inspected before the pop
  while (shared_->PeekMinKey(&alt_key)) {
    if (!to_end && info_.grouping_cmp(alt_key, key) >= 0) break;
    group_values_.clear();
    if (!shared_->PopMinKeyValues(&group_key_, &group_values_)) break;
    SliceVectorIterator it(&group_values_);
    o_reducer_->Reduce(group_key_, &it, ctx);
  }
}

void AntiReducer::DecodeValue(const Slice& rep_key, const Slice& payload) {
  JobMetrics* m = info_.metrics;
  Encoding encoding;
  Slice rest;
  ANTIMR_CHECK_OK(GetEncoding(payload, &encoding, &rest));

  // Each phase ends with one clock read that also starts the next, and the
  // record's Adds are charged to cpu.shared as one span.
  if (encoding == Encoding::kEager) {
    const uint64_t t0 = NowNanos();
    decode_keys_.clear();
    Slice value;
    ANTIMR_CHECK_OK(DecodeEagerPayload(rest, &decode_keys_, &value));
    const uint64_t t1 = NowNanos();
    shared_->Add(rep_key, value);
    for (const Slice& key : decode_keys_) shared_->Add(key, value);
    if (m != nullptr) {
      m->cpu.decode += t1 - t0;
      m->cpu.shared += NowNanos() - t1;
    }
    return;
  }

  // LazySH: re-execute the original Map and Partition, keeping only the
  // records assigned to this reduce task (Algorithm 4, lines 6-10).
  Slice input_key, input_value;
  {
    const uint64_t t0 = NowNanos();
    ANTIMR_CHECK_OK(DecodeLazyPayload(rest, &input_key, &input_value));
    if (m != nullptr) m->cpu.decode += NowNanos() - t0;
  }
  remap_capture_.Clear();
  const uint64_t t0 = NowNanos();
  o_mapper_->Map(input_key, input_value, &remap_capture_);
  mine_.assign(remap_capture_.size(), false);
  for (size_t i = 0; i < remap_capture_.size(); ++i) {
    mine_[i] = info_.partitioner->Partition(remap_capture_.key(i),
                                            info_.num_reduce_tasks) ==
               info_.shuffle_partition;
  }
  // One Inc per Lazy record is dwarfed by the Map re-execution it tallies.
  static obs::Counter* const remap_counter =
      obs::MetricsRegistry::Global().GetCounter(
          "antimr_remap_calls_total",
          "LazySH decodes that re-executed the original Map");
  remap_counter->Inc();
  const uint64_t t1 = NowNanos();
  for (size_t i = 0; i < remap_capture_.size(); ++i) {
    if (mine_[i]) shared_->Add(remap_capture_.key(i), remap_capture_.value(i));
  }
  if (m != nullptr) {
    m->cpu.remap += t1 - t0;
    m->remap_calls += 1;
    m->cpu.shared += NowNanos() - t1;
  }
}

void AntiReducer::Reduce(const Slice& key, ValueIterator* values,
                         ReduceContext* ctx) {
  // Algorithm 2/4, lines 1-5: finish the Shared groups ordered before this
  // key.
  DrainShared(key, /*to_end=*/false, ctx);

  // Lines 6-10: decode every incoming record. Decoded keys are always >=
  // the representative key, so nothing lands behind the cursor.
  //
  // Fast path: flagged-plain records (EagerSH with an empty key set) whose
  // group needs no Shared interaction are accumulated locally — the common
  // case for programs with no sharing opportunities (Section 7.1), where
  // routing every record through Shared would be pure overhead. The first
  // encoded record (or pre-existing Shared content for this group)
  // switches to the general Shared path.
  local_group_.clear();
  local_arena_.Clear();
  bool use_shared = false;
  auto flush_locals = [&]() {
    const uint64_t t0 = NowNanos();
    for (const RecordRef& rec : local_group_) {
      shared_->Add(rec.key, rec.value);
    }
    if (info_.metrics != nullptr) info_.metrics->cpu.shared += NowNanos() - t0;
    local_group_.clear();
    local_arena_.Clear();
  };

  Slice payload;
  while (values->Next(&payload)) {
    const Slice record_key = values->key();
    if (!use_shared) {
      Encoding encoding;
      Slice rest;
      ANTIMR_CHECK_OK(GetEncoding(payload, &encoding, &rest));
      if (encoding == Encoding::kEager) {
        decode_keys_.clear();
        Slice value;
        ANTIMR_CHECK_OK(DecodeEagerPayload(rest, &decode_keys_, &value));
        if (decode_keys_.empty()) {
          local_group_.push_back(local_arena_.InternRecord(record_key, value));
          continue;
        }
      }
      use_shared = true;
      flush_locals();
    }
    DecodeValue(record_key, payload);
  }

  if (!use_shared) {
    // Earlier Reduce calls may have parked grouping-equal records in
    // Shared; those force the merged path.
    Slice min_key;
    if (shared_->PeekMinKey(&min_key) &&
        info_.grouping_cmp(min_key, key) == 0) {
      use_shared = true;
      flush_locals();
    }
  }

  // Lines 11-12: run the original Reduce on the union of the decoded
  // records for this group (regular input and Shared are merged inside
  // PopMinKeyValues, in key order).
  if (use_shared) {
    group_values_.clear();
    if (shared_->PopMinKeyValues(&group_key_, &group_values_)) {
      SliceVectorIterator it(&group_values_);
      o_reducer_->Reduce(group_key_, &it, ctx);
    }
    return;
  }
  if (!local_group_.empty()) {
    // Hand the original Reduce arena-backed views: the group's records are
    // already pinned in local_arena_, so no per-value string is built.
    local_values_.clear();
    local_values_.reserve(local_group_.size());
    for (const RecordRef& rec : local_group_) {
      local_values_.push_back(rec.value);
    }
    SliceVectorIterator it(&local_values_);
    o_reducer_->Reduce(local_group_.front().key, &it, ctx);
  }
}

void AntiReducer::Cleanup(ReduceContext* ctx) {
  // Process everything left in Shared (the cleanup loop of Section 3.2),
  // then shut down the wrapped objects.
  DrainShared(Slice(), /*to_end=*/true, ctx);
  o_reducer_->Cleanup(ctx);
  remap_capture_.Clear();
  o_mapper_->Cleanup(&remap_capture_);
  remap_capture_.Clear();
  if (o_combiner_ != nullptr) {
    CollectingContext discard_ctx(&discard_);
    o_combiner_->Cleanup(&discard_ctx);
    discard_.clear();
  }
  shared_.reset();
}

// ---------------------------------------------------------------------------

AntiCombiner::AntiCombiner(ReducerFactory o_combiner_factory,
                           MapperFactory o_mapper_factory)
    : o_combiner_factory_(std::move(o_combiner_factory)),
      o_mapper_factory_(std::move(o_mapper_factory)) {}

void AntiCombiner::Setup(const TaskInfo& info, ReduceContext* ctx) {
  (void)ctx;
  info_ = info;
  o_combiner_ = o_combiner_factory_();
  std::vector<KV> discard;
  CollectingContext discard_ctx(&discard);
  o_combiner_->Setup(info, &discard_ctx);

  o_mapper_ = o_mapper_factory_();
  remap_capture_.Clear();
  o_mapper_->Setup(info, &remap_capture_);
  remap_capture_.Clear();

  acc_.clear();
  acc_arena_.Clear();
}

void AntiCombiner::AddAcc(const Slice& key, const Slice& value) {
  auto it = acc_.find(key);
  if (it == acc_.end()) {
    // First sighting: intern the key once; every later record with this key
    // costs only the value intern.
    it = acc_.emplace(acc_arena_.Intern(key), std::vector<Slice>()).first;
  }
  it->second.push_back(acc_arena_.Intern(value));
}

void AntiCombiner::DecodeValue(const Slice& rep_key, const Slice& payload) {
  Encoding encoding;
  Slice rest;
  ANTIMR_CHECK_OK(GetEncoding(payload, &encoding, &rest));
  if (encoding == Encoding::kEager) {
    std::vector<Slice> other_keys;
    Slice value;
    ANTIMR_CHECK_OK(DecodeEagerPayload(rest, &other_keys, &value));
    AddAcc(rep_key, value);
    for (const Slice& key : other_keys) {
      AddAcc(key, value);
    }
    return;
  }
  Slice input_key, input_value;
  ANTIMR_CHECK_OK(DecodeLazyPayload(rest, &input_key, &input_value));
  remap_capture_.Clear();
  o_mapper_->Map(input_key, input_value, &remap_capture_);
  if (info_.metrics != nullptr) info_.metrics->remap_calls += 1;
  for (size_t i = 0; i < remap_capture_.size(); ++i) {
    const Slice k = remap_capture_.key(i);
    if (info_.partitioner->Partition(k, info_.num_reduce_tasks) ==
        info_.shuffle_partition) {
      AddAcc(k, remap_capture_.value(i));
    }
  }
}

void AntiCombiner::Reduce(const Slice& key, ValueIterator* values,
                          ReduceContext* ctx) {
  (void)ctx;  // all output is emitted from Cleanup, already re-encoded
  (void)key;
  Slice payload;
  while (values->Next(&payload)) {
    // The record's own key, not the group key: with a grouping comparator
    // the two can differ.
    DecodeValue(values->key(), payload);
  }
}

void AntiCombiner::Cleanup(ReduceContext* ctx) {
  // Combine each decoded key's values with the original Combiner, visiting
  // keys in comparator order (the accumulator is unordered for insert
  // speed; one sort here is cheaper than a tree per insert).
  std::vector<Slice> keys;
  keys.reserve(acc_.size());
  for (const auto& [key, values] : acc_) keys.push_back(key);
  std::sort(keys.begin(), keys.end(), [this](const Slice& a, const Slice& b) {
    return info_.key_cmp(a, b) < 0;
  });
  std::vector<KV> combined;
  CollectingContext collect(&combined);
  for (const Slice& key : keys) {
    SliceVectorIterator it(&acc_[key]);
    o_combiner_->Reduce(key, &it, &collect);
  }
  o_combiner_->Cleanup(&collect);
  acc_.clear();
  acc_arena_.Clear();

  // Re-encode with EagerSH: group the combined records by value so keys
  // sharing a combined value collapse into one record.
  std::unordered_map<std::string_view, std::vector<size_t>> by_value;
  for (size_t i = 0; i < combined.size(); ++i) {
    by_value[combined[i].value].push_back(i);
  }
  struct Group {
    Slice rep_key;
    std::vector<Slice> other_keys;
    Slice value;
  };
  std::vector<Group> groups;
  groups.reserve(by_value.size());
  for (auto& [value, indexes] : by_value) {
    Group g;
    g.value = Slice(value.data(), value.size());
    size_t min_pos = 0;
    for (size_t j = 1; j < indexes.size(); ++j) {
      if (info_.key_cmp(combined[indexes[j]].key,
                        combined[indexes[min_pos]].key) < 0) {
        min_pos = j;
      }
    }
    g.rep_key = combined[indexes[min_pos]].key;
    for (size_t j = 0; j < indexes.size(); ++j) {
      if (j == min_pos) continue;
      g.other_keys.push_back(Slice(combined[indexes[j]].key));
    }
    std::sort(g.other_keys.begin(), g.other_keys.end(),
              [this](const Slice& a, const Slice& b) {
                return info_.key_cmp(a, b) < 0;
              });
    groups.push_back(std::move(g));
  }
  // The segment this combiner feeds must stay key-sorted for later merges.
  std::sort(groups.begin(), groups.end(),
            [this](const Group& a, const Group& b) {
              return info_.key_cmp(a.rep_key, b.rep_key) < 0;
            });
  std::string payload;
  for (const Group& g : groups) {
    EncodeEagerPayload(g.other_keys, g.value, &payload);
    ctx->Emit(g.rep_key, payload);
  }

}

}  // namespace anticombine
}  // namespace antimr
