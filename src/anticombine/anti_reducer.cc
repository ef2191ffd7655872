#include "anticombine/anti_reducer.h"

#include <algorithm>
#include <atomic>

#include "anticombine/encoding.h"
#include "common/stopwatch.h"
#include "mr/metrics.h"
#include "mr/reduce_task.h"

namespace antimr {
namespace anticombine {

namespace {

std::string UniqueSharedPrefix(int task_id) {
  static std::atomic<uint64_t> counter{0};
  return "shared_r" + std::to_string(task_id) + "_" +
         std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
}

// Forwards the encoder's emissions to the combine pass's output.
class ReduceEmitContext : public MapContext {
 public:
  explicit ReduceEmitContext(ReduceContext* ctx) : ctx_(ctx) {}
  void Emit(const Slice& key, const Slice& value) override {
    ctx_->Emit(key, value);
  }

 private:
  ReduceContext* ctx_;
};

}  // namespace

void PartitionFilterContext::Bind(const TaskInfo& info) {
  partitioner_ = info.partitioner;
  num_partitions_ = info.num_reduce_tasks;
  partition_ = info.shuffle_partition;
  kept_.Clear();
}

void RecordDecoder::Setup(const TaskInfo& info) {
  metrics_ = info.metrics;
  o_mapper_ = o_mapper_factory_();
  remap_.Bind(info);
  o_mapper_->Setup(info, &remap_);
  remap_.Clear();
}

void RecordDecoder::Cleanup() {
  remap_.Clear();
  o_mapper_->Cleanup(&remap_);
  remap_.Clear();
}

Status RecordDecoder::Decode(const Slice& rep_key, const Slice& payload,
                             std::span<const RecordRef>* records) {
  Encoding encoding;
  Slice rest;
  ANTIMR_RETURN_NOT_OK(GetEncoding(payload, &encoding, &rest));
  if (encoding == Encoding::kEager) {
    Slice value;
    ANTIMR_RETURN_NOT_OK(DecodeEagerPayload(rest, &keys_, &value));
    eager_records_.clear();
    eager_records_.emplace_back(rep_key, value);
    for (const Slice& key : keys_) eager_records_.emplace_back(key, value);
    *records = eager_records_;
    return Status::OK();
  }

  // LazySH: re-execute the original Map and Partition, keeping only the
  // records assigned to this task's partition (Algorithm 4, lines 6-10).
  // The Partitioner runs inside Emit, so the other partitions' records are
  // dropped uncopied.
  Slice input_key, input_value;
  ANTIMR_RETURN_NOT_OK(DecodeLazyPayload(rest, &input_key, &input_value));
  remap_.Clear();
  SwitchPhase(Phase::remap);
  o_mapper_->Map(input_key, input_value, &remap_);
  if (metrics_ != nullptr) metrics_->remap_calls += 1;
  *records = remap_.kept().records();
  return Status::OK();
}

AntiReducer::AntiReducer(ReducerFactory o_reducer_factory,
                         MapperFactory o_mapper_factory,
                         ReducerFactory o_combiner_factory,
                         AntiCombineOptions options)
    : o_reducer_factory_(std::move(o_reducer_factory)),
      o_combiner_factory_(std::move(o_combiner_factory)),
      options_(options),
      decoder_(std::move(o_mapper_factory)) {}

void AntiReducer::Setup(const TaskInfo& info, ReduceContext* ctx) {
  info_ = info;
  o_reducer_ = o_reducer_factory_();
  o_reducer_->Setup(info, ctx);

  // The original mapper is needed to decode LazySH records.
  decoder_.Setup(info);

  if (o_combiner_factory_ && options_.combine_in_shared) {
    o_combiner_ = o_combiner_factory_();
    OutputSink discard;
    o_combiner_->Setup(info, &discard);
    if (!discard.status().ok()) ctx->Fail(discard.status());
  }

  Shared::Options so;
  so.key_cmp = info.key_cmp;
  so.grouping_cmp = info.grouping_cmp;
  so.env = info.env;
  so.file_prefix = UniqueSharedPrefix(info.task_id);
  so.memory_limit_bytes = options_.shared_memory_bytes;
  so.combiner = o_combiner_.get();
  so.metrics = info.metrics;
  so.codec = info.spill_codec;
  so.block_bytes = info.spill_block_bytes;
  shared_ = std::make_unique<Shared>(std::move(so));
}

Status AntiReducer::DrainShared(const Slice& key, bool to_end,
                                ReduceContext* ctx) {
  Slice alt_key;  // zero-copy peek; only inspected before the pop
  while (shared_->PeekMinKey(&alt_key)) {
    if (!to_end && info_.grouping_cmp(alt_key, key) >= 0) break;
    group_values_.clear();
    ANTIMR_RETURN_NOT_OK(shared_->PopMinKeyValues(&group_key_, &group_values_));
    SliceVectorIterator it(&group_values_);
    o_reducer_->Reduce(group_key_, &it, ctx);
  }
  return Status::OK();
}

Status AntiReducer::DecodeIntoShared(const Slice& rep_key,
                                     const Slice& payload) {
  // Each phase switch is one clock read that ends the previous phase, and
  // the record's Adds are charged to Phase::shared as one span: one decode
  // call, so Shared stores each distinct value among the records once,
  // and Shared's work stays out of the remap span.
  ScopedPhase phase(Phase::decode);
  std::span<const RecordRef> records;
  ANTIMR_RETURN_NOT_OK(decoder_.Decode(rep_key, payload, &records));
  SwitchPhase(Phase::shared);
  return shared_->Add(records);
}

void AntiReducer::Reduce(const Slice& key, ValueIterator* values,
                         ReduceContext* ctx) {
  const Status st = ReduceGroup(key, values, ctx);
  if (!st.ok()) ctx->Fail(st);
}

Status AntiReducer::ReduceGroup(const Slice& key, ValueIterator* values,
                                ReduceContext* ctx) {
  // Algorithm 2/4, lines 1-5: finish the Shared groups ordered before this
  // key.
  ANTIMR_RETURN_NOT_OK(DrainShared(key, /*to_end=*/false, ctx));

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
  auto flush_locals = [&]() -> Status {
    ScopedPhase phase(Phase::shared);
    for (const RecordRef& rec : local_group_) {
      ANTIMR_RETURN_NOT_OK(shared_->Add(rec.key, rec.value));
    }
    local_group_.clear();
    local_arena_.Clear();
    return Status::OK();
  };

  Slice payload;
  while (values->Next(&payload)) {
    const Slice record_key = values->key();
    if (!use_shared) {
      Encoding encoding;
      Slice rest;
      ANTIMR_RETURN_NOT_OK(GetEncoding(payload, &encoding, &rest));
      if (encoding == Encoding::kEager) {
        decode_keys_.clear();
        Slice value;
        ANTIMR_RETURN_NOT_OK(DecodeEagerPayload(rest, &decode_keys_, &value));
        if (decode_keys_.empty()) {
          local_group_.push_back(local_arena_.InternRecord(record_key, value));
          continue;
        }
      }
      use_shared = true;
      ANTIMR_RETURN_NOT_OK(flush_locals());
    }
    ANTIMR_RETURN_NOT_OK(DecodeIntoShared(record_key, payload));
  }

  if (!use_shared) {
    // Earlier Reduce calls may have parked grouping-equal records in
    // Shared; those force the merged path.
    Slice min_key;
    if (shared_->PeekMinKey(&min_key) &&
        info_.grouping_cmp(min_key, key) == 0) {
      use_shared = true;
      ANTIMR_RETURN_NOT_OK(flush_locals());
    }
  }

  // Lines 11-12: run the original Reduce on the union of the decoded
  // records for this group (regular input and Shared are merged inside
  // PopMinKeyValues, in key order).
  if (use_shared) {
    group_values_.clear();
    const Status st = shared_->PopMinKeyValues(&group_key_, &group_values_);
    if (st.IsNotFound()) return Status::OK();
    ANTIMR_RETURN_NOT_OK(st);
    SliceVectorIterator it(&group_values_);
    o_reducer_->Reduce(group_key_, &it, ctx);
    return Status::OK();
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
  return Status::OK();
}

void AntiReducer::Cleanup(ReduceContext* ctx) {
  // Process everything left in Shared (the cleanup loop of Section 3.2),
  // then shut down the wrapped objects.
  const Status drained = DrainShared(Slice(), /*to_end=*/true, ctx);
  if (!drained.ok()) {
    ctx->Fail(drained);
    return;
  }
  o_reducer_->Cleanup(ctx);
  decoder_.Cleanup();
  if (o_combiner_ != nullptr) {
    OutputSink discard;
    o_combiner_->Cleanup(&discard);
    if (!discard.status().ok()) ctx->Fail(discard.status());
  }
  shared_.reset();
}

// ---------------------------------------------------------------------------

AntiCombiner::AntiCombiner(ReducerFactory o_combiner_factory,
                           MapperFactory o_mapper_factory)
    : o_combiner_factory_(std::move(o_combiner_factory)),
      decoder_(std::move(o_mapper_factory)) {}

void AntiCombiner::Setup(const TaskInfo& info, ReduceContext* ctx) {
  info_ = info;
  o_combiner_ = o_combiner_factory_();
  OutputSink discard;
  o_combiner_->Setup(info, &discard);
  if (!discard.status().ok()) ctx->Fail(discard.status());
  decoder_.Setup(info);
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

void AntiCombiner::Reduce(const Slice& key, ValueIterator* values,
                          ReduceContext* ctx) {
  // All output is emitted from Cleanup, already re-encoded.
  (void)key;
  Slice payload;
  while (values->Next(&payload)) {
    // Decoding and re-execution leave the combine phase the enclosing
    // RunGroups runs this in; the accumulator's inserts stay in it. The
    // record's own key, not the group key: with a grouping comparator the
    // two can differ.
    std::span<const RecordRef> records;
    Status st;
    {
      ScopedPhase phase(Phase::decode);
      st = decoder_.Decode(values->key(), payload, &records);
    }
    if (!st.ok()) {
      ctx->Fail(st);
      return;
    }
    for (const RecordRef& r : records) AddAcc(r.key, r.value);
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
  CaptureContext captured;
  OutputSink combined([&captured](const Slice& k, const Slice& v) {
    captured.Emit(k, v);
    return Status::OK();
  });
  for (const Slice& key : keys) {
    SliceVectorIterator it(&acc_[key]);
    o_combiner_->Reduce(key, &it, &combined);
  }
  o_combiner_->Cleanup(&combined);
  decoder_.Cleanup();
  if (!combined.status().ok()) {
    ctx->Fail(combined.status());
    return;
  }

  // Re-encode with EagerSH: every record is this combine's partition, so
  // the encoder's one plan groups keys sharing a combined value into one
  // record, and emits the groups in key order.
  const std::span<const RecordRef> records = captured.records();
  const std::vector<int> partitions(records.size(), info_.shuffle_partition);
  BatchEncoder encoder;
  encoder.Bind(info_.key_cmp);
  encoder.Plan(records, partitions, {});
  ReduceEmitContext out(ctx);
  for (const BatchEncoder::PartitionPlan& plan : encoder.plans()) {
    encoder.EmitEager(plan, &out, /*metrics=*/nullptr);
  }
  acc_.clear();
  acc_arena_.Clear();
}

}  // namespace anticombine
}  // namespace antimr
