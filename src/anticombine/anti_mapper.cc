#include "anticombine/anti_mapper.h"

#include <algorithm>
#include <cstdint>

#include "anticombine/encoding.h"
#include "common/stopwatch.h"
#include "mr/metrics.h"
#include "obs/trace.h"

namespace antimr {
namespace anticombine {

AntiMapper::AntiMapper(MapperFactory o_mapper_factory,
                       AntiCombineOptions options, bool allow_lazy)
    : o_mapper_factory_(std::move(o_mapper_factory)),
      options_(options),
      allow_lazy_(allow_lazy) {}

void AntiMapper::TraceDecision(bool lazy, int partition, size_t lazy_bytes,
                               size_t eager_bytes) {
  if (!obs::kTraceCompiled || trace_decisions_left_ <= 0 ||
      !obs::TraceEnabled()) {
    return;
  }
  --trace_decisions_left_;
  obs::Tracer::Global().Instant(
      "anticombine", "adaptive_decision",
      obs::TraceArgs()
          .Add("choice", lazy ? std::string("lazy") : std::string("eager"))
          .Add("partition", partition)
          .Add("lazy_bytes", static_cast<uint64_t>(lazy_bytes))
          .Add("eager_bytes", static_cast<uint64_t>(eager_bytes)));
}

void AntiMapper::Setup(const TaskInfo& info, MapContext* ctx) {
  info_ = info;
  encoder_.Bind(info.key_cmp);
  o_mapper_ = o_mapper_factory_();
  o_mapper_->Setup(info, &capture_);
  EncodeBatch(ctx);
}

void AntiMapper::Cleanup(MapContext* ctx) {
  if (!calls_.empty()) {
    // A cross-call window still open at the end of the split.
    EncodeBatch(ctx);
    SwitchPhase(Phase::map_fn);
  }
  o_mapper_->Cleanup(&capture_);
  EncodeBatch(ctx);
}

void AntiMapper::Map(const Slice& key, const Slice& value, MapContext* ctx) {
  // Run the original Map in Phase::map_fn, appending its output to the
  // batch; the switch that ends it returns its exact cost (Figure 7: "Call
  // original map, measure cost").
  o_mapper_->Map(key, value, &capture_);
  if (static_cast<int>(calls_.size()) + 1 < options_.cross_call_window) {
    // The window stays open: keep this call's input until it is encoded.
    batch_cost_nanos_ += SwitchPhase(Phase::encode);
    calls_.push_back({input_arena_.InternRecord(key, value), capture_.size()});
    return;
  }
  calls_.push_back({RecordRef(key, value), capture_.size()});
  EncodeBatch(ctx);
}

void AntiMapper::CountMapOutput(const CaptureContext& records) {
  JobMetrics* m = info_.metrics;
  if (m == nullptr) return;
  m->map_output_records += records.size();
  for (size_t i = 0; i < records.size(); ++i) {
    m->map_output_bytes += records.key(i).size() + records.value(i).size();
  }
}

void BatchEncoder::Plan(std::span<const RecordRef> records,
                        std::span<const int> partitions,
                        std::span<const MapCall> calls) {
  // One sort by (partition, value, key): each partition becomes a
  // contiguous range, each value group a run inside it, and the run's
  // first record carries the minimal (representative) key.
  const size_t n = records.size();
  order_.resize(n);
  for (size_t i = 0; i < n; ++i) order_[i] = i;
  std::sort(order_.begin(), order_.end(), [&](size_t a, size_t b) {
    if (partitions[a] != partitions[b]) return partitions[a] < partitions[b];
    const int vc = records[a].value.compare(records[b].value);
    if (vc != 0) return vc < 0;
    return key_order_.Less(records[a].key, records[b].key);
  });
  call_of_.clear();
  for (size_t c = 0; c < calls.size(); ++c) {
    call_of_.resize(calls[c].records_end, c);
  }
  call_plan_.assign(calls.size(), SIZE_MAX);
  call_min_.resize(calls.size());
  plans_.clear();
  groups_.clear();
  group_keys_.clear();
  lazy_.clear();
  size_t pos = 0;
  while (pos < n) PlanPartition(records, partitions, calls, &pos);
}

void BatchEncoder::PlanPartition(std::span<const RecordRef> records,
                                 std::span<const int> partitions,
                                 std::span<const MapCall> calls, size_t* pos) {
  const size_t n = order_.size();
  const size_t plan_index = plans_.size();
  PartitionPlan& plan = plans_.emplace_back();
  // Keeps each call's minimal key in this partition: its LazySH key.
  auto note_call = [&](const RecordRef& record, size_t index) {
    if (calls.empty()) return;
    const size_t c = call_of_[index];
    if (call_plan_[c] != plan_index) {
      call_plan_[c] = plan_index;
      call_min_[c] = record.key;
    } else if (key_order_.Less(record.key, call_min_[c])) {
      call_min_[c] = record.key;
    }
  };
  size_t p = *pos;
  plan.partition = partitions[order_[p]];
  plan.groups_begin = groups_.size();
  while (p < n && partitions[order_[p]] == plan.partition) {
    // One value group: a run of equal values, keys ascending.
    const RecordRef& first = records[order_[p]];
    EagerGroup g;
    g.value = first.value;
    g.rep_key = first.key;
    g.keys_begin = group_keys_.size();
    note_call(first, order_[p]);
    ++p;
    while (p < n && partitions[order_[p]] == plan.partition &&
           records[order_[p]].value == g.value) {
      group_keys_.push_back(records[order_[p]].key);
      // A group's first key is its minimum, so a later key can lower a
      // call's minimum only when it comes from another call.
      if (calls.size() > 1) note_call(records[order_[p]], order_[p]);
      ++p;
    }
    g.keys_end = group_keys_.size();
    plan.eager_bytes +=
        g.rep_key.size() +
        EagerPayloadSize(std::span<const Slice>(group_keys_).subspan(
                             g.keys_begin, g.keys_end - g.keys_begin),
                         g.value);
    groups_.push_back(g);
  }
  plan.groups_end = groups_.size();
  // LazySH resends each contributing call's input, keyed by the call's
  // minimal key in this partition.
  plan.lazy_begin = lazy_.size();
  for (size_t c = 0; c < calls.size(); ++c) {
    if (call_plan_[c] != plan_index) continue;
    lazy_.push_back({call_min_[c], c});
    plan.lazy_bytes += call_min_[c].size() +
                       LazyPayloadSize(calls[c].input.key, calls[c].input.value);
  }
  plan.lazy_end = lazy_.size();
  *pos = p;
}

void BatchEncoder::EmitEager(const PartitionPlan& plan, MapContext* ctx,
                             JobMetrics* metrics) {
  // A total order, so the emission order is deterministic: groups with one
  // representative key (one key under several values) go by value.
  std::sort(groups_.begin() + plan.groups_begin,
            groups_.begin() + plan.groups_end,
            [this](const EagerGroup& a, const EagerGroup& b) {
              const int kc = key_order_(a.rep_key, b.rep_key);
              if (kc != 0) return kc < 0;
              return a.value.compare(b.value) < 0;
            });
  for (size_t i = plan.groups_begin; i < plan.groups_end; ++i) {
    const EagerGroup& g = groups_[i];
    EncodeEagerPayload(std::span<const Slice>(group_keys_).subspan(
                           g.keys_begin, g.keys_end - g.keys_begin),
                       g.value, &payload_);
    ctx->Emit(g.rep_key, payload_);
    if (metrics != nullptr) {
      if (g.keys_end == g.keys_begin) {
        metrics->plain_records += 1;
      } else {
        metrics->eager_records += 1;
      }
    }
  }
}

void BatchEncoder::EmitLazy(const PartitionPlan& plan,
                            std::span<const MapCall> calls, MapContext* ctx,
                            JobMetrics* metrics) {
  for (size_t i = plan.lazy_begin; i < plan.lazy_end; ++i) {
    const RecordRef& input = calls[lazy_[i].call].input;
    EncodeLazyPayload(input.key, input.value, &payload_);
    ctx->Emit(lazy_[i].key, payload_);
    if (metrics != nullptr) metrics->lazy_records += 1;
  }
}

void AntiMapper::EncodeBatch(MapContext* ctx) {
  JobMetrics* m = info_.metrics;
  const size_t n = capture_.size();
  const bool have_input = !calls_.empty();
  // A multi-record batch is counted after the Partition span, so the count
  // is charged to encode rather than to the user's Partition calls.
  if (n <= 1) CountMapOutput(capture_);

  if (n == 1 && calls_.size() <= 1) {
    // Fast path for fan-out 1 (e.g. Sort): no sharing is possible, so skip
    // the grouping machinery and emit one record — flagged-plain, or Lazy
    // when resending the input is strictly smaller (Figure 7's size test
    // degenerates to a single comparison). Keeps the Section 7.1 overhead
    // to the flag bytes plus one size comparison.
    batch_cost_nanos_ += SwitchPhase(Phase::encode);
    const Slice only_key = capture_.key(0);
    const Slice only_value = capture_.value(0);
    const size_t eager_bytes =
        only_key.size() + EagerPayloadSize({}, only_value);
    const bool lazy_ok = allow_lazy_ && have_input &&
                         options_.lazy_threshold_nanos > 0 &&
                         batch_cost_nanos_ <= options_.lazy_threshold_nanos;
    const RecordRef input = have_input ? calls_[0].input : RecordRef();
    const size_t lazy_bytes =
        only_key.size() + LazyPayloadSize(input.key, input.value);
    const bool use_lazy =
        lazy_ok && (options_.force_lazy || lazy_bytes < eager_bytes);
    TraceDecision(use_lazy, /*partition=*/-1, lazy_bytes, eager_bytes);
    if (use_lazy) {
      EncodeLazyPayload(input.key, input.value, &payload_);
      ctx->Emit(only_key, payload_);
      if (m != nullptr) m->lazy_records += 1;
    } else {
      EncodeEagerPayload({}, only_value, &payload_);
      ctx->Emit(only_key, payload_);
      if (m != nullptr) m->plain_records += 1;
    }
  } else if (n > 1) {
    // Partition every output record, measuring the Partitioner's cost
    // (Figure 7: "Call Partitioner, measure cost"). The clock read that
    // ends the last Map call starts this span, and the one that ends it
    // starts the encode span.
    batch_cost_nanos_ += SwitchPhase(Phase::partition_fn);
    partitions_.resize(n);
    for (size_t i = 0; i < n; ++i) {
      partitions_[i] =
          info_.partitioner->Partition(capture_.key(i), info_.num_reduce_tasks);
    }
    const uint64_t partition_cost = SwitchPhase(Phase::encode);
    CountMapOutput(capture_);
    encoder_.Plan(capture_.records(), partitions_, calls_);
    const std::span<const BatchEncoder::PartitionPlan> plans =
        encoder_.plans();

    // Figure 7's threshold test: if re-executing the batch's Map calls
    // (plus their Partition calls) on every receiving reduce task would
    // exceed T, fall back to EagerSH for all partitions.
    const uint64_t re_exec_cost = (batch_cost_nanos_ + partition_cost) *
                                  static_cast<uint64_t>(plans.size());
    const bool lazy_allowed = allow_lazy_ && have_input &&
                              options_.lazy_threshold_nanos > 0 &&
                              re_exec_cost <= options_.lazy_threshold_nanos;

    // Choose the encoding. Normally per partition (Figure 7); the global
    // mode (an ablation) makes one choice for the whole batch.
    bool global_lazy = false;
    if (!options_.per_partition_choice && lazy_allowed) {
      size_t eager_total = 0, lazy_total = 0;
      for (const BatchEncoder::PartitionPlan& plan : plans) {
        eager_total += plan.eager_bytes;
        lazy_total += plan.lazy_bytes;
      }
      global_lazy = options_.force_lazy || lazy_total < eager_total;
    }
    for (const BatchEncoder::PartitionPlan& plan : plans) {
      bool use_lazy = false;
      if (lazy_allowed) {
        use_lazy = options_.per_partition_choice
                       ? (options_.force_lazy ||
                          plan.lazy_bytes < plan.eager_bytes)
                       : global_lazy;
      }
      TraceDecision(use_lazy, plan.partition, plan.lazy_bytes,
                    plan.eager_bytes);
      if (use_lazy) {
        encoder_.EmitLazy(plan, calls_, ctx, m);
      } else {
        encoder_.EmitEager(plan, ctx, m);
      }
    }
  }

  capture_.Clear();
  calls_.clear();
  input_arena_.Clear();
  batch_cost_nanos_ = 0;
}

}  // namespace anticombine
}  // namespace antimr
