#include "anticombine/anti_mapper.h"

#include <algorithm>
#include <map>

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
  key_order_ = KeyOrder(info.key_cmp);
  o_mapper_ = o_mapper_factory_();
  capture_.Clear();
  o_mapper_->Setup(info, &capture_);
  EncodeAndEmit(Slice(), Slice(), /*have_input=*/false, ctx);
}

void AntiMapper::Cleanup(MapContext* ctx) {
  if (options_.cross_call_window > 1) {
    FlushWindow(ctx);
    SwitchPhase(Phase::map_fn);
  }
  capture_.Clear();
  o_mapper_->Cleanup(&capture_);
  EncodeAndEmit(Slice(), Slice(), /*have_input=*/false, ctx);
}

void AntiMapper::Map(const Slice& key, const Slice& value, MapContext* ctx) {
  capture_.Clear();
  // Run the original Map in Phase::map_fn; the switch that ends it returns
  // its exact cost (Figure 7: "Call original map, measure cost").
  o_mapper_->Map(key, value, &capture_);
  if (options_.cross_call_window > 1) {
    BufferCall(key, value, SwitchPhase(Phase::encode), ctx);
    return;
  }
  EncodeAndEmit(key, value, /*have_input=*/true, ctx);
}

void AntiMapper::CountMapOutput(const CaptureContext& records) {
  JobMetrics* m = info_.metrics;
  if (m == nullptr) return;
  m->map_output_records += records.size();
  for (size_t i = 0; i < records.size(); ++i) {
    m->map_output_bytes += records.key(i).size() + records.value(i).size();
  }
}

void AntiMapper::SortByPartitionValueKey(const CaptureContext& records) {
  const size_t n = records.size();
  order_.resize(n);
  for (size_t i = 0; i < n; ++i) order_[i] = i;
  std::sort(order_.begin(), order_.end(), [&](size_t a, size_t b) {
    if (partitions_[a] != partitions_[b]) return partitions_[a] < partitions_[b];
    const int vc = records.value(a).compare(records.value(b));
    if (vc != 0) return vc < 0;
    return key_order_.Less(records.key(a), records.key(b));
  });
}

void AntiMapper::PlanPartition(const CaptureContext& records, size_t* pos,
                               PartitionPlan* plan) {
  const size_t n = order_.size();
  size_t p = *pos;
  plan->partition = partitions_[order_[p]];
  plan->groups_begin = groups_.size();
  plan->eager_bytes = 0;
  while (p < n && partitions_[order_[p]] == plan->partition) {
    // One value group: a run of equal values, keys ascending.
    EagerGroup g;
    g.value = records.value(order_[p]);
    g.rep_key = records.key(order_[p]);
    g.keys_begin = group_keys_.size();
    ++p;
    while (p < n && partitions_[order_[p]] == plan->partition &&
           records.value(order_[p]) == g.value) {
      group_keys_.push_back(records.key(order_[p]));
      ++p;
    }
    g.keys_end = group_keys_.size();
    if (groups_.size() == plan->groups_begin ||
        key_order_.Less(g.rep_key, plan->min_key)) {
      plan->min_key = g.rep_key;
    }
    plan->eager_bytes +=
        g.rep_key.size() +
        EagerPayloadSize(std::span<const Slice>(group_keys_).subspan(
                             g.keys_begin, g.keys_end - g.keys_begin),
                         g.value);
    groups_.push_back(g);
  }
  plan->groups_end = groups_.size();
  *pos = p;
}

void AntiMapper::EmitEager(const PartitionPlan& plan, MapContext* ctx) {
  JobMetrics* m = info_.metrics;
  // Deterministic emission order: sort groups by representative key.
  std::sort(groups_.begin() + plan.groups_begin,
            groups_.begin() + plan.groups_end,
            [this](const EagerGroup& a, const EagerGroup& b) {
              return key_order_.Less(a.rep_key, b.rep_key);
            });
  for (size_t i = plan.groups_begin; i < plan.groups_end; ++i) {
    const EagerGroup& g = groups_[i];
    EncodeEagerPayload(std::span<const Slice>(group_keys_).subspan(
                           g.keys_begin, g.keys_end - g.keys_begin),
                       g.value, &payload_);
    ctx->Emit(g.rep_key, payload_);
    if (m != nullptr) {
      if (g.keys_end == g.keys_begin) {
        m->plain_records += 1;
      } else {
        m->eager_records += 1;
      }
    }
  }
}

void AntiMapper::BufferCall(const Slice& input_key, const Slice& input_value,
                            uint64_t map_cost_nanos, MapContext* ctx) {
  JobMetrics* m = info_.metrics;
  const size_t call = window_inputs_.size();
  for (size_t i = 0; i < capture_.size(); ++i) {
    window_capture_.Emit(capture_.key(i), capture_.value(i));
    window_call_of_.push_back(call);
    if (m != nullptr) {
      m->map_output_records += 1;
      m->map_output_bytes += capture_.key(i).size() + capture_.value(i).size();
    }
  }
  window_inputs_.push_back(
      window_input_arena_.InternRecord(input_key, input_value));
  window_cost_nanos_ += map_cost_nanos;
  if (window_inputs_.size() >=
      static_cast<size_t>(options_.cross_call_window)) {
    FlushWindow(ctx);
  }
}

void AntiMapper::FlushWindow(MapContext* ctx) {
  JobMetrics* m = info_.metrics;
  const size_t n = window_capture_.size();
  if (n == 0) {
    window_inputs_.clear();
    window_input_arena_.Clear();
    window_cost_nanos_ = 0;
    return;
  }

  partitions_.resize(n);
  SwitchPhase(Phase::partition_fn);
  for (size_t i = 0; i < n; ++i) {
    partitions_[i] = info_.partitioner->Partition(window_capture_.key(i),
                                                  info_.num_reduce_tasks);
  }
  // One clock read ends the Partition span and starts the encode span.
  const uint64_t partition_cost = SwitchPhase(Phase::encode);

  SortByPartitionValueKey(window_capture_);

  // Per (partition, call) minimal key: the representative a LazySH record
  // for that call would use in that partition.
  std::map<std::pair<int, size_t>, Slice> call_min_key;
  for (size_t i = 0; i < n; ++i) {
    const auto pc = std::make_pair(partitions_[i], window_call_of_[i]);
    auto [it, inserted] = call_min_key.emplace(pc, window_capture_.key(i));
    if (!inserted && key_order_.Less(window_capture_.key(i), it->second)) {
      it->second = window_capture_.key(i);
    }
  }

  // Count partitions touched for the threshold test (coarse batch form of
  // Figure 7: the whole window's Map cost would be re-paid per task).
  int partitions_touched = 0;
  {
    int prev = -1;
    for (size_t i = 0; i < n; ++i) {
      const int p = partitions_[order_[i]];
      if (p != prev) {
        ++partitions_touched;
        prev = p;
      }
    }
  }
  const uint64_t re_exec_cost =
      (window_cost_nanos_ + partition_cost) *
      static_cast<uint64_t>(partitions_touched);
  const bool lazy_allowed = allow_lazy_ &&
                            options_.lazy_threshold_nanos > 0 &&
                            re_exec_cost <= options_.lazy_threshold_nanos;

  // Walk partition ranges; inside each, value-group runs give the
  // cross-call EagerSH encoding.
  size_t pos = 0;
  PartitionPlan plan;
  while (pos < n) {
    groups_.clear();
    group_keys_.clear();
    PlanPartition(window_capture_, &pos, &plan);

    // LazySH alternative: resend every buffered input that contributed to
    // this partition.
    size_t lazy_bytes = 0;
    size_t lazy_count = 0;
    for (size_t c = 0; c < window_inputs_.size(); ++c) {
      auto it = call_min_key.find({plan.partition, c});
      if (it == call_min_key.end()) continue;
      lazy_bytes += it->second.size() +
                    LazyPayloadSize(window_inputs_[c].key,
                                    window_inputs_[c].value);
      ++lazy_count;
    }

    const bool use_lazy = lazy_allowed && lazy_count > 0 &&
                          (options_.force_lazy || lazy_bytes < plan.eager_bytes);
    TraceDecision(use_lazy, plan.partition, lazy_bytes, plan.eager_bytes);
    if (use_lazy) {
      for (size_t c = 0; c < window_inputs_.size(); ++c) {
        auto it = call_min_key.find({plan.partition, c});
        if (it == call_min_key.end()) continue;
        EncodeLazyPayload(window_inputs_[c].key, window_inputs_[c].value,
                          &payload_);
        ctx->Emit(it->second, payload_);
        if (m != nullptr) m->lazy_records += 1;
      }
      continue;
    }
    EmitEager(plan, ctx);
  }

  window_capture_.Clear();
  window_call_of_.clear();
  window_inputs_.clear();
  window_input_arena_.Clear();
  window_cost_nanos_ = 0;
}

void AntiMapper::EncodeAndEmit(const Slice& input_key,
                               const Slice& input_value, bool have_input,
                               MapContext* ctx) {
  JobMetrics* m = info_.metrics;
  const size_t n = capture_.size();
  // A multi-record batch is counted after the Partition span, so the count
  // is charged to encode rather than to the user's Partition calls.
  if (n <= 1) CountMapOutput(capture_);
  if (n == 0) return;

  // Fast path for fan-out 1 (e.g. Sort): no sharing is possible, so skip
  // the grouping machinery and emit one record — flagged-plain, or Lazy
  // when resending the input is strictly smaller (Figure 7's size test
  // degenerates to a single comparison). Keeps the Section 7.1 overhead to
  // the flag bytes plus one size comparison.
  if (n == 1) {
    const uint64_t map_cost_nanos = SwitchPhase(Phase::encode);
    const Slice only_key = capture_.key(0);
    const Slice only_value = capture_.value(0);
    const size_t eager_bytes = only_key.size() + EagerPayloadSize({}, only_value);
    const bool lazy_ok = allow_lazy_ && have_input &&
                         options_.lazy_threshold_nanos > 0 &&
                         map_cost_nanos <= options_.lazy_threshold_nanos;
    const size_t lazy_bytes =
        only_key.size() + LazyPayloadSize(input_key, input_value);
    const bool use_lazy =
        lazy_ok && (options_.force_lazy || lazy_bytes < eager_bytes);
    TraceDecision(use_lazy, /*partition=*/-1, lazy_bytes, eager_bytes);
    if (use_lazy) {
      EncodeLazyPayload(input_key, input_value, &payload_);
      ctx->Emit(only_key, payload_);
      if (m != nullptr) m->lazy_records += 1;
    } else {
      EncodeEagerPayload({}, only_value, &payload_);
      ctx->Emit(only_key, payload_);
      if (m != nullptr) m->plain_records += 1;
    }
    return;
  }

  // Partition every output record, measuring the Partitioner's cost
  // (Figure 7: "Call Partitioner, measure cost"). The clock read that ends
  // the Map call starts this span, and the one that ends it starts the
  // encode span.
  const uint64_t map_cost_nanos = SwitchPhase(Phase::partition_fn);
  partitions_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    partitions_[i] =
        info_.partitioner->Partition(capture_.key(i), info_.num_reduce_tasks);
  }
  const uint64_t partition_cost = SwitchPhase(Phase::encode);
  CountMapOutput(capture_);

  // One sort by (partition, value, key) replaces per-call hash maps.
  SortByPartitionValueKey(capture_);

  // Phase 1: build each partition's EagerSH encoding and size both options.
  plans_.clear();
  groups_.clear();
  group_keys_.clear();
  size_t pos = 0;
  while (pos < n) {
    PartitionPlan& plan = plans_.emplace_back();
    PlanPartition(capture_, &pos, &plan);
    // LazySH resends the input record keyed by this partition's minimal key.
    plan.lazy_bytes =
        plan.min_key.size() + LazyPayloadSize(input_key, input_value);
  }

  // Figure 7's threshold test: if re-executing this Map call (plus its
  // Partition calls) on every receiving reduce task would exceed T, fall
  // back to EagerSH for all partitions.
  const uint64_t re_exec_cost =
      (map_cost_nanos + partition_cost) * static_cast<uint64_t>(plans_.size());
  const bool lazy_allowed = allow_lazy_ && have_input &&
                            options_.lazy_threshold_nanos > 0 &&
                            re_exec_cost <= options_.lazy_threshold_nanos;

  // Phase 2: choose the encoding. Normally per partition (Figure 7); the
  // global mode (an ablation) makes one choice for the whole Map call.
  bool global_lazy = false;
  if (!options_.per_partition_choice && lazy_allowed) {
    size_t eager_total = 0, lazy_total = 0;
    for (const PartitionPlan& plan : plans_) {
      eager_total += plan.eager_bytes;
      lazy_total += plan.lazy_bytes;
    }
    global_lazy = options_.force_lazy || lazy_total < eager_total;
  }

  for (const PartitionPlan& plan : plans_) {
    bool use_lazy = false;
    if (lazy_allowed) {
      use_lazy = options_.per_partition_choice
                     ? (options_.force_lazy ||
                        plan.lazy_bytes < plan.eager_bytes)
                     : global_lazy;
    }
    TraceDecision(use_lazy, plan.partition, plan.lazy_bytes, plan.eager_bytes);
    if (use_lazy) {
      EncodeLazyPayload(input_key, input_value, &payload_);
      ctx->Emit(plan.min_key, payload_);
      if (m != nullptr) m->lazy_records += 1;
      continue;
    }
    EmitEager(plan, ctx);
  }
}

}  // namespace anticombine
}  // namespace antimr
