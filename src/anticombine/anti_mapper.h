// AntiMapper: the mapper-side half of the syntactic transformation (paper
// Figure 7). Wraps the original Mapper as a black box, intercepts each Map
// call's output through a capturing context, measures the call's Map +
// Partition cost, and — independently per target partition — emits the
// cheaper of the EagerSH and LazySH encodings, constrained by threshold T.
// The costs are the values of the phase switches (common/stopwatch.h) that
// end the original Map call and its Partition calls.
#ifndef ANTIMR_ANTICOMBINE_ANTI_MAPPER_H_
#define ANTIMR_ANTICOMBINE_ANTI_MAPPER_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "anticombine/options.h"
#include "common/arena.h"
#include "io/merger.h"
#include "mr/api.h"

namespace antimr {
namespace anticombine {

/// \brief MapContext that records emissions instead of forwarding them.
///
/// Arena-backed: one Map call's output lands in a single reused buffer, so
/// interception costs no per-record allocations after warm-up.
class CaptureContext : public MapContext {
 public:
  void Emit(const Slice& key, const Slice& value) override {
    entries_.push_back(arena_.InternRecord(key, value));
  }

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Views are stable until Clear(): the chunked arena never relocates
  /// interned bytes, so captured slices can be held across further Emits
  /// (the cross-call window relies on this).
  Slice key(size_t i) const { return entries_[i].key; }
  Slice value(size_t i) const { return entries_[i].value; }
  std::span<const RecordRef> records() const { return entries_; }

  void Clear() {
    arena_.Clear();
    entries_.clear();
  }

 private:
  Arena arena_;
  std::vector<RecordRef> entries_;
};

/// \brief Adaptive encoding mapper.
///
/// `allow_lazy` must be false when the original Map or Partition function is
/// non-deterministic (paper Section 6.2); the transform derives it from
/// JobSpec::deterministic.
class AntiMapper : public Mapper {
 public:
  AntiMapper(MapperFactory o_mapper_factory, AntiCombineOptions options,
             bool allow_lazy);

  void Setup(const TaskInfo& info, MapContext* ctx) override;
  void Map(const Slice& key, const Slice& value, MapContext* ctx) override;
  void Cleanup(MapContext* ctx) override;

 private:
  /// One EagerSH value group of the batch being encoded: its non-
  /// representative keys are group_keys_[keys_begin, keys_end).
  struct EagerGroup {
    Slice rep_key;
    Slice value;
    size_t keys_begin = 0;
    size_t keys_end = 0;
  };
  /// One target partition's two encodings: EagerSH as
  /// groups_[groups_begin, groups_end), LazySH as the input keyed by
  /// min_key.
  struct PartitionPlan {
    int partition = 0;
    size_t groups_begin = 0;
    size_t groups_end = 0;
    size_t eager_bytes = 0;
    Slice min_key;
    size_t lazy_bytes = 0;
  };

  /// Encode and emit the batch captured in Phase::map_fn, leaving the clock
  /// in Phase::encode. `have_input` is false for batches captured outside a
  /// Map call (Setup/Cleanup emissions), which cannot be Lazy-encoded
  /// because there is no input record to resend.
  void EncodeAndEmit(const Slice& input_key, const Slice& input_value,
                     bool have_input, MapContext* ctx);

  /// Count `records` as the wrapped Map's logical output.
  void CountMapOutput(const CaptureContext& records);

  /// Sort order_ (indexes into `records`, partitions in partitions_) by
  /// (partition, value, key): each partition becomes a contiguous range,
  /// each value group a contiguous run inside it, and the run's first
  /// record carries the minimal (representative) key.
  void SortByPartitionValueKey(const CaptureContext& records);

  /// Append the value groups of the partition range starting at
  /// order_[*pos] to groups_ and group_keys_, size its EagerSH encoding into
  /// *plan, and advance *pos past the range.
  void PlanPartition(const CaptureContext& records, size_t* pos,
                     PartitionPlan* plan);

  /// Emit a plan's EagerSH groups in representative-key order.
  void EmitEager(const PartitionPlan& plan, MapContext* ctx);

  /// Cross-call mode (options_.cross_call_window > 1): stash one Map
  /// call's capture into the window buffers, flushing when full.
  void BufferCall(const Slice& input_key, const Slice& input_value,
                  uint64_t map_cost_nanos, MapContext* ctx);

  /// Encode and emit the whole buffered window: EagerSH value groups span
  /// calls; LazySH records still resend individual inputs. Leaves the clock
  /// in Phase::encode.
  void FlushWindow(MapContext* ctx);

  /// Record one AdaptiveSH Eager/Lazy choice as a trace instant. Decisions
  /// happen per partition per Map call — far too many to record all — so
  /// only the first few per mapper instance are emitted, enough to see in a
  /// trace which way each stage's mappers lean. `partition` is -1 when the
  /// fan-out-1 fast path decides without partitioning.
  void TraceDecision(bool lazy, int partition, size_t lazy_bytes,
                     size_t eager_bytes);

  MapperFactory o_mapper_factory_;
  AntiCombineOptions options_;
  bool allow_lazy_;
  int trace_decisions_left_ = 32;  ///< sampling budget for TraceDecision

  std::unique_ptr<Mapper> o_mapper_;
  CaptureContext capture_;
  TaskInfo info_;
  std::string payload_;         // scratch reused across emissions
  KeyOrder key_order_;           // info_.key_cmp, inline when bytewise
  // Encoder scratch, reused across calls: after warm-up a Map call makes
  // no heap allocation of its own.
  std::vector<int> partitions_;  // per-record partition assignment
  std::vector<size_t> order_;    // index sort for grouping
  std::vector<EagerGroup> groups_;
  std::vector<Slice> group_keys_;  // every group's non-representative keys
  std::vector<PartitionPlan> plans_;

  // Cross-call window state (only used when cross_call_window > 1).
  CaptureContext window_capture_;     // records of all buffered calls
  std::vector<size_t> window_call_of_;  // record index -> buffered call
  Arena window_input_arena_;            // backs window_inputs_'s views
  std::vector<RecordRef> window_inputs_;  // buffered calls' input records
  uint64_t window_cost_nanos_ = 0;    // summed Map cost of buffered calls
};

}  // namespace anticombine
}  // namespace antimr

#endif  // ANTIMR_ANTICOMBINE_ANTI_MAPPER_H_
