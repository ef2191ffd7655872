// AntiMapper: the mapper-side half of the syntactic transformation (paper
// Figure 7). Wraps the original Mapper as a black box, intercepts its output
// through a capturing context, measures the Map + Partition cost, and —
// independently per target partition — emits the cheaper of the EagerSH and
// LazySH encodings, constrained by threshold T. The unit it encodes is a
// batch of Map calls: one call in the paper's algorithm, W calls with the
// Section 9 cross-call window. The costs are the values of the phase
// switches (common/stopwatch.h) that end the original Map calls and their
// Partition calls. BatchEncoder is the grouping and emission half of that
// encoder; the map-side AntiCombiner re-encodes its combined output with it.
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
/// Arena-backed: one batch's output lands in a single reused buffer, so
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

/// One Map call of a batch: its input record (kept for LazySH) and the end
/// of its records in the batch's capture.
struct MapCall {
  RecordRef input;
  size_t records_end = 0;
};

/// \brief Figure 7's plan and emit steps over one batch of records.
///
/// Plan sorts the batch by (partition, value, key) and, per partition,
/// builds both encodings in one walk: the EagerSH value groups, and one
/// LazySH record per Map call that contributed to the partition, keyed by
/// that call's minimal key there. The caller chooses per plan and emits.
/// Views point into the planned records and inputs; scratch is reused
/// across batches, so a warm batch allocates nothing.
class BatchEncoder {
 public:
  /// One target partition's two encodings and their encoded sizes.
  struct PartitionPlan {
    int partition = 0;
    size_t groups_begin = 0;
    size_t groups_end = 0;
    size_t eager_bytes = 0;
    size_t lazy_begin = 0;
    size_t lazy_end = 0;
    size_t lazy_bytes = 0;
  };

  void Bind(const KeyComparator& key_cmp) { key_order_ = KeyOrder(key_cmp); }

  /// Plan `records`, record i bound for `partitions[i]`. `calls` partition
  /// the records in capture order; with no calls (records emitted outside
  /// Map) the plans have no LazySH records.
  void Plan(std::span<const RecordRef> records, std::span<const int> partitions,
            std::span<const MapCall> calls);
  std::span<const PartitionPlan> plans() const { return plans_; }

  /// Emit a plan's EagerSH groups ordered by representative key, then by
  /// value. Counts plain and eager records into `metrics` when non-null.
  void EmitEager(const PartitionPlan& plan, MapContext* ctx,
                 JobMetrics* metrics);
  /// Emit a plan's LazySH records in call order, counting them into
  /// `metrics` when non-null.
  void EmitLazy(const PartitionPlan& plan, std::span<const MapCall> calls,
                MapContext* ctx, JobMetrics* metrics);

 private:
  /// One EagerSH value group: its non-representative keys are
  /// group_keys_[keys_begin, keys_end).
  struct EagerGroup {
    Slice rep_key;
    Slice value;
    size_t keys_begin = 0;
    size_t keys_end = 0;
  };
  /// One LazySH record: calls[call].input keyed by `key`.
  struct LazyRecord {
    Slice key;
    size_t call = 0;
  };

  /// Append the plan of the partition range starting at order_[*pos] and
  /// advance *pos past it.
  void PlanPartition(std::span<const RecordRef> records,
                     std::span<const int> partitions,
                     std::span<const MapCall> calls, size_t* pos);

  KeyOrder key_order_;  // inline when bytewise
  std::string payload_;
  std::vector<size_t> order_;  // index sort for grouping
  std::vector<EagerGroup> groups_;
  std::vector<Slice> group_keys_;  // every group's non-representative keys
  std::vector<LazyRecord> lazy_;
  std::vector<PartitionPlan> plans_;
  std::vector<size_t> call_of_;    // record index -> call
  std::vector<size_t> call_plan_;  // call -> last plan it contributed to
  std::vector<Slice> call_min_;    // call -> minimal key in that plan
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
  /// Encode and emit the batch captured in Phase::map_fn, leaving the clock
  /// in Phase::encode, and start an empty batch. A batch with no calls
  /// (Setup/Cleanup emissions) cannot be Lazy-encoded because there is no
  /// input record to resend.
  void EncodeBatch(MapContext* ctx);

  /// Count `records` as the wrapped Map's logical output.
  void CountMapOutput(const CaptureContext& records);

  /// Record one AdaptiveSH Eager/Lazy choice as a trace instant. Decisions
  /// happen per partition per batch — far too many to record all — so
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
  TaskInfo info_;
  std::string payload_;  // fast-path scratch
  // The open batch: the records of its calls, the calls, and their summed
  // Map cost. An earlier call's input is interned in input_arena_; the
  // last call's input is alive while the batch is encoded inside it.
  CaptureContext capture_;
  std::vector<MapCall> calls_;
  Arena input_arena_;
  uint64_t batch_cost_nanos_ = 0;
  // Encoder scratch, reused across batches: after warm-up a Map call makes
  // no heap allocation of its own.
  std::vector<int> partitions_;  // per-record partition assignment
  BatchEncoder encoder_;
};

}  // namespace anticombine
}  // namespace antimr

#endif  // ANTIMR_ANTICOMBINE_ANTI_MAPPER_H_
