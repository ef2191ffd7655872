// Grouped execution machinery (shared by Reduce calls and Combiner
// application) and the reduce task driver: fetch shuffled segments, k-way
// merge, group by the grouping comparator, run Reduce per group in key order.
#ifndef ANTIMR_MR_REDUCE_TASK_H_
#define ANTIMR_MR_REDUCE_TASK_H_

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "mr/job_spec.h"
#include "mr/metrics.h"
#include "mr/shuffle.h"
#include "mr/task_control.h"
#include "net/shuffle_service.h"
#include "net/wire.h"

namespace antimr {

/// Statistics from one grouped execution pass.
struct GroupRunStats {
  uint64_t groups = 0;
  uint64_t records = 0;
};

/// Drive `reducer` over `stream`: one Reduce call per group of
/// grouping-comparator-equal keys, in stream order, each in `fn_phase`.
/// Does not call Setup/Cleanup (the caller owns lifecycle). Stops at the
/// first stream error or the first error the reducer reported through
/// ctx->Fail.
Status RunGroups(KVStream* stream, const KeyComparator& grouping_cmp,
                 Reducer* reducer, Phase fn_phase, ReduceContext* ctx,
                 GroupRunStats* stats);

/// \brief The framework's one ReduceContext for output. Counts the records
/// and bytes emitted and hands each record, as views valid for the call, to
/// the caller's destination (a segment writer, a capture arena, a collected
/// output) or to nothing. A destination error latches through Fail; later
/// records are only counted.
class OutputSink : public ReduceContext {
 public:
  OutputSink() = default;  ///< count only
  explicit OutputSink(
      std::function<Status(const Slice& key, const Slice& value)> destination)
      : destination_(std::move(destination)) {}

  void Emit(const Slice& key, const Slice& value) override {
    records_ += 1;
    bytes_ += key.size() + value.size();
    if (destination_ && status().ok()) {
      Status st = destination_(key, value);
      if (!st.ok()) Fail(std::move(st));
    }
  }

  uint64_t records() const { return records_; }
  uint64_t bytes() const { return bytes_; }

 private:
  std::function<Status(const Slice& key, const Slice& value)> destination_;
  uint64_t records_ = 0;
  uint64_t bytes_ = 0;
};

/// Run a Combiner (with full Setup/Cleanup lifecycle) over a sorted stream,
/// emitting its output into `out`. Used on map-side spills and merges.
Status ApplyCombiner(const JobSpec& spec, const TaskInfo& info,
                     KVStream* stream, ReduceContext* out,
                     GroupRunStats* stats);

/// Inputs to one reduce task: the segments produced for its partition by
/// every map task (one per spill run, or one merged segment per map), either
/// already copied to the reduce side by the local engine's concurrent
/// fetchers, or pulled by the task itself (distributed runs). Either way the
/// bytes crossed a ShuffleClient. Both lists are in (map index, run) order:
/// merge order is part of the output contract.
struct ReduceTaskInputs {
  /// Segments pre-fetched by the concurrent shuffle phase, borrowed from
  /// the scheduler (which keeps ownership so a transiently-failed reduce
  /// can be retried against the same fetched bytes). Decompression is
  /// still block-at-a-time during the merge.
  std::vector<const FetchedSegment*> fetched;
  /// Segments this task pulls through `shuffle` at task start (distributed
  /// reduce tasks). Their transfer volume is counted from
  /// FetchedSegment::fetched_bytes, the same boundary the local fetchers
  /// use, so both inputs account identically.
  std::vector<net::SegmentRef> remote;
  /// Fetcher for `remote`; required when `remote` is non-empty.
  net::ShuffleClient* shuffle = nullptr;
  /// Optional cancellation/progress hook (mr/task_control.h), polled between
  /// remote segment fetches. A cancelled reduce aborts with a transient
  /// IOError before emitting output.
  TaskControl* control = nullptr;
};

struct ReduceTaskResult {
  std::vector<KV> output;
  JobMetrics metrics;
};

/// Execute reduce task `partition` end to end.
Status RunReduceTask(const JobSpec& spec, int partition,
                     const ReduceTaskInputs& inputs, Env* env,
                     bool collect_output, ReduceTaskResult* result);

}  // namespace antimr

#endif  // ANTIMR_MR_REDUCE_TASK_H_
