#include "mr/reduce_task.h"

#include "common/stopwatch.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"

namespace antimr {

namespace {

// Iterates the values of one group, advancing the underlying merge stream.
class GroupValueIterator : public ValueIterator {
 public:
  GroupValueIterator(KVStream* stream, const std::string* group_key,
                     const KeyComparator* grouping_cmp)
      : stream_(stream), group_key_(group_key), grouping_cmp_(grouping_cmp) {}

  bool Next(Slice* value) override {
    if (exhausted_) return false;
    if (!started_) {
      started_ = true;
      *value = stream_->value();
      ++consumed_;
      return true;
    }
    // Stream errors (e.g. a corrupt segment block) end the iteration; the
    // status is surfaced to RunGroups so the task fails cleanly instead of
    // decoding garbage.
    status_ = stream_->Next();
    if (!status_.ok() || !stream_->Valid() ||
        (*grouping_cmp_)(stream_->key(), Slice(*group_key_)) != 0) {
      exhausted_ = true;
      return false;
    }
    *value = stream_->value();
    ++consumed_;
    return true;
  }

  Slice key() const override { return stream_->key(); }

  /// Advance past any unconsumed records of this group.
  void Drain() {
    Slice ignored;
    while (Next(&ignored)) {
    }
  }

  uint64_t consumed() const { return consumed_; }

  /// Error from the underlying stream, if iteration hit one.
  const Status& status() const { return status_; }

 private:
  KVStream* stream_;
  const std::string* group_key_;
  const KeyComparator* grouping_cmp_;
  bool started_ = false;
  bool exhausted_ = false;
  uint64_t consumed_ = 0;
  Status status_;
};

}  // namespace

Status RunGroups(KVStream* stream, const KeyComparator& grouping_cmp,
                 Reducer* reducer, Phase fn_phase, ReduceContext* ctx,
                 GroupRunStats* stats) {
  std::string group_key;
  while (stream->Valid()) {
    group_key.assign(stream->key().data(), stream->key().size());
    GroupValueIterator values(stream, &group_key, &grouping_cmp);
    {
      ScopedPhase phase(fn_phase);
      reducer->Reduce(group_key, &values, ctx);
    }
    values.Drain();
    stats->groups += 1;
    stats->records += values.consumed();
    ANTIMR_RETURN_NOT_OK(values.status());
    ANTIMR_RETURN_NOT_OK(ctx->status());
  }
  return Status::OK();
}

Status ApplyCombiner(const JobSpec& spec, const TaskInfo& info,
                     KVStream* stream, ReduceContext* out,
                     GroupRunStats* stats) {
  std::unique_ptr<Reducer> combiner = spec.combiner_factory();
  combiner->Setup(info, out);
  ANTIMR_RETURN_NOT_OK(out->status());
  ANTIMR_RETURN_NOT_OK(RunGroups(stream, spec.EffectiveGroupingCmp(),
                                 combiner.get(), Phase::combine, out, stats));
  {
    // AntiCombiner does its combining and re-encoding work in Cleanup.
    ScopedPhase phase(Phase::combine);
    combiner->Cleanup(out);
  }
  return out->status();
}

Status RunReduceTask(const JobSpec& spec, int partition,
                     const ReduceTaskInputs& inputs, Env* env,
                     bool collect_output, ReduceTaskResult* result) {
  JobMetrics& m = result->metrics;
  ANTIMR_TRACE_SPAN_DYN("task", "reduce:" + spec.name + " #" +
                                    std::to_string(partition));
  const uint64_t clock_start = StartPhaseClock();
  const Codec* codec = GetCodec(spec.map_output_codec);

  // Open every segment of every map task for this partition, in (map, run)
  // order, as a streaming block reader over the fetched bytes in place. The
  // transfer wait is FetchedSegment::fetch_nanos: reading the fetched frames
  // is an in-memory scan, not a wait.
  // Empty segments join the merge too (it skips them). Raw stats pointers
  // stay valid while `merged` owns the readers; stats are harvested after
  // the merge completes.
  std::vector<std::unique_ptr<KVStream>> segments;
  std::vector<const BlockReadStats*> reader_stats;
  // Remote segments are pulled through the transport now, before any reader
  // opens: their bytes (FetchedSegment::fetched_bytes = stored segment
  // size as it crossed the wire) are the task's shuffle transfer volume,
  // measured at the same boundary the engine's fetch tasks use.
  std::vector<FetchedSegment> remote_storage;
  if (!inputs.remote.empty()) {
    if (inputs.shuffle == nullptr) {
      return Status::InvalidArgument(
          "ReduceTaskInputs.remote requires a ShuffleClient");
    }
    remote_storage.resize(inputs.remote.size());
    for (size_t i = 0; i < inputs.remote.size(); ++i) {
      if (inputs.control != nullptr) {
        if (inputs.control->cancelled()) {
          return Status::IOError("reduce task " + std::to_string(partition) +
                                 " cancelled");
        }
        // Fetch dominates reduce wall time at bench scale; report the
        // fetched fraction as this task's (coarse) progress.
        inputs.control->SetProgress(i, inputs.remote.size());
      }
      ANTIMR_RETURN_NOT_OK(inputs.shuffle->Fetch(
          inputs.remote[i].addr, inputs.remote[i].file, &remote_storage[i]));
    }
  }
  if (inputs.control != nullptr && inputs.control->cancelled()) {
    return Status::IOError("reduce task " + std::to_string(partition) +
                           " cancelled");
  }
  auto adopt_fetched = [&](const FetchedSegment& fs) -> Status {
    m.shuffle_bytes += fs.fetched_bytes;
    m.shuffle_fetch_wait_nanos += fs.fetch_nanos;
    std::unique_ptr<BlockRunReader> reader;
    ANTIMR_RETURN_NOT_OK(
        OpenFetchedSegment(fs, codec, kShuffleReadaheadBlocks, &reader));
    reader_stats.push_back(&reader->stats());
    segments.push_back(std::move(reader));
    return Status::OK();
  };
  for (const FetchedSegment& fs : remote_storage) {
    ANTIMR_RETURN_NOT_OK(adopt_fetched(fs));
  }
  for (const FetchedSegment* fs : inputs.fetched) {
    ANTIMR_RETURN_NOT_OK(adopt_fetched(*fs));
  }

  MergingStream merged(std::move(segments), spec.key_cmp);

  TaskInfo info;
  info.task_id = partition;
  info.num_reduce_tasks = spec.num_reduce_tasks;
  info.shuffle_partition = partition;
  info.partitioner = spec.partitioner.get();
  info.key_cmp = spec.key_cmp;
  info.grouping_cmp = spec.EffectiveGroupingCmp();
  info.env = env;
  info.metrics = &m;
  info.spill_codec = spec.map_output_codec;
  info.spill_block_bytes = spec.shuffle_block_bytes;

  std::unique_ptr<Reducer> reducer = spec.reducer_factory();
  OutputSink ctx;  // a discarded output is only counted
  if (collect_output) {
    ctx = OutputSink([result](const Slice& key, const Slice& value) {
      result->output.emplace_back(key.ToString(), value.ToString());
      return Status::OK();
    });
  }
  {
    ScopedPhase phase(Phase::reduce_fn);
    reducer->Setup(info, &ctx);
  }
  ANTIMR_RETURN_NOT_OK(ctx.status());
  GroupRunStats stats;
  {
    ScopedPhase phase(Phase::merge);
    ANTIMR_RETURN_NOT_OK(RunGroups(&merged, info.grouping_cmp, reducer.get(),
                                   Phase::reduce_fn, &ctx, &stats));
  }
  {
    ScopedPhase phase(Phase::reduce_fn);
    reducer->Cleanup(&ctx);
  }
  ANTIMR_RETURN_NOT_OK(ctx.status());
  uint64_t task_peak_buffered = 0;
  for (const BlockReadStats* rstats : reader_stats) {
    m.shuffle_blocks += rstats->blocks;
    task_peak_buffered += rstats->peak_buffered_bytes;
  }
  if (task_peak_buffered > m.shuffle_peak_buffered_bytes) {
    m.shuffle_peak_buffered_bytes = task_peak_buffered;
  }
  m.reduce_groups += stats.groups;
  m.reduce_input_records += stats.records;
  m.output_records += ctx.records();
  m.output_bytes += ctx.bytes();

  // Skew / latency distributions the per-job sums flatten away. One observe
  // per reduce task — cheap enough to stay unconditional.
  static obs::Histogram* const input_records_hist =
      obs::MetricsRegistry::Global().GetHistogram(
          "antimr_reduce_partition_input_records",
          "Input records per reduce partition (skew)");
  static obs::Histogram* const fetch_wait_hist =
      obs::MetricsRegistry::Global().GetHistogram(
          "antimr_fetch_wait_nanos",
          "Per reduce task wall time blocked on segment transfer");
  input_records_hist->Observe(stats.records);
  fetch_wait_hist->Observe(m.shuffle_fetch_wait_nanos);

  FinishTaskClock(clock_start, &m);
  return Status::OK();
}

}  // namespace antimr
