#include "mr/map_task.h"

#include <vector>

#include "common/stopwatch.h"
#include "mr/map_output_buffer.h"
#include "mr/reduce_task.h"
#include "obs/trace.h"

namespace antimr {

namespace {

/// Runs from which a task with a Combiner merges them map-side, combining
/// on the merge (Hadoop's min.num.spills.for.combine). Below it, and always
/// without a Combiner, runs ship as they are: the reducer merges them anyway.
constexpr int kMinSpillsForMerge = 3;

// MapContext that partitions each emitted record into the output buffer and
// triggers spills when the buffer exceeds its budget.
class MapTaskContext : public MapContext {
 public:
  MapTaskContext(const JobSpec& spec, const std::string& job_id, int task_id,
                 const TaskInfo& info, Env* env, JobMetrics* metrics)
      : spec_(spec),
        job_id_(job_id),
        task_id_(task_id),
        info_(info),
        env_(env),
        metrics_(metrics),
        buffer_(spec.num_reduce_tasks, spec.key_cmp),
        run_files_(static_cast<size_t>(spec.num_reduce_tasks)) {}

  void Emit(const Slice& key, const Slice& value) override {
    int partition;
    {
      ScopedPhase phase(Phase::partition_fn);
      partition =
          spec_.partitioner->Partition(key, spec_.num_reduce_tasks);
    }
    buffer_.Add(partition, key, value);
    metrics_->emitted_records += 1;
    metrics_->emitted_bytes += key.size() + value.size();
  }

  /// Spill when over budget. Called between Map invocations (not from Emit)
  /// so sort/combine/compress cost is not attributed to map_fn.
  Status MaybeSpill() {
    if (buffer_.memory_usage() >= spec_.map_buffer_bytes) {
      return WriteRun(/*spill=*/true);
    }
    return Status::OK();
  }

  /// Sort + (combine) + write the current buffer as one run per partition.
  /// `spill` says whether the run counts as a spill: a task's only run,
  /// written at Finish, does not (it is Hadoop's single final spill).
  Status WriteRun(bool spill) {
    if (buffer_.empty()) return Status::OK();
    {
      ScopedPhase phase(Phase::sort);
      buffer_.Sort();
    }
    const Codec* codec = GetCodec(spec_.map_output_codec);
    for (int p = 0; p < spec_.num_reduce_tasks; ++p) {
      if (buffer_.PartitionRecords(p) == 0) continue;
      std::unique_ptr<KVStream> stream = buffer_.PartitionStream(p);
      const std::string fname = RunFileName(job_id_, task_id_, p, runs_);
      created_files_.push_back(fname);
      ANTIMR_RETURN_NOT_OK(
          WritePossiblyCombined(stream.get(), p, fname, codec));
      run_files_[static_cast<size_t>(p)].push_back(fname);
    }
    ++runs_;
    if (spill) {
      metrics_->map_spills += 1;
      ANTIMR_TRACE_INSTANT("task", "map_spill",
                           obs::TraceArgs()
                               .Add("task", task_id_)
                               .Add("spill", runs_ - 1));
    }
    buffer_.Clear();
    return Status::OK();
  }

  /// Finalize the task's output: write the buffer's tail as the last run,
  /// then either hand every run to the reducers or, with a Combiner and
  /// from kMinSpillsForMerge runs on, merge and combine them into one
  /// segment per partition. Fills result->segment_files.
  Status Finish(MapTaskResult* result) {
    ANTIMR_RETURN_NOT_OK(WriteRun(/*spill=*/runs_ > 0));
    if (spec_.combiner_factory == nullptr || runs_ < kMinSpillsForMerge) {
      result->segment_files = std::move(run_files_);
      return Status::OK();
    }
    result->segment_files.assign(
        static_cast<size_t>(spec_.num_reduce_tasks), {});
    const Codec* codec = GetCodec(spec_.map_output_codec);
    for (int p = 0; p < spec_.num_reduce_tasks; ++p) {
      const auto& runs = run_files_[static_cast<size_t>(p)];
      if (runs.empty()) continue;
      // Stream each run through a block reader: the merge holds O(block)
      // memory per run instead of inflating every run up front.
      std::vector<std::unique_ptr<KVStream>> inputs;
      inputs.reserve(runs.size());
      for (const std::string& fname : runs) {
        std::unique_ptr<BlockRunReader> reader;
        ANTIMR_RETURN_NOT_OK(
            OpenSegmentReader(env_, fname, codec, {}, &reader));
        if (reader->Valid()) inputs.push_back(std::move(reader));
      }
      const std::string fname = SegmentFileName(job_id_, task_id_, p);
      created_files_.push_back(fname);
      {
        ScopedPhase phase(Phase::merge);
        MergingStream merged(std::move(inputs), spec_.key_cmp);
        ANTIMR_RETURN_NOT_OK(
            WritePossiblyCombined(&merged, p, fname, codec));
      }
      result->segment_files[static_cast<size_t>(p)] = {fname};
      for (const std::string& rf : runs) {
        ANTIMR_RETURN_NOT_OK(env_->DeleteFile(rf));
      }
    }
    return Status::OK();
  }

  /// Best-effort removal of everything this task may have written: spill
  /// files and (possibly half-written) final segments. Run on the failure
  /// path so a retried attempt starts from clean storage and a failed task
  /// leaves nothing behind. Delete errors are swallowed — the task is
  /// already failing and its Status should name the original error.
  void RemovePartialOutput() {
    for (const std::string& fname : created_files_) {
      env_->DeleteFile(fname);
    }
    created_files_.clear();
    // Scrub the attempt's arena-backed buffer too: a retried attempt must
    // not see (or alias) records interned by the failed one.
    buffer_.Clear();
  }

 private:
  /// Write `stream` as segment `fname`, through the job's Combiner when it
  /// has one: the Combiner's output streams into the segment's writer as
  /// it is emitted.
  Status WritePossiblyCombined(KVStream* stream, int partition,
                               const std::string& fname, const Codec* codec) {
    if (spec_.combiner_factory == nullptr) {
      return WriteSegment(env_, fname, stream, codec, nullptr,
                          spec_.shuffle_block_bytes);
    }
    TaskInfo info = info_;
    info.shuffle_partition = partition;
    GroupRunStats stats;
    SegmentWriteResult written;
    ANTIMR_RETURN_NOT_OK(WriteSegmentWith(
        env_, fname, codec, spec_.shuffle_block_bytes,
        [&](BlockRunWriter* writer) {
          OutputSink sink([writer](const Slice& key, const Slice& value) {
            return writer->Add(key, value);
          });
          return ApplyCombiner(spec_, info, stream, &sink, &stats);
        },
        &written));
    metrics_->combine_input_records += stats.records;
    metrics_->combine_output_records += written.records;
    return Status::OK();
  }

  const JobSpec& spec_;
  const std::string& job_id_;
  int task_id_;
  const TaskInfo& info_;
  Env* env_;
  JobMetrics* metrics_;
  MapOutputBuffer buffer_;
  /// Per partition, the run files written so far, in run order.
  std::vector<std::vector<std::string>> run_files_;
  /// Every file name this task has started writing, for failure cleanup.
  std::vector<std::string> created_files_;
  int runs_ = 0;
};

}  // namespace

Status RunMapTask(const JobSpec& spec, const std::string& job_id, int task_id,
                  const InputSplit& split, Env* env, MapTaskResult* result,
                  TaskControl* control, uint64_t total_records) {
  JobMetrics& m = result->metrics;
  ANTIMR_TRACE_SPAN_DYN("task",
                        "map:" + spec.name + " #" + std::to_string(task_id));
  const uint64_t clock_start = StartPhaseClock();

  TaskInfo info;
  info.task_id = task_id;
  info.num_reduce_tasks = spec.num_reduce_tasks;
  info.shuffle_partition = -1;
  info.partitioner = spec.partitioner.get();
  info.key_cmp = spec.key_cmp;
  info.grouping_cmp = spec.EffectiveGroupingCmp();
  info.env = env;
  info.metrics = &m;
  info.spill_codec = spec.map_output_codec;
  info.spill_block_bytes = spec.shuffle_block_bytes;

  MapTaskContext ctx(spec, job_id, task_id, info, env, &m);
  std::unique_ptr<Mapper> mapper = spec.mapper_factory();
  {
    ScopedPhase phase(Phase::map_fn);
    mapper->Setup(info, &ctx);
  }

  const Status status = [&]() -> Status {
    std::unique_ptr<RecordSource> source = split.open();
    RecordRef record;
    while (source->NextRef(&record)) {
      if (control != nullptr) {
        if (control->cancelled()) {
          // Transient, so retry machinery treats the loser of a speculative
          // race like any other recoverable attempt failure.
          return Status::IOError("map task " + std::to_string(task_id) +
                                 " cancelled");
        }
        control->SetProgress(m.input_records, total_records);
      }
      m.input_records += 1;
      m.input_bytes += record.bytes();
      {
        // An Anti-Combining mapper switches on to partition_fn and encode
        // inside; the scope's exit read charges whichever phase it left.
        ScopedPhase phase(Phase::map_fn);
        mapper->Map(record.key, record.value, &ctx);
      }
      ANTIMR_RETURN_NOT_OK(ctx.MaybeSpill());
    }
    {
      ScopedPhase phase(Phase::map_fn);
      mapper->Cleanup(&ctx);
    }
    return ctx.Finish(result);
  }();
  if (!status.ok()) {
    // Leave no partials behind: a retry (or the plan epilogue) must find
    // clean storage and an empty result, never a half-written segment.
    ctx.RemovePartialOutput();
    result->segment_files.clear();
    return status;
  }

  if (!spec.mapper_reports_logical_output) {
    m.map_output_records = m.emitted_records;
    m.map_output_bytes = m.emitted_bytes;
  }
  FinishTaskClock(clock_start, &m);
  return Status::OK();
}

}  // namespace antimr
