// Cost of the record path itself: the zero-copy path (arena-interned
// RecordRefs in the map output buffer, slice views on the block-segment read
// path, view-based grouping) against a re-creation of an owning-string path
// (std::string copies at emit, at decode, and per grouped value) on the two
// shuffle-heavy workload shapes: WordCount's many tiny records and the
// theta-join's wide cloud reports.
//
// Both paths push the same records through the same partitioner, sort order
// and block-segment encode/decode; they differ only in how records are owned
// in between. Two costs are charged per record:
//   bytes copied — payload bytes materialized into owned storage, counted at
//                  every copy site each design performs (including the
//                  shared encode step both pay)
//   heap allocs  — operator-new calls, counted by alloc_counter.h
// The zero-copy path must cut both by at least 25%. alloc_counter.h replaces
// global operator new for this binary — it must stay included from exactly
// this one translation unit.
#include "alloc_counter.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "datagen/cloud.h"
#include "datagen/random_text.h"
#include "mr/map_output_buffer.h"
#include "mr/reduce_task.h"
#include "mr/shuffle.h"
#include "test_util.h"

namespace antimr {
namespace {

using testing::KVVectorStream;

constexpr int kPartitions = 8;
constexpr double kMinReductionPct = 25.0;

using Records = std::vector<std::pair<std::string, std::string>>;

int PartitionOf(const Slice& key) {
  return static_cast<int>(Hash64(key) % kPartitions);
}

/// WordCount's emitted (pre-shuffle) records: one ("word", "1") per word.
Records WordCountEmits() {
  RandomTextConfig rc;
  rc.num_lines = 6000;
  rc.words_per_line = 40;
  rc.vocabulary_words = 3000;
  Records records;
  for (const KV& line : RandomTextGenerator(rc).Generate()) {
    const std::string& text = line.value;
    size_t pos = 0;
    while (pos < text.size()) {
      size_t space = text.find(' ', pos);
      if (space == std::string::npos) space = text.size();
      if (space > pos) records.emplace_back(text.substr(pos, space - pos), "1");
      pos = space + 1;
    }
  }
  return records;
}

/// The 1-Bucket-Theta shuffle keys each wide report by its target region
/// row; the payload is the full 28-attribute record.
Records ThetaJoinEmits() {
  CloudConfig cc;
  cc.num_records = 40000;
  Records records;
  for (const KV& kv : CloudGenerator(cc).Generate()) {
    CloudReport report;
    CloudGenerator::ParseReport(kv.value, &report);
    records.emplace_back("row" + std::to_string(report.date % 16), kv.value);
  }
  return records;
}

struct PathStats {
  uint64_t records = 0;
  uint64_t bytes_copied = 0;
  uint64_t heap_allocs = 0;
  uint64_t checksum = 0;  ///< consumption proof; must match across paths
};

void WritePartitionRun(Env* env, const std::string& fname, KVStream* stream,
                       uint64_t* bytes_copied) {
  SegmentWriteResult res;
  ASSERT_TRUE(WriteSegment(env, fname, stream, GetCodec(CodecType::kNone),
                           &res)
                  .ok());
  // Encoding into the run's blocks copies the serialized records; both
  // paths pay it.
  *bytes_copied += res.raw_bytes;
}

std::unique_ptr<KVStream> OpenPartitionRun(Env* env,
                                           const std::string& fname) {
  std::unique_ptr<BlockRunReader> reader;
  EXPECT_TRUE(OpenSegmentReader(env, fname, GetCodec(CodecType::kNone), {},
                                &reader)
                  .ok());
  return reader;
}

/// MapOutputBuffer (arena-interned RecordRefs) -> run files -> block reader
/// slice views -> view-based grouping (the group key is materialized once
/// per group, values are consumed as views).
void RunZeroCopyPath(const Records& records, PathStats* stats) {
  std::unique_ptr<Env> env = NewMemEnv();
  const uint64_t alloc_start = test_alloc::AllocationCount();

  MapOutputBuffer buffer(kPartitions, BytewiseCompare);
  for (const auto& [k, v] : records) {
    buffer.Add(PartitionOf(k), k, v);
    ++stats->records;
  }
  // Interning is the path's one materialization: key+value into the arena.
  stats->bytes_copied += buffer.arena_bytes_used();
  buffer.Sort();
  for (int p = 0; p < kPartitions; ++p) {
    auto stream = buffer.PartitionStream(p);
    WritePartitionRun(env.get(), "zc" + std::to_string(p), stream.get(),
                      &stats->bytes_copied);
  }
  buffer.Clear();

  std::string group_key;
  for (int p = 0; p < kPartitions; ++p) {
    std::unique_ptr<KVStream> stream =
        OpenPartitionRun(env.get(), "zc" + std::to_string(p));
    ASSERT_NE(stream, nullptr);
    bool in_group = false;
    while (stream->Valid()) {
      const Slice key = stream->key();
      const Slice value = stream->value();
      if (!in_group || Slice(group_key) != key) {
        group_key.assign(key.data(), key.size());
        stats->bytes_copied += key.size();
        in_group = true;
      }
      stats->checksum += Hash64(key) ^ Hash64(value);
      ASSERT_TRUE(stream->Next().ok());
    }
  }
  stats->heap_allocs = test_alloc::AllocationCount() - alloc_start;
}

/// The owning-string model: emit copies key and value into owning strings;
/// the read path materializes every record into strings and grouping copies
/// each value into a vector<std::string>.
void RunStringPath(const Records& records, PathStats* stats) {
  std::unique_ptr<Env> env = NewMemEnv();
  const uint64_t alloc_start = test_alloc::AllocationCount();

  std::vector<std::vector<KV>> parts(kPartitions);
  for (const auto& [k, v] : records) {
    parts[PartitionOf(k)].emplace_back(k, v);  // owning copies at emit
    stats->bytes_copied += k.size() + v.size();
    ++stats->records;
  }
  for (std::vector<KV>& part : parts) {
    std::stable_sort(part.begin(), part.end(),
                     [](const KV& a, const KV& b) {
                       return BytewiseCompare(a.key, b.key) < 0;
                     });
  }
  for (int p = 0; p < kPartitions; ++p) {
    KVVectorStream stream(&parts[p]);
    WritePartitionRun(env.get(), "sb" + std::to_string(p), &stream,
                      &stats->bytes_copied);
    parts[p].clear();
    parts[p].shrink_to_fit();
  }

  std::string key_buf;
  std::string value_buf;
  for (int p = 0; p < kPartitions; ++p) {
    std::unique_ptr<KVStream> stream =
        OpenPartitionRun(env.get(), "sb" + std::to_string(p));
    ASSERT_NE(stream, nullptr);
    std::string group_key;
    std::vector<std::string> group_values;
    bool in_group = false;
    auto consume_group = [&] {
      for (const std::string& v : group_values) {
        stats->checksum += Hash64(group_key) ^ Hash64(v);
      }
      group_values.clear();
    };
    while (stream->Valid()) {
      key_buf.assign(stream->key().data(), stream->key().size());
      value_buf.assign(stream->value().data(), stream->value().size());
      stats->bytes_copied += key_buf.size() + value_buf.size();
      if (!in_group || group_key != key_buf) {
        consume_group();
        group_key = key_buf;
        stats->bytes_copied += group_key.size();
        in_group = true;
      }
      group_values.push_back(value_buf);  // owned per-value accumulation
      stats->bytes_copied += value_buf.size();
      ASSERT_TRUE(stream->Next().ok());
    }
    consume_group();
  }
  stats->heap_allocs = test_alloc::AllocationCount() - alloc_start;
}

/// Percent by which `now` per record undercuts `base` per record (both paths
/// see the same record count).
double ReductionPct(uint64_t base, uint64_t now) {
  return base == 0 ? 0.0
                   : 100.0 * (static_cast<double>(base) -
                              static_cast<double>(now)) /
                         static_cast<double>(base);
}

void ExpectZeroCopyCutsCosts(const Records& records) {
  PathStats strings, zero_copy;
  ASSERT_NO_FATAL_FAILURE(RunStringPath(records, &strings));
  ASSERT_NO_FATAL_FAILURE(RunZeroCopyPath(records, &zero_copy));
  ASSERT_EQ(strings.records, zero_copy.records);
  EXPECT_EQ(strings.checksum, zero_copy.checksum);
  EXPECT_GE(ReductionPct(strings.bytes_copied, zero_copy.bytes_copied),
            kMinReductionPct)
      << "bytes copied: strings " << strings.bytes_copied << ", zero-copy "
      << zero_copy.bytes_copied;
  EXPECT_GE(ReductionPct(strings.heap_allocs, zero_copy.heap_allocs),
            kMinReductionPct)
      << "heap allocs: strings " << strings.heap_allocs << ", zero-copy "
      << zero_copy.heap_allocs;
}

TEST(RecordPath, ZeroCopyCutsWordCountCopiesAndAllocations) {
  ExpectZeroCopyCutsCosts(WordCountEmits());
}

TEST(RecordPath, ZeroCopyCutsThetaJoinCopiesAndAllocations) {
  ExpectZeroCopyCutsCosts(ThetaJoinEmits());
}

// A reduce task whose output is discarded only counts it: RunReduceTask
// with collect_output = false over one segment of 1 000 and of 10 000
// records allocates no more per record than the merge's per-block cost,
// and reports the output a collecting run reports.
class IdentityReducer : public Reducer {
 public:
  void Reduce(const Slice& key, ValueIterator* values,
              ReduceContext* ctx) override {
    Slice value;
    while (values->Next(&value)) ctx->Emit(key, value);
  }
};

struct ReduceRun {
  uint64_t allocs = 0;
  ReduceTaskResult result;
};

/// Reduce one fetched segment of `n` distinct records, each key and value
/// longer than a short-string buffer, counting the task's allocations.
ReduceRun ReduceOneSegment(int n, bool collect_output) {
  Records records;
  char key[32];
  char value[32];
  for (int i = 0; i < n; ++i) {
    std::snprintf(key, sizeof(key), "reduce-key-%012d", i);
    std::snprintf(value, sizeof(value), "reduce-value-%012d", i);
    records.emplace_back(key, value);
  }
  std::vector<KV> kvs;
  for (const auto& [k, v] : records) kvs.emplace_back(k, v);
  std::unique_ptr<Env> env = NewMemEnv();
  KVVectorStream stream(&kvs);
  EXPECT_TRUE(WriteSegment(env.get(), "seg", &stream, nullptr, nullptr).ok());
  FetchedSegment segment;
  segment.file = "seg";
  EXPECT_TRUE(ReadFileToString(env.get(), "seg", &segment.frames).ok());
  segment.fetched_bytes = segment.frames.size();

  JobSpec spec;
  spec.name = "identity";
  spec.reducer_factory = []() { return std::make_unique<IdentityReducer>(); };
  spec.num_reduce_tasks = 1;
  ReduceTaskInputs inputs;
  inputs.fetched = {&segment};
  ReduceRun run;
  const uint64_t alloc_start = test_alloc::AllocationCount();
  const Status st = RunReduceTask(spec, 0, inputs, env.get(), collect_output,
                                  &run.result);
  run.allocs = test_alloc::AllocationCount() - alloc_start;
  EXPECT_TRUE(st.ok()) << st.ToString();
  return run;
}

TEST(RecordPath, DiscardedReduceOutputAllocatesNothingPerRecord) {
  ReduceOneSegment(1000, false);  // warm the task's process-wide state
  const ReduceRun small = ReduceOneSegment(1000, false);
  const ReduceRun large = ReduceOneSegment(10000, false);
  const JobMetrics& sm = small.result.metrics;
  const JobMetrics& lm = large.result.metrics;
  ASSERT_GT(lm.shuffle_blocks, sm.shuffle_blocks) << "premise: more blocks";
  // The merge may allocate per block it decodes, never per record.
  constexpr uint64_t kAllocsPerBlock = 4;
  EXPECT_LE(large.allocs,
            small.allocs +
                kAllocsPerBlock * (lm.shuffle_blocks - sm.shuffle_blocks))
      << "1 000 records: " << small.allocs << " allocations, 10 000: "
      << large.allocs;
  EXPECT_TRUE(large.result.output.empty());

  const ReduceRun collected = ReduceOneSegment(10000, true);
  EXPECT_EQ(collected.result.output.size(), 10000u);
  EXPECT_EQ(lm.output_records, collected.result.metrics.output_records);
  EXPECT_EQ(lm.output_bytes, collected.result.metrics.output_bytes);
  EXPECT_EQ(lm.output_records, 10000u);
}

}  // namespace
}  // namespace antimr
