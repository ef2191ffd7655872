// Tests for the streaming shuffle pipeline: block-framed segments, CRC
// verification on read, bounded reader memory, and fetches that overlap the
// map wave.
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "mr/job_runner.h"
#include "mr/reduce_task.h"
#include "mr/shuffle.h"
#include "test_util.h"

namespace antimr {
namespace {

using testing::Canonicalize;
using testing::KVVectorStream;

std::vector<KV> MakeSortedRecords(int n, size_t value_bytes = 32) {
  std::vector<KV> records;
  records.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "key%08d", i);
    records.push_back(
        {key, std::string(value_bytes, static_cast<char>('a' + i % 26)) +
                  std::to_string(i)});
  }
  return records;
}

Status WriteTestSegment(Env* env, const std::string& fname,
                        const std::vector<KV>& records, const Codec* codec,
                        size_t block_bytes, SegmentWriteResult* result) {
  KVVectorStream in(&records);
  return WriteSegment(env, fname, &in, codec, result, block_bytes);
}

class BlockSegmentTest : public ::testing::TestWithParam<CodecType> {
 protected:
  void SetUp() override { env_ = NewMemEnv(); }
  std::unique_ptr<Env> env_;
};

TEST_P(BlockSegmentTest, MultiBlockRoundTrip) {
  const Codec* codec = GetCodec(GetParam());
  const std::vector<KV> records = MakeSortedRecords(2000);
  SegmentWriteResult wr;
  ASSERT_TRUE(
      WriteTestSegment(env_.get(), "seg", records, codec, 1024, &wr).ok());
  EXPECT_GT(wr.blocks, 10u) << "1 KiB blocks must cut this segment often";

  std::unique_ptr<BlockRunReader> reader;
  ASSERT_TRUE(OpenSegmentReader(env_.get(), "seg", codec, {}, &reader).ok());
  size_t i = 0;
  while (reader->Valid()) {
    ASSERT_LT(i, records.size());
    EXPECT_EQ(reader->key().ToString(), records[i].key);
    EXPECT_EQ(reader->value().ToString(), records[i].value);
    ASSERT_TRUE(reader->Next().ok());
    ++i;
  }
  EXPECT_EQ(i, records.size());
  EXPECT_EQ(reader->stats().blocks, wr.blocks);
}

INSTANTIATE_TEST_SUITE_P(
    Codecs, BlockSegmentTest,
    ::testing::Values(CodecType::kNone, CodecType::kSnappyLike,
                      CodecType::kGzip),
    [](const ::testing::TestParamInfo<CodecType>& info) {
      std::string name = CodecTypeName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(BlockSegment, ByteFlipSurfacesCorruptionWithContext) {
  auto env = NewMemEnv();
  const Codec* codec = GetCodec(CodecType::kNone);
  const std::vector<KV> records = MakeSortedRecords(2000);
  SegmentWriteResult wr;
  ASSERT_TRUE(
      WriteTestSegment(env.get(), "seg", records, codec, 1024, &wr).ok());

  std::string data;
  ASSERT_TRUE(ReadFileToString(env.get(), "seg", &data).ok());
  data[data.size() - 2] ^= 0x40;  // flip a bit inside the last block payload
  std::unique_ptr<WritableFile> f;
  ASSERT_TRUE(env->NewWritableFile("seg", &f).ok());
  ASSERT_TRUE(f->Append(data).ok());
  ASSERT_TRUE(f->Close().ok());

  std::unique_ptr<BlockRunReader> reader;
  Status open = OpenSegmentReader(env.get(), "seg", codec, {}, &reader);
  Status st = open;
  if (open.ok()) {
    // Corruption sits in the last block, so it surfaces mid-stream.
    while (reader->Valid()) {
      st = reader->Next();
      if (!st.ok()) break;
    }
  }
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_NE(st.ToString().find("seg"), std::string::npos) << st.ToString();
  EXPECT_NE(st.ToString().find("block"), std::string::npos) << st.ToString();
  EXPECT_NE(st.ToString().find("crc"), std::string::npos) << st.ToString();
}

TEST(BlockSegment, ReduceTaskFailsCleanlyOnCorruptSegment) {
  auto env = NewMemEnv();
  const Codec* codec = GetCodec(CodecType::kNone);
  const std::vector<KV> records = MakeSortedRecords(2000);
  SegmentWriteResult wr;
  ASSERT_TRUE(
      WriteTestSegment(env.get(), "seg", records, codec, 1024, &wr).ok());

  // The corrupt bytes reach the reduce the way every shuffled segment does:
  // as a fetched copy of the map side's stored frames.
  FetchedSegment fetched;
  fetched.file = "seg";
  ASSERT_TRUE(ReadFileToString(env.get(), "seg", &fetched.frames).ok());
  fetched.frames[fetched.frames.size() - 2] ^= 0x40;
  fetched.fetched_bytes = fetched.frames.size();

  JobSpec spec;
  spec.reducer_factory = []() {
    class Echo : public Reducer {
      void Reduce(const Slice& key, ValueIterator* values,
                  ReduceContext* ctx) override {
        Slice v;
        while (values->Next(&v)) ctx->Emit(key, v);
      }
    };
    return std::make_unique<Echo>();
  };
  spec.num_reduce_tasks = 1;
  ReduceTaskInputs inputs;
  inputs.fetched = {&fetched};
  ReduceTaskResult result;
  Status st = RunReduceTask(spec, 0, inputs, env.get(),
                            /*collect_output=*/true, &result);
  ASSERT_FALSE(st.ok()) << "corrupt segment must fail the reduce task";
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_NE(st.ToString().find("seg"), std::string::npos) << st.ToString();
}

TEST(BlockSegment, ReaderMemoryBoundedByReadahead) {
  auto env = NewMemEnv();
  const Codec* codec = GetCodec(CodecType::kNone);
  // ~1.2 MiB raw cut into 4 KiB blocks: a monolithic reader would buffer the
  // whole segment; the streaming reader must stay near readahead x block.
  const std::vector<KV> records = MakeSortedRecords(20000, 48);
  const size_t kBlock = 4096;
  SegmentWriteResult wr;
  ASSERT_TRUE(
      WriteTestSegment(env.get(), "seg", records, codec, kBlock, &wr).ok());
  ASSERT_GT(wr.stored_bytes, 64u * kBlock) << "segment must dwarf the window";

  SegmentReadOptions opts;
  opts.readahead_blocks = 2;
  std::unique_ptr<BlockRunReader> reader;
  ASSERT_TRUE(OpenSegmentReader(env.get(), "seg", codec, opts, &reader).ok());
  size_t n = 0;
  while (reader->Valid()) {
    ASSERT_TRUE(reader->Next().ok());
    ++n;
  }
  EXPECT_EQ(n, records.size());
  // Window: readahead compressed frames + one decompressed block, plus
  // per-record slack for the final records of a block.
  const uint64_t bound = (opts.readahead_blocks + 2) * 2 * kBlock;
  EXPECT_LE(reader->stats().peak_buffered_bytes, bound);
  EXPECT_LT(reader->stats().peak_buffered_bytes, wr.stored_bytes / 4)
      << "peak buffered bytes must not scale with segment size";
}

/// The segment file `records` make, as the fetcher would hand it over.
FetchedSegment FetchedCopy(const std::vector<KV>& records, const Codec* codec,
                           size_t block_bytes) {
  auto env = NewMemEnv();
  SegmentWriteResult wr;
  EXPECT_TRUE(
      WriteTestSegment(env.get(), "seg", records, codec, block_bytes, &wr)
          .ok());
  FetchedSegment fetched;
  fetched.file = "seg";
  EXPECT_TRUE(ReadFileToString(env.get(), "seg", &fetched.frames).ok());
  fetched.fetched_bytes = fetched.frames.size();
  return fetched;
}

TEST_P(BlockSegmentTest, FetchedSegmentIsReadInPlace) {
  const Codec* codec = GetCodec(GetParam());
  const std::vector<KV> records = MakeSortedRecords(2000);
  const FetchedSegment fetched = FetchedCopy(records, codec, 1024);
  std::unique_ptr<BlockRunReader> reader;
  ASSERT_TRUE(OpenFetchedSegment(fetched, codec, 2, &reader).ok());
  const char* begin = fetched.frames.data();
  const char* end = begin + fetched.frames.size();
  size_t i = 0;
  while (reader->Valid()) {
    ASSERT_LT(i, records.size());
    EXPECT_EQ(reader->key().ToString(), records[i].key);
    EXPECT_EQ(reader->value().ToString(), records[i].value);
    if (GetParam() == CodecType::kNone) {
      // Uncompressed blocks are never copied: records view the fetched
      // frames themselves.
      EXPECT_TRUE(reader->key().data() >= begin && reader->key().data() < end)
          << "record " << i;
    }
    ASSERT_TRUE(reader->Next().ok());
    ++i;
  }
  EXPECT_EQ(i, records.size());
  EXPECT_EQ(reader->stats().bytes_read, fetched.frames.size());
  // Queued frames and the current block count whether owned or viewed.
  EXPECT_GT(reader->stats().peak_buffered_bytes, 0u);
}

// ---------------------------------------------------------------------------
// Pipelined job execution
// ---------------------------------------------------------------------------

class EchoMapper : public Mapper {
 public:
  void Map(const Slice& key, const Slice& value, MapContext* ctx) override {
    ctx->Emit(key, value);
  }
};

class ConcatReducer : public Reducer {
 public:
  void Reduce(const Slice& key, ValueIterator* values,
              ReduceContext* ctx) override {
    std::string joined;
    Slice v;
    while (values->Next(&v)) {
      if (!joined.empty()) joined.push_back('|');
      joined.append(v.data(), v.size());
    }
    ctx->Emit(key, joined);
  }
};

JobSpec EchoConcatJob(int reduce_tasks) {
  JobSpec spec;
  spec.name = "pipeline_echo";
  spec.mapper_factory = []() { return std::make_unique<EchoMapper>(); };
  spec.reducer_factory = []() { return std::make_unique<ConcatReducer>(); };
  spec.num_reduce_tasks = reduce_tasks;
  return spec;
}

TEST(PipelinedShuffle, MatchesExpectedOutput) {
  std::vector<KV> input;
  for (int i = 0; i < 3000; ++i) {
    input.push_back({"k" + std::to_string(i % 131), "v" + std::to_string(i)});
  }
  JobSpec spec = EchoConcatJob(5);
  spec.shuffle_block_bytes = 2048;  // force multi-block segments

  // Each key's values arrive in input order: splits are contiguous chunks,
  // map sorts are stable and the merge breaks key ties by map index.
  std::map<std::string, std::string> joined;
  for (const KV& kv : input) {
    std::string& values = joined[kv.key];
    if (!values.empty()) values.push_back('|');
    values += kv.value;
  }
  std::vector<KV> expected;
  for (const auto& [key, values] : joined) expected.push_back({key, values});

  JobResult result;
  ASSERT_TRUE(RunJob(spec, MakeSplits(input, 7), RunOptions(), &result).ok());

  EXPECT_EQ(Canonicalize(result.FlatOutput()), expected);
  EXPECT_EQ(result.metrics.reduce_input_records, input.size());
  // Every segment crossed the shuffle and was decoded block by block.
  EXPECT_GT(result.metrics.shuffle_bytes, 0u);
  EXPECT_GT(result.metrics.shuffle_blocks, 0u);
  EXPECT_GT(result.metrics.shuffle_peak_buffered_bytes, 0u);
}

TEST(PipelinedShuffle, FetchesOverlapTheMapWave) {
  // One worker runs the two map tasks back to back; the second mapper is
  // slow, so the fetches of map 0's segments must begin while it is still
  // running and get counted as overlapped.
  class SlowSecondMapper : public Mapper {
   public:
    void Map(const Slice& key, const Slice& value, MapContext* ctx) override {
      if (key.ToString().rfind("slow", 0) == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(150));
      }
      ctx->Emit(key, value);
    }
  };
  JobSpec spec = EchoConcatJob(2);
  spec.mapper_factory = []() { return std::make_unique<SlowSecondMapper>(); };

  std::vector<KV> fast;
  for (int i = 0; i < 50; ++i) {
    fast.push_back({"fast" + std::to_string(i), "v"});
  }
  std::vector<InputSplit> splits;
  splits.push_back(MakeSplit(fast));
  splits.push_back(MakeSplit({{"slow0", "v"}}));

  RunOptions options;
  options.num_workers = 1;
  JobResult result;
  ASSERT_TRUE(RunJob(spec, splits, options, &result).ok());
  EXPECT_GT(result.metrics.shuffle_overlapped_fetches, 0u)
      << "map 0's fetches must start while map 1 is still sleeping";
  EXPECT_EQ(result.metrics.reduce_input_records, 51u);
}

TEST(PipelinedShuffle, PeakBufferedBytesStaysBoundedUnderLargeShuffle) {
  // Large shuffled values with tiny blocks: job-level peak buffered bytes
  // (MAX over reduce tasks of fetched frames queue + decompressed block)
  // must track the block/readahead window, not segment size. Fetched frames
  // are pinned whole per segment, so the bound here is per-task input
  // volume; the decode window on top of it is what we assert stays small.
  std::vector<KV> input;
  for (int i = 0; i < 4000; ++i) {
    input.push_back({"k" + std::to_string(i % 97),
                     std::string(64, 'x') + std::to_string(i)});
  }
  JobSpec spec = EchoConcatJob(4);
  spec.shuffle_block_bytes = 2048;
  JobResult result;
  ASSERT_TRUE(RunJob(spec, MakeSplits(input, 4), RunOptions(), &result).ok());
  EXPECT_GT(result.metrics.shuffle_peak_buffered_bytes, 0u);
  // A reduce task buffers its fetched compressed frames plus a bounded
  // decode window; it must never approach the whole job's shuffle volume.
  EXPECT_LT(result.metrics.shuffle_peak_buffered_bytes,
            result.metrics.shuffle_bytes);
}

TEST(PipelinedShuffle, ShufflePhaseMetricsArePopulated) {
  std::vector<KV> input;
  for (int i = 0; i < 2000; ++i) {
    input.push_back({"k" + std::to_string(i % 50), "value" + std::to_string(i)});
  }
  JobSpec spec = EchoConcatJob(3);
  spec.shuffle_block_bytes = 1024;
  spec.map_output_codec = CodecType::kSnappyLike;
  JobResult result;
  ASSERT_TRUE(RunJob(spec, MakeSplits(input, 4), RunOptions(), &result).ok());
  EXPECT_GT(result.metrics.shuffle_blocks, 0u);
  EXPECT_GT(result.metrics.cpu.decompress, 0u);
  EXPECT_GT(result.metrics.cpu.merge, 0u);
  EXPECT_GT(result.metrics.shuffle_peak_buffered_bytes, 0u);
}

// The reduce's fetch wait is the fetches' transfer time. Reading the fetched
// frames afterwards is an in-memory scan and must not be added to it.
TEST(BlockSegment, FetchWaitIsTheFetchTimeOnly) {
  const Codec* codec = GetCodec(CodecType::kNone);
  FetchedSegment first = FetchedCopy(MakeSortedRecords(2000), codec, 1024);
  first.fetch_nanos = 1000;
  FetchedSegment second = FetchedCopy(MakeSortedRecords(500), codec, 1024);
  second.fetch_nanos = 234;

  JobSpec spec = EchoConcatJob(1);
  auto env = NewMemEnv();
  ReduceTaskInputs inputs;
  inputs.fetched = {&first, &second};
  ReduceTaskResult result;
  ASSERT_TRUE(RunReduceTask(spec, 0, inputs, env.get(),
                            /*collect_output=*/true, &result)
                  .ok());
  EXPECT_EQ(result.output.size(), 2000u);
  EXPECT_EQ(result.metrics.shuffle_fetch_wait_nanos, 1234u);
  EXPECT_EQ(result.metrics.shuffle_bytes,
            first.fetched_bytes + second.fetched_bytes);
  EXPECT_GT(result.metrics.shuffle_peak_buffered_bytes, 0u);
}

}  // namespace
}  // namespace antimr
