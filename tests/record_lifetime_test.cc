// Lifetime tests for the zero-copy record path. Each test exercises the
// documented validity window of a view-returning API — "valid until the
// next Next()/Clear()" — with the contract-compliant access pattern, so an
// ASan build (ctest -L tier2-asan on a -DANTIMR_SANITIZE=address,undefined
// build) catches any implementation that frees or recycles the backing
// bytes early. The tests also pin down what the contract does NOT promise:
// consumers that need a record beyond the window must copy it first.
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "io/run_file.h"
#include "mr/map_output_buffer.h"

namespace antimr {
namespace {

std::vector<std::pair<std::string, std::string>> MakeRecords(int n,
                                                             size_t val_len) {
  std::vector<std::pair<std::string, std::string>> kvs;
  kvs.reserve(n);
  for (int i = 0; i < n; ++i) {
    char pad = static_cast<char>('a' + i % 26);
    kvs.emplace_back("key" + std::to_string(1000 + i),
                     std::string(val_len, pad) + std::to_string(i));
  }
  return kvs;
}

class RecordLifetimeTest : public ::testing::Test {
 protected:
  void SetUp() override { env_ = NewMemEnv(); }

  void WriteBlockRun(const std::string& fname, size_t block_bytes,
                     const std::vector<std::pair<std::string, std::string>>& kvs,
                     uint64_t* blocks_out = nullptr) {
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(env_->NewWritableFile(fname, &file).ok());
    BlockRunWriter::Options wopts;
    wopts.block_bytes = block_bytes;
    BlockRunWriter writer(std::move(file), GetCodec(CodecType::kNone), wopts);
    for (const auto& [k, v] : kvs) ASSERT_TRUE(writer.Add(k, v).ok());
    ASSERT_TRUE(writer.Finish().ok());
    if (blocks_out != nullptr) *blocks_out = writer.block_count();
  }

  /// Open `fname` through a file source (the path Shared's spills and map
  /// spill merges read), positioned at its first record.
  std::unique_ptr<BlockRunReader> OpenBlockRun(const std::string& fname) {
    std::unique_ptr<SequentialFile> file;
    EXPECT_TRUE(env_->NewSequentialFile(fname, &file).ok());
    BlockRunReader::Options ropts;
    ropts.name = fname;
    auto reader = std::make_unique<BlockRunReader>(
        std::move(file), GetCodec(CodecType::kNone), ropts);
    EXPECT_TRUE(reader->Open().ok());
    return reader;
  }

  std::unique_ptr<Env> env_;
};

// Both views of one record come from the same decoded block: reading the
// value must never invalidate the key of the same record, even while the
// file source refills its buffer and the readahead window underneath. Touch
// both views repeatedly before advancing.
TEST_F(RecordLifetimeTest, BlockRunFileRecordViewsCoherentUntilNext) {
  // ~60 KiB of records: several frames through the reader's file buffer.
  const auto kvs = MakeRecords(200, 300);
  WriteBlockRun("r", /*block_bytes=*/4096, kvs);
  std::unique_ptr<KVStream> stream = OpenBlockRun("r");
  size_t i = 0;
  while (stream->Valid()) {
    const Slice key = stream->key();
    const Slice value = stream->value();
    // Use both views (twice) within the window; ASan flags any early reuse.
    ASSERT_EQ(key.ToString(), kvs[i].first);
    ASSERT_EQ(value.ToString(), kvs[i].second);
    EXPECT_EQ(key.ToString(), stream->key().ToString());
    EXPECT_EQ(value.ToString(), stream->value().ToString());
    ASSERT_TRUE(stream->Next().ok());
    ++i;
  }
  EXPECT_EQ(i, kvs.size());
}

// A record larger than block_bytes (and than the file source's 64 KiB
// buffer) becomes a frame of its own, read across several buffer refills;
// the views must still be coherent.
TEST_F(RecordLifetimeTest, BlockRunFileViewsSurviveOversizedRecords) {
  std::vector<std::pair<std::string, std::string>> kvs = {
      {"small", "v"},
      {std::string(70 * 1024, 'K'), std::string(200 * 1024, 'V')},
      {"tail", std::string(90 * 1024, 't')},
  };
  uint64_t blocks = 0;
  WriteBlockRun("r", kDefaultBlockBytes, kvs, &blocks);
  ASSERT_EQ(blocks, 2u) << "each oversized record closes its block";
  std::unique_ptr<KVStream> stream = OpenBlockRun("r");
  for (const auto& [k, v] : kvs) {
    ASSERT_TRUE(stream->Valid());
    EXPECT_EQ(stream->key().ToString(), k);
    EXPECT_EQ(stream->value().ToString(), v);
    ASSERT_TRUE(stream->Next().ok());
  }
  EXPECT_FALSE(stream->Valid());
}

// BlockRunReader views stay valid exactly until the next Next() — including
// for the final record of a block, where the following Next() decodes a new
// block into the same backing buffer. Copy-before-advance must round-trip
// every record across many block boundaries.
TEST_F(RecordLifetimeTest, BlockRunReaderViewsValidUntilBlockAdvance) {
  const auto kvs = MakeRecords(300, 40);
  uint64_t blocks = 0;
  WriteBlockRun("seg", /*block_bytes=*/256, kvs, &blocks);
  ASSERT_GT(blocks, 10u) << "test needs many block advances";

  std::unique_ptr<SequentialFile> file;
  ASSERT_TRUE(env_->NewSequentialFile("seg", &file).ok());
  BlockRunReader::Options ropts;
  ropts.name = "seg";
  BlockRunReader reader(std::move(file), GetCodec(CodecType::kNone), ropts);
  ASSERT_TRUE(reader.Open().ok());
  size_t i = 0;
  while (reader.Valid()) {
    const Slice key = reader.key();
    const Slice value = reader.value();
    ASSERT_EQ(key.ToString(), kvs[i].first) << "record " << i;
    ASSERT_EQ(value.ToString(), kvs[i].second) << "record " << i;
    // Re-read through the accessors after touching the views: both must
    // still point at live bytes of the current block.
    EXPECT_EQ(reader.key().data(), key.data());
    EXPECT_EQ(reader.value().data(), value.data());
    ASSERT_TRUE(reader.Next().ok());
    ++i;
  }
  EXPECT_EQ(i, kvs.size());
  EXPECT_EQ(reader.stats().records, kvs.size());
}

// The map-attempt scrub point: a retried attempt calls Clear() and must
// start from an empty (but warm) arena — no record, view, or byte from the
// failed attempt may leak into the retry's output.
TEST_F(RecordLifetimeTest, MapOutputBufferClearScrubsFailedAttempt) {
  MapOutputBuffer buffer(2, BytewiseCompare);
  // Failed attempt: buffer some records, start sorting, then die.
  for (int i = 0; i < 100; ++i) {
    buffer.Add(i % 2, "stale" + std::to_string(i), std::string(50, 'x'));
  }
  buffer.Sort();
  ASSERT_GT(buffer.arena_bytes_used(), 0u);

  buffer.Clear();
  EXPECT_EQ(buffer.arena_bytes_used(), 0u);
  EXPECT_EQ(buffer.record_count(), 0u);
  EXPECT_EQ(buffer.memory_usage(), 0u);

  // Retry: different records, reusing the same (retained) arena chunks.
  buffer.Add(0, "fresh-b", "2");
  buffer.Add(0, "fresh-a", "1");
  buffer.Sort();
  EXPECT_EQ(buffer.PartitionRecords(0), 2u);
  EXPECT_EQ(buffer.PartitionRecords(1), 0u);
  auto stream = buffer.PartitionStream(0);
  ASSERT_TRUE(stream->Valid());
  EXPECT_EQ(stream->key().ToString(), "fresh-a");
  EXPECT_EQ(stream->value().ToString(), "1");
  ASSERT_TRUE(stream->Next().ok());
  EXPECT_EQ(stream->key().ToString(), "fresh-b");
  ASSERT_TRUE(stream->Next().ok());
  EXPECT_FALSE(stream->Valid());
}

// Views handed out by PartitionStream stay pinned across arbitrary arena
// growth: interning thousands more records must never relocate bytes a
// previously collected view points at (chunked storage, not realloc).
TEST_F(RecordLifetimeTest, MapOutputBufferViewsStableAcrossGrowth) {
  MapOutputBuffer buffer(1, BytewiseCompare);
  const auto kvs = MakeRecords(2000, 60);  // spans many 64 KiB chunks
  for (const auto& [k, v] : kvs) buffer.Add(0, k, v);
  buffer.Sort();
  auto stream = buffer.PartitionStream(0);
  std::vector<Slice> keys;
  std::vector<Slice> values;
  while (stream->Valid()) {
    keys.push_back(stream->key());
    values.push_back(stream->value());
    ASSERT_TRUE(stream->Next().ok());
  }
  ASSERT_EQ(keys.size(), kvs.size());
  // MakeRecords keys are generated in sorted order already.
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(keys[i].ToString(), kvs[i].first);
    EXPECT_EQ(values[i].ToString(), kvs[i].second);
  }
}

}  // namespace
}  // namespace antimr
