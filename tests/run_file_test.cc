#include "io/run_file.h"

#include <gtest/gtest.h>

namespace antimr {
namespace {

class RunFileTest : public ::testing::Test {
 protected:
  void SetUp() override { env_ = NewMemEnv(); }

  void WriteRun(const std::string& fname,
                const std::vector<std::pair<std::string, std::string>>& kvs) {
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(env_->NewWritableFile(fname, &file).ok());
    BlockRunWriter writer(std::move(file), GetCodec(CodecType::kNone), {});
    for (const auto& [k, v] : kvs) ASSERT_TRUE(writer.Add(k, v).ok());
    ASSERT_TRUE(writer.Finish().ok());
  }

  /// Open `fname` as a block run reader positioned at its first record.
  std::unique_ptr<BlockRunReader> OpenBlockRun(const std::string& fname) {
    std::unique_ptr<SequentialFile> file;
    EXPECT_TRUE(env_->NewSequentialFile(fname, &file).ok());
    auto reader = std::make_unique<BlockRunReader>(
        std::move(file), GetCodec(CodecType::kNone), BlockRunReader::Options{});
    EXPECT_TRUE(reader->Open().ok());
    return reader;
  }

  std::unique_ptr<Env> env_;
};

TEST_F(RunFileTest, RoundTrip) {
  WriteRun("r", {{"a", "1"}, {"b", "2"}, {"c", "3"}});
  std::unique_ptr<KVStream> stream = OpenBlockRun("r");
  std::vector<std::pair<std::string, std::string>> got;
  while (stream->Valid()) {
    got.emplace_back(stream->key().ToString(), stream->value().ToString());
    ASSERT_TRUE(stream->Next().ok());
  }
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], (std::pair<std::string, std::string>{"a", "1"}));
  EXPECT_EQ(got[2], (std::pair<std::string, std::string>{"c", "3"}));
}

TEST_F(RunFileTest, EmptyRun) {
  WriteRun("r", {});
  std::unique_ptr<KVStream> stream = OpenBlockRun("r");
  EXPECT_FALSE(stream->Valid());
}

TEST_F(RunFileTest, EmptyKeysAndValues) {
  WriteRun("r", {{"", ""}, {"k", ""}, {"", "v"}});
  std::unique_ptr<KVStream> stream = OpenBlockRun("r");
  EXPECT_TRUE(stream->Valid());
  EXPECT_TRUE(stream->key().empty());
  EXPECT_TRUE(stream->value().empty());
  ASSERT_TRUE(stream->Next().ok());
  EXPECT_EQ(stream->key().ToString(), "k");
  ASSERT_TRUE(stream->Next().ok());
  EXPECT_EQ(stream->value().ToString(), "v");
  ASSERT_TRUE(stream->Next().ok());
  EXPECT_FALSE(stream->Valid());
}

TEST_F(RunFileTest, BinaryPayloads) {
  std::string key("\x00\x01\xff", 3);
  std::string value(300, '\0');
  WriteRun("r", {{key, value}});
  std::unique_ptr<KVStream> stream = OpenBlockRun("r");
  EXPECT_EQ(stream->key().ToString(), key);
  EXPECT_EQ(stream->value().ToString(), value);
}

TEST_F(RunFileTest, RecordCountTracked) {
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env_->NewWritableFile("r", &file).ok());
  BlockRunWriter writer(std::move(file), GetCodec(CodecType::kNone), {});
  for (int i = 0; i < 17; ++i) {
    ASSERT_TRUE(writer.Add("k", "v").ok());
  }
  EXPECT_EQ(writer.record_count(), 17u);
  ASSERT_TRUE(writer.Finish().ok());
}

// ---- Torn writes -----------------------------------------------------------
// A producer dying mid-write (or a partial flush surviving a crash) leaves a
// prefix of the block-framed file. The reader must surface Corruption —
// never crash, hang, or silently serve a short read as a complete run.

class TornWriteTest : public RunFileTest {
 protected:
  /// Write `n` records as a block-framed run with tiny blocks (many frames)
  /// and return the stored bytes.
  std::string WriteBlockRun(const std::string& fname, int n) {
    std::unique_ptr<WritableFile> file;
    EXPECT_TRUE(env_->NewWritableFile(fname, &file).ok());
    BlockRunWriter::Options wopts;
    wopts.block_bytes = 256;  // force many blocks
    BlockRunWriter writer(std::move(file), GetCodec(CodecType::kNone), wopts);
    for (int i = 0; i < n; ++i) {
      EXPECT_TRUE(writer
                      .Add("key" + std::to_string(i),
                           "value value value " + std::to_string(i))
                      .ok());
    }
    EXPECT_TRUE(writer.Finish().ok());
    EXPECT_GT(writer.block_count(), 3u) << "test needs a multi-block file";
    std::string raw;
    EXPECT_TRUE(ReadFileToString(env_.get(), fname, &raw).ok());
    return raw;
  }

  void Rewrite(const std::string& fname, const std::string& bytes) {
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(env_->NewWritableFile(fname, &file).ok());
    ASSERT_TRUE(file->Append(Slice(bytes)).ok());
    ASSERT_TRUE(file->Close().ok());
  }

  /// Drain a reader over `fname`; returns the terminal status and the
  /// number of records served before it.
  Status DrainBlockRun(const std::string& fname, size_t* records_out) {
    std::unique_ptr<SequentialFile> file;
    Status st = env_->NewSequentialFile(fname, &file);
    if (!st.ok()) return st;
    BlockRunReader::Options ropts;
    ropts.name = fname;
    BlockRunReader reader(std::move(file), GetCodec(CodecType::kNone), ropts);
    st = reader.Open();
    size_t records = 0;
    while (st.ok() && reader.Valid()) {
      ++records;
      st = reader.Next();
    }
    *records_out = records;
    return st;
  }
};

TEST_F(TornWriteTest, TruncationMidBlockSurfacesCorruption) {
  const int kRecords = 100;
  const std::string full = WriteBlockRun("seg", kRecords);
  // Truncate inside an interior frame: half the file lands mid-block.
  Rewrite("seg", full.substr(0, full.size() / 2));
  size_t records = 0;
  const Status st = DrainBlockRun("seg", &records);
  ASSERT_FALSE(st.ok()) << "short read served as a complete run";
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_LT(records, static_cast<size_t>(kRecords));
}

TEST_F(TornWriteTest, TruncationInFinalBlockSurfacesCorruption) {
  const int kRecords = 100;
  const std::string full = WriteBlockRun("seg", kRecords);
  // Tear off the last few bytes: the final frame is cut short.
  Rewrite("seg", full.substr(0, full.size() - 3));
  size_t records = 0;
  const Status st = DrainBlockRun("seg", &records);
  ASSERT_FALSE(st.ok()) << "short read served as a complete run";
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_LT(records, static_cast<size_t>(kRecords));
}

TEST_F(TornWriteTest, SweepEveryTruncationPoint) {
  // No truncation point may crash, hang, or yield OK with all records: any
  // cut either hides whole tail frames (fewer records, detected by the
  // consumer's record accounting upstream) or surfaces Corruption here.
  const int kRecords = 60;
  const std::string full = WriteBlockRun("seg", kRecords);
  for (size_t cut = 0; cut < full.size(); cut += 13) {
    Rewrite("seg", full.substr(0, cut));
    size_t records = 0;
    const Status st = DrainBlockRun("seg", &records);
    if (st.ok()) {
      EXPECT_LT(records, static_cast<size_t>(kRecords))
          << "cut at " << cut << " served the full run from a torn file";
    } else {
      EXPECT_TRUE(st.IsCorruption()) << "cut at " << cut << ": "
                                     << st.ToString();
    }
  }
}

TEST_F(TornWriteTest, RewrittenFileReadsCleanlyAfterTornRead) {
  // The retry story: a consumer hits Corruption on a torn file, the
  // producer is re-executed and rewrites it, and the retried consumer must
  // then read every record.
  const int kRecords = 100;
  const std::string full = WriteBlockRun("seg", kRecords);
  Rewrite("seg", full.substr(0, full.size() / 2));
  size_t records = 0;
  ASSERT_TRUE(DrainBlockRun("seg", &records).IsCorruption());
  // Producer retry: the file is rewritten whole.
  Rewrite("seg", full);
  records = 0;
  const Status st = DrainBlockRun("seg", &records);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(records, static_cast<size_t>(kRecords));
}

TEST_F(RunFileTest, VectorStreamIterates) {
  std::vector<std::pair<std::string, std::string>> records = {{"a", "1"},
                                                              {"b", "2"}};
  VectorStream stream(&records);
  EXPECT_TRUE(stream.Valid());
  EXPECT_EQ(stream.key().ToString(), "a");
  ASSERT_TRUE(stream.Next().ok());
  EXPECT_EQ(stream.value().ToString(), "2");
  ASSERT_TRUE(stream.Next().ok());
  EXPECT_FALSE(stream.Valid());
}

}  // namespace
}  // namespace antimr
