#include "mr/shuffle.h"

#include <gtest/gtest.h>

#include "net/shuffle_service.h"
#include "net/transport.h"
#include "test_util.h"

namespace antimr {
namespace {

using testing::KVVectorStream;

class ShuffleTest : public ::testing::TestWithParam<CodecType> {
 protected:
  void SetUp() override { env_ = NewMemEnv(); }
  std::unique_ptr<Env> env_;
};

TEST_P(ShuffleTest, SegmentRoundTrip) {
  const Codec* codec = GetCodec(GetParam());
  std::vector<KV> records;
  for (int i = 0; i < 500; ++i) {
    records.push_back({"key" + std::to_string(i),
                       "value value value " + std::to_string(i)});
  }
  KVVectorStream in(&records);
  SegmentWriteResult write_result;
  ASSERT_TRUE(WriteSegment(env_.get(), "seg", &in, codec, &write_result)
                  .ok());
  EXPECT_EQ(write_result.records, 500u);
  EXPECT_GT(write_result.raw_bytes, 0u);
  EXPECT_GT(write_result.blocks, 0u);

  std::unique_ptr<BlockRunReader> out;
  ASSERT_TRUE(OpenSegmentReader(env_.get(), "seg", codec, {}, &out).ok());
  size_t i = 0;
  while (out->Valid()) {
    ASSERT_LT(i, records.size());
    EXPECT_EQ(out->key().ToString(), records[i].key);
    EXPECT_EQ(out->value().ToString(), records[i].value);
    ASSERT_TRUE(out->Next().ok());
    ++i;
  }
  EXPECT_EQ(i, records.size());
  // Fully consumed: the reader has seen every stored byte and block.
  EXPECT_EQ(out->stats().bytes_read, write_result.stored_bytes);
  EXPECT_EQ(out->stats().blocks, write_result.blocks);
  EXPECT_EQ(out->stats().records, write_result.records);
}

TEST_P(ShuffleTest, FetchedSegmentRoundTrip) {
  const Codec* codec = GetCodec(GetParam());
  std::vector<KV> records;
  for (int i = 0; i < 200; ++i) {
    records.push_back({"k" + std::to_string(i), "v" + std::to_string(i)});
  }
  KVVectorStream in(&records);
  SegmentWriteResult write_result;
  ASSERT_TRUE(WriteSegment(env_.get(), "seg", &in, codec, &write_result).ok());

  std::unique_ptr<net::Transport> transport = net::NewLoopbackTransport();
  net::SegmentServer server(transport.get(), env_.get());
  ASSERT_TRUE(server.Start("").ok());
  net::ShuffleClient client(transport.get());
  FetchedSegment fetched;
  ASSERT_TRUE(client.Fetch(server.addr(), "seg", &fetched).ok());
  EXPECT_EQ(fetched.fetched_bytes, write_result.stored_bytes);
  EXPECT_EQ(fetched.file, "seg");

  std::unique_ptr<BlockRunReader> out;
  ASSERT_TRUE(
      OpenFetchedSegment(fetched, codec, kShuffleReadaheadBlocks, &out).ok());
  size_t i = 0;
  while (out->Valid()) {
    ASSERT_LT(i, records.size());
    EXPECT_EQ(out->key().ToString(), records[i].key);
    EXPECT_EQ(out->value().ToString(), records[i].value);
    ASSERT_TRUE(out->Next().ok());
    ++i;
  }
  EXPECT_EQ(i, records.size());
}

TEST_P(ShuffleTest, EmptySegment) {
  const Codec* codec = GetCodec(GetParam());
  std::vector<KV> records;
  KVVectorStream in(&records);
  SegmentWriteResult result;
  ASSERT_TRUE(
      WriteSegment(env_.get(), "empty", &in, codec, &result).ok());
  EXPECT_EQ(result.records, 0u);
  std::unique_ptr<BlockRunReader> out;
  ASSERT_TRUE(OpenSegmentReader(env_.get(), "empty", codec, {}, &out).ok());
  EXPECT_FALSE(out->Valid());
}

INSTANTIATE_TEST_SUITE_P(
    Codecs, ShuffleTest,
    ::testing::Values(CodecType::kNone, CodecType::kSnappyLike,
                      CodecType::kGzip, CodecType::kBzip2Like),
    [](const ::testing::TestParamInfo<CodecType>& info) {
      std::string name = CodecTypeName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(ShuffleNames, AreUniquePerTaskPartitionAndSpill) {
  EXPECT_NE(SegmentFileName("j", 1, 2), SegmentFileName("j", 2, 1));
  EXPECT_NE(SegmentFileName("j1", 1, 2), SegmentFileName("j2", 1, 2));
  EXPECT_NE(RunFileName("j", 1, 2, 0), RunFileName("j", 1, 2, 1));
  EXPECT_NE(RunFileName("j", 1, 2, 0), RunFileName("j", 1, 3, 0));
  EXPECT_NE(RunFileName("j", 1, 2, 0), SegmentFileName("j", 1, 2));
  // Runs are shipped as map output, so they share the segment name form.
  EXPECT_EQ(RunFileName("j", 1, 2, 0).rfind(SegmentFileName("j", 1, 2), 0),
            0u);
}

TEST(ShuffleCompression, MissingSegmentIsError) {
  auto env = NewMemEnv();
  std::unique_ptr<BlockRunReader> out;
  EXPECT_FALSE(
      OpenSegmentReader(env.get(), "nope", GetCodec(CodecType::kNone), {}, &out)
          .ok());
}

TEST(ShuffleCompression, CorruptSegmentIsError) {
  auto env = NewMemEnv();
  std::unique_ptr<WritableFile> f;
  ASSERT_TRUE(env->NewWritableFile("bad", &f).ok());
  ASSERT_TRUE(f->Append("this is not gzip").ok());
  ASSERT_TRUE(f->Close().ok());
  std::unique_ptr<BlockRunReader> out;
  Status st =
      OpenSegmentReader(env.get(), "bad", GetCodec(CodecType::kGzip), {}, &out);
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
}

// ---- Both segment openers against damaged bytes ---------------------------

enum class Opener { kFile, kFetched };

/// Open `bytes` as segment "seg" through `opener` and drain it. Returns the
/// first open or read error; *records gets every record served before it.
Status ReadSegmentBytes(Opener opener, const std::string& bytes,
                        const Codec* codec, std::vector<KV>* records) {
  records->clear();
  std::unique_ptr<Env> env = NewMemEnv();
  FetchedSegment fetched;
  std::unique_ptr<BlockRunReader> reader;
  Status st;
  if (opener == Opener::kFile) {
    std::unique_ptr<WritableFile> f;
    ANTIMR_RETURN_NOT_OK(env->NewWritableFile("seg", &f));
    ANTIMR_RETURN_NOT_OK(f->Append(bytes));
    ANTIMR_RETURN_NOT_OK(f->Close());
    st = OpenSegmentReader(env.get(), "seg", codec, {}, &reader);
  } else {
    fetched.file = "seg";
    fetched.frames = bytes;
    fetched.fetched_bytes = bytes.size();
    st = OpenFetchedSegment(fetched, codec, kShuffleReadaheadBlocks, &reader);
  }
  while (st.ok() && reader->Valid()) {
    records->push_back({reader->key().ToString(), reader->value().ToString()});
    st = reader->Next();
  }
  return st;
}

/// A small snappy segment cut into many blocks, and the records it holds.
std::string SmallMultiBlockSegment(std::vector<KV>* records) {
  records->clear();
  for (int i = 0; i < 60; ++i) {
    records->push_back({"key" + std::to_string(100 + i),
                        "value value value " + std::to_string(i % 7)});
  }
  auto env = NewMemEnv();
  KVVectorStream in(records);
  SegmentWriteResult wr;
  EXPECT_TRUE(WriteSegment(env.get(), "seg", &in,
                           GetCodec(CodecType::kSnappyLike), &wr,
                           /*block_bytes=*/256)
                  .ok());
  EXPECT_GE(wr.blocks, 4u) << "test needs a multi-block segment";
  EXPECT_LT(wr.stored_bytes, wr.raw_bytes) << "snappy must compress";
  std::string bytes;
  EXPECT_TRUE(ReadFileToString(env.get(), "seg", &bytes).ok());
  return bytes;
}

bool IsPrefix(const std::vector<KV>& prefix, const std::vector<KV>& all) {
  if (prefix.size() > all.size()) return false;
  for (size_t i = 0; i < prefix.size(); ++i) {
    if (prefix[i].key != all[i].key || prefix[i].value != all[i].value) {
      return false;
    }
  }
  return true;
}

class SegmentOpenerTest : public ::testing::TestWithParam<Opener> {};

TEST_P(SegmentOpenerTest, ForeignOrMissingMagicIsCorruption) {
  // "ACH1" was the magic of the deleted columnar chunk format.
  std::vector<KV> records;
  const std::string segment = SmallMultiBlockSegment(&records);
  const std::string body = segment.substr(4);
  for (const std::string& bytes :
       {std::string(), std::string("AB"), std::string("ABS"), "ACH1" + body,
        "abs1" + body, "XYZ1" + body, body}) {
    std::vector<KV> read;
    const Status st = ReadSegmentBytes(
        GetParam(), bytes, GetCodec(CodecType::kSnappyLike), &read);
    EXPECT_TRUE(st.IsCorruption())
        << bytes.size() << " bytes: " << st.ToString();
    EXPECT_NE(st.ToString().find("segment seg"), std::string::npos)
        << st.ToString();
    EXPECT_TRUE(read.empty());
  }
}

TEST_P(SegmentOpenerTest, TruncatedSegmentIsCorruptionOrShorterPrefix) {
  // Frames carry no trailer, so a cut exactly at a frame boundary reads as a
  // shorter segment; every other cut must surface Corruption.
  std::vector<KV> records;
  const std::string segment = SmallMultiBlockSegment(&records);
  size_t corrupt = 0;
  for (size_t cut = 0; cut < segment.size(); ++cut) {
    std::vector<KV> read;
    const Status st =
        ReadSegmentBytes(GetParam(), segment.substr(0, cut),
                         GetCodec(CodecType::kSnappyLike), &read);
    if (st.ok()) {
      EXPECT_GE(cut, 4u) << "a cut inside the magic opened cleanly";
      EXPECT_LT(read.size(), records.size()) << "cut at " << cut;
      EXPECT_TRUE(IsPrefix(read, records)) << "cut at " << cut;
    } else {
      ASSERT_TRUE(st.IsCorruption()) << "cut at " << cut << ": "
                                     << st.ToString();
      EXPECT_TRUE(IsPrefix(read, records)) << "cut at " << cut;
      ++corrupt;
    }
  }
  EXPECT_GT(corrupt, segment.size() / 2);
}

TEST_P(SegmentOpenerTest, EveryByteFlipIsCorruptionNamingSegmentAndBlock) {
  std::vector<KV> records;
  const std::string segment = SmallMultiBlockSegment(&records);
  for (size_t pos = 0; pos < segment.size(); ++pos) {
    for (const unsigned char mask : {0x01, 0x80}) {
      std::string bytes = segment;
      bytes[pos] = static_cast<char>(bytes[pos] ^ mask);
      std::vector<KV> read;
      const Status st = ReadSegmentBytes(
          GetParam(), bytes, GetCodec(CodecType::kSnappyLike), &read);
      if (st.ok()) {
        // Only an undetectable flip may pass, and it must change nothing.
        EXPECT_EQ(read.size(), records.size()) << "flip at " << pos;
        EXPECT_TRUE(IsPrefix(read, records)) << "flip at " << pos;
        continue;
      }
      ASSERT_TRUE(st.IsCorruption()) << "flip at " << pos << ": "
                                     << st.ToString();
      EXPECT_NE(st.ToString().find("segment seg block "), std::string::npos)
          << "flip at " << pos << ": " << st.ToString();
      EXPECT_TRUE(IsPrefix(read, records)) << "flip at " << pos;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Openers, SegmentOpenerTest,
    ::testing::Values(Opener::kFile, Opener::kFetched),
    [](const ::testing::TestParamInfo<Opener>& info) {
      return std::string(info.param == Opener::kFile ? "File" : "Fetched");
    });

}  // namespace
}  // namespace antimr
