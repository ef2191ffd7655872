#include "mr/shuffle.h"

#include <gtest/gtest.h>

#include "mr/reduce_task.h"
#include "net/shuffle_service.h"
#include "net/transport.h"

namespace antimr {
namespace {

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
  uint64_t compress_nanos = 0;
  SegmentWriteResult write_result;
  ASSERT_TRUE(WriteSegment(env_.get(), "seg", &in, codec, &compress_nanos,
                           &write_result)
                  .ok());
  EXPECT_EQ(write_result.records, 500u);
  EXPECT_GT(write_result.raw_bytes, 0u);
  EXPECT_GT(write_result.blocks, 0u);

  std::unique_ptr<SegmentStream> out;
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
  uint64_t nanos = 0;
  SegmentWriteResult write_result;
  ASSERT_TRUE(
      WriteSegment(env_.get(), "seg", &in, codec, &nanos, &write_result).ok());

  std::unique_ptr<net::Transport> transport = net::NewLoopbackTransport();
  net::SegmentServer server(transport.get(), env_.get());
  ASSERT_TRUE(server.Start("").ok());
  net::ShuffleClient client(transport.get());
  FetchedSegment fetched;
  ASSERT_TRUE(client.Fetch(server.addr(), "seg", &fetched).ok());
  EXPECT_EQ(fetched.fetched_bytes, write_result.stored_bytes);
  EXPECT_EQ(fetched.file, "seg");

  std::unique_ptr<SegmentStream> out;
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
  uint64_t nanos = 0;
  SegmentWriteResult result;
  ASSERT_TRUE(
      WriteSegment(env_.get(), "empty", &in, codec, &nanos, &result).ok());
  EXPECT_EQ(result.records, 0u);
  std::unique_ptr<SegmentStream> out;
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
  EXPECT_NE(SpillFileName("j", 1, 0, 2), SpillFileName("j", 1, 1, 2));
  EXPECT_NE(SpillFileName("j", 1, 0, 2), SegmentFileName("j", 1, 2));
}

TEST(ShuffleCompression, MissingSegmentIsError) {
  auto env = NewMemEnv();
  std::unique_ptr<SegmentStream> out;
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
  std::unique_ptr<SegmentStream> out;
  Status st =
      OpenSegmentReader(env.get(), "bad", GetCodec(CodecType::kGzip), {}, &out);
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
}

}  // namespace
}  // namespace antimr
