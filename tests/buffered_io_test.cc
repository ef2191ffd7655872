#include "io/buffered_io.h"

#include <gtest/gtest.h>

#include "io/env.h"

namespace antimr {
namespace {

class BufferedIoTest : public ::testing::Test {
 protected:
  void SetUp() override { env_ = NewMemEnv(); }

  std::unique_ptr<BufferedWriter> NewWriter(const std::string& fname,
                                            size_t buffer = 64) {
    std::unique_ptr<WritableFile> file;
    EXPECT_TRUE(env_->NewWritableFile(fname, &file).ok());
    return std::make_unique<BufferedWriter>(std::move(file), buffer);
  }

  std::unique_ptr<BufferedReader> NewReader(const std::string& fname,
                                            size_t buffer = 64) {
    std::unique_ptr<SequentialFile> file;
    EXPECT_TRUE(env_->NewSequentialFile(fname, &file).ok());
    return std::make_unique<BufferedReader>(std::move(file), buffer);
  }

  std::unique_ptr<Env> env_;
};

TEST_F(BufferedIoTest, RoundTripPrimitives) {
  auto writer = NewWriter("f");
  ASSERT_TRUE(writer->AppendVarint32(12345).ok());
  ASSERT_TRUE(writer->AppendVarint64(1ULL << 50).ok());
  ASSERT_TRUE(writer->Close().ok());

  auto reader = NewReader("f");
  uint32_t v32;
  uint64_t v64;
  ASSERT_TRUE(reader->ReadVarint32(&v32).ok());
  ASSERT_TRUE(reader->ReadVarint64(&v64).ok());
  EXPECT_EQ(v32, 12345u);
  EXPECT_EQ(v64, 1ULL << 50);
  EXPECT_TRUE(reader->AtEof());
}

TEST_F(BufferedIoTest, LargePayloadSpansBufferBoundaries) {
  const std::string big(10000, 'z');
  auto writer = NewWriter("f", /*buffer=*/32);
  ASSERT_TRUE(writer->Append(big).ok());
  ASSERT_TRUE(writer->Close().ok());
  auto reader = NewReader("f", /*buffer=*/32);
  std::string out;
  ASSERT_TRUE(reader->ReadExact(big.size(), &out).ok());
  EXPECT_EQ(out, big);
}

TEST_F(BufferedIoTest, ManySmallRecordsAcrossBoundaries) {
  auto writer = NewWriter("f", 16);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(writer->AppendVarint32(static_cast<uint32_t>(i * 7)).ok());
  }
  ASSERT_TRUE(writer->Close().ok());
  auto reader = NewReader("f", 16);
  for (int i = 0; i < 1000; ++i) {
    uint32_t v;
    ASSERT_TRUE(reader->ReadVarint32(&v).ok());
    EXPECT_EQ(v, static_cast<uint32_t>(i * 7));
  }
  EXPECT_TRUE(reader->AtEof());
}

TEST_F(BufferedIoTest, ReadPastEofIsCorruption) {
  auto writer = NewWriter("f");
  ASSERT_TRUE(writer->Append("x").ok());
  ASSERT_TRUE(writer->Close().ok());
  auto reader = NewReader("f");
  std::string out;
  EXPECT_TRUE(reader->ReadExact(5, &out).IsCorruption());
}

TEST_F(BufferedIoTest, BytesWrittenTracksPayload) {
  auto writer = NewWriter("f");
  ASSERT_TRUE(writer->Append("abcde").ok());
  EXPECT_EQ(writer->bytes_written(), 5u);
  ASSERT_TRUE(writer->Close().ok());
  uint64_t size;
  ASSERT_TRUE(env_->GetFileSize("f", &size).ok());
  EXPECT_EQ(size, 5u);
}

TEST_F(BufferedIoTest, DestructorFlushes) {
  {
    auto writer = NewWriter("f");
    ASSERT_TRUE(writer->Append("buffered but never closed").ok());
  }
  uint64_t size;
  ASSERT_TRUE(env_->GetFileSize("f", &size).ok());
  EXPECT_EQ(size, 25u);
}

TEST_F(BufferedIoTest, AppendLargerThanBufferBypasses) {
  auto writer = NewWriter("f", 8);
  const std::string big(100, 'b');
  ASSERT_TRUE(writer->Append("ab").ok());
  ASSERT_TRUE(writer->Append(big).ok());
  ASSERT_TRUE(writer->Append("cd").ok());
  ASSERT_TRUE(writer->Close().ok());
  auto reader = NewReader("f");
  std::string all;
  ASSERT_TRUE(reader->ReadExact(104, &all).ok());
  EXPECT_EQ(all, "ab" + big + "cd");
}

}  // namespace
}  // namespace antimr
