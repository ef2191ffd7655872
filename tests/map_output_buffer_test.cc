#include "mr/map_output_buffer.h"

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace antimr {
namespace {

TEST(MapOutputBuffer, EmptyBuffer) {
  MapOutputBuffer buffer(3, BytewiseCompare);
  EXPECT_TRUE(buffer.empty());
  EXPECT_EQ(buffer.record_count(), 0u);
  buffer.Sort();
  for (int p = 0; p < 3; ++p) {
    EXPECT_EQ(buffer.PartitionRecords(p), 0u);
    EXPECT_FALSE(buffer.PartitionStream(p)->Valid());
  }
}

TEST(MapOutputBuffer, SortsWithinPartition) {
  MapOutputBuffer buffer(2, BytewiseCompare);
  buffer.Add(0, "c", "3");
  buffer.Add(1, "z", "z1");
  buffer.Add(0, "a", "1");
  buffer.Add(0, "b", "2");
  buffer.Add(1, "y", "y1");
  buffer.Sort();
  auto s0 = buffer.PartitionStream(0);
  std::string keys;
  while (s0->Valid()) {
    keys += s0->key().ToString();
    ASSERT_TRUE(s0->Next().ok());
  }
  EXPECT_EQ(keys, "abc");
  EXPECT_EQ(buffer.PartitionRecords(0), 3u);
  EXPECT_EQ(buffer.PartitionRecords(1), 2u);
}

// Add interns: every record is added from one caller buffer that is
// overwritten after each call, as a mapper formatting into scratch does.
TEST(MapOutputBuffer, StableForEqualKeys) {
  MapOutputBuffer buffer(1, BytewiseCompare);
  std::string scratch;
  for (const char* value : {"first", "second", "third"}) {
    scratch = value;
    buffer.Add(0, "k", scratch);
    scratch.assign(scratch.size(), '?');
  }
  buffer.Sort();
  auto stream = buffer.PartitionStream(0);
  EXPECT_EQ(stream->value().ToString(), "first");
  ASSERT_TRUE(stream->Next().ok());
  EXPECT_EQ(stream->value().ToString(), "second");
  ASSERT_TRUE(stream->Next().ok());
  EXPECT_EQ(stream->value().ToString(), "third");
}

TEST(MapOutputBuffer, MemoryUsageGrowsAndClears) {
  MapOutputBuffer buffer(1, BytewiseCompare);
  EXPECT_EQ(buffer.memory_usage(), 0u);
  buffer.Add(0, "0123456789", "0123456789");
  EXPECT_GE(buffer.memory_usage(), 20u);
  buffer.Clear();
  EXPECT_EQ(buffer.memory_usage(), 0u);
  EXPECT_TRUE(buffer.empty());
}

TEST(MapOutputBuffer, ReusableAfterClear) {
  MapOutputBuffer buffer(2, BytewiseCompare);
  buffer.Add(0, "a", "1");
  buffer.Sort();
  buffer.Clear();
  buffer.Add(1, "b", "2");
  buffer.Sort();
  EXPECT_EQ(buffer.PartitionRecords(0), 0u);
  EXPECT_EQ(buffer.PartitionRecords(1), 1u);
  auto stream = buffer.PartitionStream(1);
  EXPECT_EQ(stream->key().ToString(), "b");
}

TEST(MapOutputBuffer, CustomComparator) {
  auto reverse = [](const Slice& a, const Slice& b) { return b.compare(a); };
  MapOutputBuffer buffer(1, reverse);
  buffer.Add(0, "a", "");
  buffer.Add(0, "c", "");
  buffer.Add(0, "b", "");
  buffer.Sort();
  auto stream = buffer.PartitionStream(0);
  std::string keys;
  while (stream->Valid()) {
    keys += stream->key().ToString();
    ASSERT_TRUE(stream->Next().ok());
  }
  EXPECT_EQ(keys, "cba");
}

TEST(MapOutputBuffer, SparsePartitions) {
  MapOutputBuffer buffer(10, BytewiseCompare);
  buffer.Add(7, "k7", "v");
  buffer.Add(2, "k2", "v");
  buffer.Sort();
  for (int p = 0; p < 10; ++p) {
    EXPECT_EQ(buffer.PartitionRecords(p), (p == 2 || p == 7) ? 1u : 0u);
  }
}

TEST(MapOutputBuffer, BinarySafePayloads) {
  MapOutputBuffer buffer(1, BytewiseCompare);
  const std::string key("\x00\xff\x00", 3);
  const std::string value(1000, '\0');
  buffer.Add(0, key, value);
  buffer.Sort();
  auto stream = buffer.PartitionStream(0);
  EXPECT_EQ(stream->key().ToString(), key);
  EXPECT_EQ(stream->value().ToString(), value);
}

}  // namespace
}  // namespace antimr
