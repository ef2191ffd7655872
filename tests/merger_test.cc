#include "io/merger.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "common/random.h"
#include "mr/reduce_task.h"

namespace antimr {
namespace {

using Records = std::vector<KV>;

std::unique_ptr<KVStream> Stream(const Records* records) {
  return std::make_unique<KVVectorStream>(records);
}

bool KeyLess(const KV& a, const KV& b) { return a.key < b.key; }

Records Drain(MergingStream* stream) {
  Records out;
  while (stream->Valid()) {
    out.emplace_back(stream->key().ToString(), stream->value().ToString());
    EXPECT_TRUE(stream->Next().ok());
  }
  return out;
}

TEST(Merger, MergesSortedInputs) {
  Records a = {{"a", "1"}, {"c", "3"}, {"e", "5"}};
  Records b = {{"b", "2"}, {"d", "4"}};
  std::vector<std::unique_ptr<KVStream>> inputs;
  inputs.push_back(Stream(&a));
  inputs.push_back(Stream(&b));
  MergingStream merged(std::move(inputs), BytewiseCompare);
  Records out = Drain(&merged);
  ASSERT_EQ(out.size(), 5u);
  for (size_t i = 1; i < out.size(); ++i) {
    EXPECT_LT(out[i - 1].key, out[i].key);
  }
}

TEST(Merger, NoInputs) {
  MergingStream merged({}, BytewiseCompare);
  EXPECT_FALSE(merged.Valid());
}

TEST(Merger, AllInputsEmpty) {
  Records a, b;
  std::vector<std::unique_ptr<KVStream>> inputs;
  inputs.push_back(Stream(&a));
  inputs.push_back(Stream(&b));
  MergingStream merged(std::move(inputs), BytewiseCompare);
  EXPECT_FALSE(merged.Valid());
}

TEST(Merger, StableOnEqualKeys) {
  // Equal keys must come out in input-stream order (determinism).
  Records a = {{"k", "from_a1"}, {"k", "from_a2"}};
  Records b = {{"k", "from_b"}};
  std::vector<std::unique_ptr<KVStream>> inputs;
  inputs.push_back(Stream(&a));
  inputs.push_back(Stream(&b));
  MergingStream merged(std::move(inputs), BytewiseCompare);
  Records out = Drain(&merged);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].value, "from_a1");
  EXPECT_EQ(out[1].value, "from_a2");
  EXPECT_EQ(out[2].value, "from_b");
}

TEST(Merger, CustomComparator) {
  // Reverse order merge.
  auto reverse_cmp = [](const Slice& a, const Slice& b) {
    return b.compare(a);
  };
  Records a = {{"z", "1"}, {"m", "2"}, {"a", "3"}};
  Records b = {{"y", "4"}, {"b", "5"}};
  std::vector<std::unique_ptr<KVStream>> inputs;
  inputs.push_back(Stream(&a));
  inputs.push_back(Stream(&b));
  MergingStream merged(std::move(inputs), reverse_cmp);
  Records out = Drain(&merged);
  ASSERT_EQ(out.size(), 5u);
  for (size_t i = 1; i < out.size(); ++i) {
    EXPECT_GT(out[i - 1].key, out[i].key);
  }
}

// The merge must equal a stable sort by key of the inputs concatenated in
// input order: records with equal keys come out by input index, and within
// one input in the input's own order. The narrow key space puts duplicates
// within and across inputs, so the stream-index tie-break decides most of
// the output.
TEST(Merger, ManyStreamsRandomized) {
  Random rng(99);
  for (const uint64_t key_space : {uint64_t{1000}, uint64_t{25}}) {
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<Records> sources(1 + rng.Uniform(17));
      Records expected;
      for (auto& source : sources) {
        const size_t n = rng.Uniform(200);
        for (size_t i = 0; i < n; ++i) {
          source.emplace_back("key" + std::to_string(rng.Uniform(key_space)),
                              std::to_string(rng.Next()));
        }
        std::stable_sort(source.begin(), source.end(), KeyLess);
        expected.insert(expected.end(), source.begin(), source.end());
      }
      std::stable_sort(expected.begin(), expected.end(), KeyLess);
      std::vector<std::unique_ptr<KVStream>> inputs;
      for (const auto& source : sources) inputs.push_back(Stream(&source));
      MergingStream merged(std::move(inputs), BytewiseCompare);
      EXPECT_EQ(Drain(&merged), expected)
          << "key space " << key_space << " trial " << trial;
    }
  }
}

TEST(Merger, SingleStreamPassesThrough) {
  Records a = {{"a", "1"}, {"b", "2"}};
  std::vector<std::unique_ptr<KVStream>> inputs;
  inputs.push_back(Stream(&a));
  MergingStream merged(std::move(inputs), BytewiseCompare);
  Records out = Drain(&merged);
  EXPECT_EQ(out, a);
}

}  // namespace
}  // namespace antimr
