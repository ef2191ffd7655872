// Model-based property test of the Shared structure: random interleavings
// of Add / PeekMinKey / PopMinKeyValues, under varying memory limits and
// merge thresholds, compared against a trivial reference model
// (std::multimap). Any divergence in contents or drain order is a bug.
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "anticombine/shared.h"
#include "common/random.h"
#include "mr/metrics.h"

namespace antimr {
namespace anticombine {
namespace {

struct ModelParam {
  uint64_t seed;
  size_t memory_limit;
  int merge_threshold;
  int key_space;
};

class SharedModelTest : public ::testing::TestWithParam<ModelParam> {};

std::multiset<std::string> AsMultiset(const std::vector<Slice>& values) {
  std::multiset<std::string> out;
  for (const Slice& v : values) out.insert(v.ToString());
  return out;
}

TEST_P(SharedModelTest, MatchesReferenceModel) {
  const ModelParam& p = GetParam();
  auto env = NewMemEnv();
  JobMetrics metrics;
  Shared::Options options;
  options.key_cmp = BytewiseCompare;
  options.grouping_cmp = BytewiseCompare;
  options.env = env.get();
  options.file_prefix = "model";
  options.memory_limit_bytes = p.memory_limit;
  options.spill_merge_threshold = p.merge_threshold;
  options.metrics = &metrics;
  Shared shared(options);

  // Reference: multiset of (key, value) pairs, drained in key order.
  std::multimap<std::string, std::string> model;

  Random rng(p.seed);
  for (int step = 0; step < 3000; ++step) {
    const uint64_t op = rng.Uniform(10);
    if (op < 7) {
      // Add.
      const std::string key =
          "k" + std::to_string(rng.Uniform(static_cast<uint64_t>(p.key_space)));
      const std::string value = "v" + std::to_string(rng.Next() % 1000);
      shared.Add(key, value);
      model.emplace(key, value);
    } else if (op < 8) {
      // Peek: must agree on the minimal key (or emptiness).
      std::string min_key;
      const bool has = shared.PeekMinKey(&min_key);
      EXPECT_EQ(has, !model.empty());
      if (has) EXPECT_EQ(min_key, model.begin()->first);
    } else {
      // Pop: the minimal group, as a multiset of values.
      std::string group_key;
      std::vector<Slice> values;
      const bool popped = shared.PopMinKeyValues(&group_key, &values);
      EXPECT_EQ(popped, !model.empty());
      if (!popped) continue;
      const std::string expected_key = model.begin()->first;
      EXPECT_EQ(group_key, expected_key);
      std::multiset<std::string> expected;
      auto range = model.equal_range(expected_key);
      for (auto it = range.first; it != range.second; ++it) {
        expected.insert(it->second);
      }
      model.erase(expected_key);
      EXPECT_EQ(AsMultiset(values), expected) << "group " << group_key;
    }
  }

  // Final drain must produce the remaining model contents in key order.
  std::string last_key;
  bool first = true;
  std::string group_key;
  std::vector<Slice> values;
  while (shared.PopMinKeyValues(&group_key, &values)) {
    if (!first) EXPECT_GT(group_key, last_key);
    first = false;
    last_key = group_key;
    std::multiset<std::string> expected;
    auto range = model.equal_range(group_key);
    for (auto it = range.first; it != range.second; ++it) {
      expected.insert(it->second);
    }
    EXPECT_EQ(AsMultiset(values), expected);
    model.erase(group_key);
    values.clear();
  }
  EXPECT_TRUE(model.empty());
  EXPECT_TRUE(shared.Empty());
}

INSTANTIATE_TEST_SUITE_P(
    Configs, SharedModelTest,
    ::testing::Values(
        ModelParam{1, size_t{1} << 30, 10, 50},    // pure in-memory
        ModelParam{2, 1024, 10, 50},               // frequent spills
        ModelParam{3, 256, 2, 50},                 // spills + merges
        ModelParam{4, 1024, 10, 5},                // few hot keys
        ModelParam{5, 512, 3, 500},                // wide key space
        ModelParam{6, 64, 2, 20}),                 // pathological memory
    [](const ::testing::TestParamInfo<ModelParam>& info) {
      return "seed" + std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace anticombine
}  // namespace antimr
