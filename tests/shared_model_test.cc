// Model-based property test of the Shared structure: random interleavings
// of Add / PeekMinKey / PopMinKeyValues, under varying memory limits and
// merge thresholds, compared against a trivial reference model
// (std::multimap). Any divergence in contents or drain order is a bug.
#include <cstdio>
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
  /// Reverse byte order, grouping keys on all but their last byte: a
  /// closure comparator, so Shared's heap takes the std::function path
  /// instead of the inline bytewise one.
  bool closure_order = false;
};

int ReverseBytewise(const Slice& a, const Slice& b) { return b.compare(a); }

// Drops the last byte ("k0012" and "k0013" share group "k001").
Slice GroupPrefix(const Slice& key) {
  return key.empty() ? key : Slice(key.data(), key.size() - 1);
}

// The reference model's key order and group equality, for either mode.
struct ModelOrder {
  bool closure;
  bool operator()(const std::string& a, const std::string& b) const {
    return closure ? ReverseBytewise(a, b) < 0 : a < b;
  }
  std::string Group(const std::string& key) const {
    return closure ? GroupPrefix(key).ToString() : key;
  }
};

class SharedModelTest : public ::testing::TestWithParam<ModelParam> {};

std::multiset<std::string> AsMultiset(const std::vector<Slice>& values) {
  std::multiset<std::string> out;
  for (const Slice& v : values) out.insert(v.ToString());
  return out;
}

TEST_P(SharedModelTest, MatchesReferenceModel) {
  const ModelParam& p = GetParam();
  const ModelOrder order{p.closure_order};
  auto env = NewMemEnv();
  JobMetrics metrics;
  Shared::Options options;
  options.key_cmp = BytewiseCompare;
  options.grouping_cmp = BytewiseCompare;
  if (p.closure_order) {
    options.key_cmp = [](const Slice& a, const Slice& b) {
      return ReverseBytewise(a, b);
    };
    options.grouping_cmp = [](const Slice& a, const Slice& b) {
      return ReverseBytewise(GroupPrefix(a), GroupPrefix(b));
    };
  }
  options.env = env.get();
  options.file_prefix = "model";
  options.memory_limit_bytes = p.memory_limit;
  options.spill_merge_threshold = p.merge_threshold;
  options.metrics = &metrics;
  Shared shared(options);

  // Reference: multiset of (key, value) pairs, drained in key order.
  std::multimap<std::string, std::string, ModelOrder> model(order);
  // Removes the model's minimal group; returns its values and its minimal
  // key.
  auto pop_model_group = [&](std::multiset<std::string>* values) {
    const std::string min_key = model.begin()->first;
    const std::string group = order.Group(min_key);
    while (!model.empty() && order.Group(model.begin()->first) == group) {
      values->insert(model.begin()->second);
      model.erase(model.begin());
    }
    return min_key;
  };

  Random rng(p.seed);
  for (int step = 0; step < 3000; ++step) {
    const uint64_t op = rng.Uniform(10);
    if (op < 7) {
      // Add.
      const uint64_t k = rng.Uniform(static_cast<uint64_t>(p.key_space));
      // Fixed-width keys under the closure order, so each prefix group is
      // one contiguous key range.
      char buf[32];
      std::snprintf(buf, sizeof(buf), "k%04llu",
                    static_cast<unsigned long long>(k));
      const std::string key = p.closure_order ? std::string(buf)
                                              : "k" + std::to_string(k);
      const std::string value = "v" + std::to_string(rng.Next() % 1000);
      ASSERT_TRUE(shared.Add(key, value).ok());
      model.emplace(key, value);
    } else if (op < 8) {
      // Peek: must agree on the minimal key (or emptiness).
      std::string min_key;
      const bool has = shared.PeekMinKey(&min_key);
      EXPECT_EQ(has, !model.empty());
      if (has) {
        EXPECT_EQ(min_key, model.begin()->first);
      }
    } else {
      // Pop: the minimal group, as a multiset of values.
      std::string group_key;
      std::vector<Slice> values;
      const Status popped = shared.PopMinKeyValues(&group_key, &values);
      EXPECT_EQ(popped.ok(), !model.empty()) << popped.ToString();
      if (!popped.ok()) {
        EXPECT_TRUE(popped.IsNotFound()) << popped.ToString();
        continue;
      }
      std::multiset<std::string> expected;
      EXPECT_EQ(group_key, pop_model_group(&expected));
      EXPECT_EQ(AsMultiset(values), expected) << "group " << group_key;
    }
  }

  // Final drain must produce the remaining model contents in key order.
  std::string group_key;
  std::vector<Slice> values;
  while (shared.PopMinKeyValues(&group_key, &values).ok()) {
    ASSERT_FALSE(model.empty()) << "extra group " << group_key;
    std::multiset<std::string> expected;
    EXPECT_EQ(group_key, pop_model_group(&expected));
    EXPECT_EQ(AsMultiset(values), expected);
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
        ModelParam{6, 64, 2, 20},                  // pathological memory
        ModelParam{7, size_t{1} << 30, 10, 500, true},  // closure order
        ModelParam{8, 512, 3, 500, true},          // closure + spills
        ModelParam{9, 128, 2, 50, true}),          // closure + merges
    [](const ::testing::TestParamInfo<ModelParam>& info) {
      return "seed" + std::to_string(info.param.seed) +
             (info.param.closure_order ? "_closure" : "");
    });

}  // namespace
}  // namespace anticombine
}  // namespace antimr
