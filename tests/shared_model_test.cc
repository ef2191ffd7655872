// Model-based property test of the Shared structure: random interleavings
// of Add / PeekMinKey / PopMinKeyValues, under varying memory limits and
// merge thresholds, compared against a trivial reference model
// (std::multimap). Any divergence in contents or drain order is a bug.
// Adds come one record per call, or shaped like the decode calls that share
// a stored value: an EagerSH record (one value under several keys) or a
// LazySH re-execution (a few keys, values drawn from two).
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

/// How one Add call is shaped.
enum class AddShape {
  kSingle,  ///< one record
  kEager,   ///< 1-6 distinct keys, one value (one view, as decoded)
  kLazy,    ///< 1-6 keys, repeats allowed, each value one of two (copies)
};

struct ModelParam {
  uint64_t seed;
  size_t memory_limit;
  int merge_threshold;
  int key_space;
  /// Reverse byte order, grouping keys on all but their last byte: a
  /// closure comparator, so Shared's heap takes the std::function path
  /// instead of the inline bytewise one.
  bool closure_order = false;
  AddShape shape = AddShape::kSingle;
  /// Sum values with a combiner inside Shared: groups are then compared by
  /// value sum, since the combiner folds a key's values at will.
  bool combiner = false;
};

// Sums decimal values.
class SumCombiner : public Reducer {
 public:
  void Reduce(const Slice& key, ValueIterator* values,
              ReduceContext* ctx) override {
    long total = 0;
    Slice v;
    while (values->Next(&v)) total += std::stol(v.ToString());
    ctx->Emit(key, std::to_string(total));
  }
};

const char* ShapeSuffix(AddShape shape) {
  switch (shape) {
    case AddShape::kEager:
      return "_eager";
    case AddShape::kLazy:
      return "_lazy";
    default:
      return "";
  }
}

long Sum(const std::multiset<std::string>& values) {
  long total = 0;
  for (const std::string& v : values) total += std::stol(v);
  return total;
}

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
  SumCombiner combiner;
  if (p.combiner) options.combiner = &combiner;
  Shared shared(options);
  // Pops compare value multisets, or value sums under the combiner.
  auto expect_group = [&](const std::vector<Slice>& values,
                          const std::multiset<std::string>& expected,
                          const std::string& group_key) {
    if (p.combiner) {
      EXPECT_EQ(Sum(AsMultiset(values)), Sum(expected)) << group_key;
      EXPECT_LE(values.size(), expected.size()) << group_key;
    } else {
      EXPECT_EQ(AsMultiset(values), expected) << "group " << group_key;
    }
  };

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
      // Add: one decode call of p.shape.
      auto key_of = [&](uint64_t k) {
        // Fixed-width keys under the closure order, so each prefix group
        // is one contiguous key range.
        char buf[32];
        std::snprintf(buf, sizeof(buf), "k%04llu",
                      static_cast<unsigned long long>(k));
        return p.closure_order ? std::string(buf) : "k" + std::to_string(k);
      };
      auto value_of = [&](uint64_t v) {
        return p.combiner ? std::to_string(v % 10) : "v" + std::to_string(v);
      };
      std::vector<std::string> keys;
      std::vector<std::string> values;
      if (p.shape == AddShape::kSingle) {
        keys.push_back(key_of(
            rng.Uniform(static_cast<uint64_t>(p.key_space))));
        values.push_back(value_of(rng.Next() % 1000));
      } else {
        const uint64_t n = 1 + rng.Uniform(6);
        const std::string two[2] = {value_of(rng.Next() % 1000),
                                    value_of(rng.Next() % 1000)};
        std::set<std::string> seen;
        for (uint64_t i = 0; i < n; ++i) {
          const std::string key = key_of(
              rng.Uniform(static_cast<uint64_t>(p.key_space)));
          // An EagerSH record's keys are distinct.
          if (p.shape == AddShape::kEager && !seen.insert(key).second) {
            continue;
          }
          keys.push_back(key);
          values.push_back(two[p.shape == AddShape::kLazy ? rng.Uniform(2)
                                                          : 0]);
        }
      }
      std::vector<RecordRef> records;
      for (size_t i = 0; i < keys.size(); ++i) {
        // EagerSH hands every key one view of its value; LazySH kept
        // records each carry their own copy.
        records.emplace_back(keys[i], p.shape == AddShape::kEager
                                          ? Slice(values[0])
                                          : Slice(values[i]));
        model.emplace(keys[i], values[i]);
      }
      ASSERT_TRUE(shared.Add(records).ok());
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
      expect_group(values, expected, group_key);
    }
  }

  // Final drain must produce the remaining model contents in key order.
  std::string group_key;
  std::vector<Slice> values;
  while (shared.PopMinKeyValues(&group_key, &values).ok()) {
    ASSERT_FALSE(model.empty()) << "extra group " << group_key;
    std::multiset<std::string> expected;
    EXPECT_EQ(group_key, pop_model_group(&expected));
    expect_group(values, expected, group_key);
    values.clear();
  }
  EXPECT_TRUE(model.empty());
  EXPECT_TRUE(shared.Empty());
  if (p.memory_limit < 4096) {
    EXPECT_GT(metrics.shared_spills, 0u) << "a small budget never spilled";
  }
  if (p.combiner) {
    EXPECT_GT(metrics.shared_combine_input_records, 0u) << "never combined";
    EXPECT_EQ(metrics.combine_input_records, 0u);
  }
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
        ModelParam{9, 128, 2, 50, true},           // closure + merges
        // Decode-call shapes whose records share stored values.
        ModelParam{10, size_t{1} << 30, 10, 50, false, AddShape::kEager},
        ModelParam{11, 1024, 3, 50, false, AddShape::kEager},
        ModelParam{12, 200, 2, 20, false, AddShape::kEager},
        ModelParam{13, size_t{1} << 30, 10, 50, false, AddShape::kLazy},
        ModelParam{14, 1024, 3, 50, false, AddShape::kLazy},
        ModelParam{15, 200, 2, 20, false, AddShape::kLazy},
        ModelParam{16, 512, 3, 500, true, AddShape::kLazy},
        ModelParam{17, 256, 3, 30, false, AddShape::kEager, true},
        ModelParam{18, 128, 2, 30, false, AddShape::kLazy, true},
        ModelParam{19, size_t{1} << 30, 10, 5, false, AddShape::kSingle,
                   true}),
    [](const ::testing::TestParamInfo<ModelParam>& info) {
      return "seed" + std::to_string(info.param.seed) +
             (info.param.closure_order ? "_closure" : "") +
             ShapeSuffix(info.param.shape) +
             (info.param.combiner ? "_combiner" : "");
    });

}  // namespace
}  // namespace anticombine
}  // namespace antimr
