// Tests of the Shared structure: ordering, grouping, spilling, spill
// merging, and reduce-phase combining.
#include "anticombine/shared.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "alloc_counter.h"
#include "mr/metrics.h"

namespace antimr {
namespace anticombine {
namespace {

// Groups keys on their first character only.
Shared::Options FirstCharGrouping(Shared::Options options) {
  options.grouping_cmp = [](const Slice& a, const Slice& b) {
    const char ca = a.empty() ? 0 : a[0];
    const char cb = b.empty() ? 0 : b[0];
    return (ca < cb) ? -1 : (ca > cb ? 1 : 0);
  };
  return options;
}

// Pop views compared as owned strings.
std::vector<std::string> Strings(const std::vector<Slice>& values) {
  std::vector<std::string> out;
  out.reserve(values.size());
  for (const Slice& v : values) out.push_back(v.ToString());
  return out;
}

class SharedTest : public ::testing::Test {
 protected:
  void SetUp() override { env_ = NewMemEnv(); }

  Shared::Options BaseOptions() {
    Shared::Options o;
    o.key_cmp = BytewiseCompare;
    o.grouping_cmp = BytewiseCompare;
    o.env = env_.get();
    o.file_prefix = "t";
    o.metrics = &metrics_;
    return o;
  }

  /// Drain into a map key -> values (in pop order).
  std::map<std::string, std::vector<std::string>> DrainAll(Shared* shared) {
    std::map<std::string, std::vector<std::string>> out;
    std::string last_key;
    bool first = true;
    std::string key;
    std::vector<Slice> values;
    while (shared->PeekMinKey(&key)) {
      values.clear();
      std::string group_key;
      EXPECT_TRUE(shared->PopMinKeyValues(&group_key, &values));
      if (!first) {
        EXPECT_GT(group_key, last_key) << "groups must pop in key order";
      }
      first = false;
      last_key = group_key;
      out[group_key] = Strings(values);
    }
    EXPECT_TRUE(shared->Empty());
    return out;
  }

  std::unique_ptr<Env> env_;
  JobMetrics metrics_;
};

TEST_F(SharedTest, EmptyInitially) {
  Shared shared(BaseOptions());
  EXPECT_TRUE(shared.Empty());
  std::string key;
  EXPECT_FALSE(shared.PeekMinKey(&key));
  std::vector<Slice> values;
  EXPECT_FALSE(shared.PopMinKeyValues(&key, &values));
}

TEST_F(SharedTest, SingleRecord) {
  Shared shared(BaseOptions());
  shared.Add("k", "v");
  std::string key;
  ASSERT_TRUE(shared.PeekMinKey(&key));
  EXPECT_EQ(key, "k");
  auto all = DrainAll(&shared);
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all["k"], std::vector<std::string>{"v"});
}

TEST_F(SharedTest, PopsInKeyOrder) {
  Shared shared(BaseOptions());
  shared.Add("delta", "4");
  shared.Add("alpha", "1");
  shared.Add("charlie", "3");
  shared.Add("bravo", "2");
  auto all = DrainAll(&shared);  // DrainAll asserts ordering
  EXPECT_EQ(all.size(), 4u);
}

TEST_F(SharedTest, MultipleValuesPerKey) {
  Shared shared(BaseOptions());
  shared.Add("k", "1");
  shared.Add("k", "2");
  shared.Add("k", "3");
  auto all = DrainAll(&shared);
  EXPECT_EQ(all["k"], (std::vector<std::string>{"1", "2", "3"}));
}

TEST_F(SharedTest, SpillsWhenOverBudget) {
  Shared::Options options = BaseOptions();
  options.memory_limit_bytes = 256;
  Shared shared(options);
  std::map<std::string, std::vector<std::string>> expected;
  for (int i = 0; i < 200; ++i) {
    const std::string key = "key" + std::to_string(i % 37);
    const std::string value = "value_" + std::to_string(i);
    shared.Add(key, value);
    expected[key].push_back(value);
  }
  EXPECT_GT(metrics_.shared_spills, 0u);
  auto all = DrainAll(&shared);
  ASSERT_EQ(all.size(), expected.size());
  for (auto& [key, values] : expected) {
    // Pop order across memory + spills must be stable per key; compare as
    // multisets since spill boundaries interleave.
    std::vector<std::string> got = all[key];
    std::sort(got.begin(), got.end());
    std::sort(values.begin(), values.end());
    EXPECT_EQ(got, values) << key;
  }
}

TEST_F(SharedTest, SpillMergeKeepsData) {
  Shared::Options options = BaseOptions();
  options.memory_limit_bytes = 128;
  options.spill_merge_threshold = 3;
  Shared shared(options);
  size_t total = 0;
  for (int i = 0; i < 400; ++i) {
    shared.Add("k" + std::to_string(i % 50), std::string(20, 'x'));
    ++total;
  }
  EXPECT_GT(metrics_.shared_spill_merges, 0u);
  auto all = DrainAll(&shared);
  size_t drained = 0;
  for (const auto& [key, values] : all) drained += values.size();
  EXPECT_EQ(drained, total);
}

TEST_F(SharedTest, InterleavedAddAndPop) {
  Shared shared(BaseOptions());
  shared.Add("b", "b1");
  shared.Add("d", "d1");
  std::string key;
  std::vector<Slice> values;
  ASSERT_TRUE(shared.PopMinKeyValues(&key, &values));
  EXPECT_EQ(key, "b");
  // Add keys after popping; they must surface in order.
  shared.Add("c", "c1");
  shared.Add("e", "e1");
  values.clear();
  ASSERT_TRUE(shared.PopMinKeyValues(&key, &values));
  EXPECT_EQ(key, "c");
  values.clear();
  ASSERT_TRUE(shared.PopMinKeyValues(&key, &values));
  EXPECT_EQ(key, "d");
  values.clear();
  ASSERT_TRUE(shared.PopMinKeyValues(&key, &values));
  EXPECT_EQ(key, "e");
  EXPECT_TRUE(shared.Empty());
}

TEST_F(SharedTest, ReAddingPoppedKeyWorks) {
  Shared shared(BaseOptions());
  shared.Add("k", "1");
  std::string key;
  std::vector<Slice> values;
  ASSERT_TRUE(shared.PopMinKeyValues(&key, &values));
  shared.Add("k", "2");
  values.clear();
  ASSERT_TRUE(shared.PopMinKeyValues(&key, &values));
  EXPECT_EQ(Strings(values), std::vector<std::string>{"2"});
}

TEST_F(SharedTest, GroupingComparatorMergesKeys) {
  Shared shared(FirstCharGrouping(BaseOptions()));
  shared.Add("a2", "second");
  shared.Add("a1", "first");
  shared.Add("b1", "other");
  std::string key;
  std::vector<Slice> values;
  ASSERT_TRUE(shared.PopMinKeyValues(&key, &values));
  EXPECT_EQ(key, "a1");
  // Values of a1 and a2, in key order.
  EXPECT_EQ(Strings(values), (std::vector<std::string>{"first", "second"}));
  values.clear();
  ASSERT_TRUE(shared.PopMinKeyValues(&key, &values));
  EXPECT_EQ(key, "b1");
}

TEST_F(SharedTest, GroupSpansMemoryAndSpills) {
  Shared::Options options = BaseOptions();
  options.memory_limit_bytes = 64;
  Shared shared(options);
  // First adds spill; later adds for the same key stay in memory.
  shared.Add("k", std::string(100, 'a'));  // spills immediately
  shared.Add("k", "b");
  std::string key;
  std::vector<Slice> values;
  ASSERT_TRUE(shared.PopMinKeyValues(&key, &values));
  EXPECT_EQ(key, "k");
  ASSERT_EQ(values.size(), 2u);
}

// A summing combiner over decimal-string values.
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

TEST_F(SharedTest, CombinerCollapsesValues) {
  SumCombiner combiner;
  Shared::Options options = BaseOptions();
  options.combiner = &combiner;
  Shared shared(options);
  for (int i = 0; i < 100; ++i) shared.Add("k", "1");
  // Reduce-phase combining keeps one value per key.
  EXPECT_LT(shared.memory_usage(), 64u);
  auto all = DrainAll(&shared);
  EXPECT_EQ(all["k"], std::vector<std::string>{"100"});
  EXPECT_GT(metrics_.combine_input_records, 0u);
}

TEST_F(SharedTest, CombinerPreventsSpills) {
  SumCombiner combiner;
  Shared::Options options = BaseOptions();
  options.combiner = &combiner;
  options.memory_limit_bytes = 2048;
  Shared shared(options);
  // 20 keys x 1000 values: without combining this would spill many times.
  for (int i = 0; i < 20000; ++i) {
    shared.Add("key" + std::to_string(i % 20), "1");
  }
  EXPECT_EQ(metrics_.shared_spills, 0u);
  auto all = DrainAll(&shared);
  EXPECT_EQ(all.size(), 20u);
  for (const auto& [key, values] : all) {
    EXPECT_EQ(values, std::vector<std::string>{"1000"});
  }
}

TEST_F(SharedTest, SpillFilesRemovedOnDestruction) {
  Shared::Options options = BaseOptions();
  options.memory_limit_bytes = 64;
  {
    Shared shared(options);
    for (int i = 0; i < 50; ++i) {
      shared.Add("k" + std::to_string(i), std::string(40, 'z'));
    }
    EXPECT_GT(metrics_.shared_spills, 0u);
  }
  std::vector<std::string> files;
  ASSERT_TRUE(env_->ListFiles(&files).ok());
  EXPECT_TRUE(files.empty());
}

TEST_F(SharedTest, BinarySafeKeysAndValues) {
  Shared shared(BaseOptions());
  const std::string key("\x00\x01", 2);
  const std::string value("\xff\x00\xfe", 3);
  shared.Add(key, value);
  std::string popped;
  std::vector<Slice> values;
  ASSERT_TRUE(shared.PopMinKeyValues(&popped, &values));
  EXPECT_EQ(popped, key);
  EXPECT_EQ(Strings(values), std::vector<std::string>{value});
}

TEST_F(SharedTest, PeekMinKeySliceOverloadViewsInternedKey) {
  Shared shared(BaseOptions());
  shared.Add(Slice("banana"), Slice("v1"));
  shared.Add(Slice("apple"), Slice("v2"));
  Slice min;
  ASSERT_TRUE(shared.PeekMinKey(&min));
  EXPECT_EQ(min.ToString(), "apple");
  // Peek again: same interned bytes, not a fresh copy.
  Slice again;
  ASSERT_TRUE(shared.PeekMinKey(&again));
  EXPECT_EQ(again.data(), min.data());
  // The string overload agrees.
  std::string min_str;
  ASSERT_TRUE(shared.PeekMinKey(&min_str));
  EXPECT_EQ(min_str, "apple");
}

// Allocation-count regression guards. Keys are interned once and each key's
// values share one packed buffer, so adding values to an existing key
// allocates only when that buffer grows (geometrically) — not per value, and
// never for a key copy. Keys/values are 32 chars, comfortably beyond
// small-string optimization, so any per-value string would show up here.
TEST_F(SharedTest, AddToExistingKeyDoesNotCopyKey) {
  Shared shared(BaseOptions());
  const std::string key(32, 'k');
  const std::string value(32, 'v');
  // Warm up: intern the key, size the containers.
  for (int i = 0; i < 8; ++i) shared.Add(key, value);

  const uint64_t before = test_alloc::AllocationCount();
  constexpr int kAdds = 1000;
  for (int i = 0; i < kAdds; ++i) shared.Add(key, value);
  const uint64_t allocs = test_alloc::AllocationCount() - before;

  // ~33 KB of packed values: about a dozen buffer doublings. A per-value
  // string (or a per-Add key copy) would push this past kAdds.
  EXPECT_LE(allocs, 32u)
      << "per-value allocations have crept back into Shared::AddInternal";
}

TEST_F(SharedTest, PopOfLargeGroupCostsConstantAllocations) {
  Shared shared(BaseOptions());
  const std::string key(32, 'k');
  const std::string value(32, 'v');
  constexpr int kValues = 1000;
  for (int i = 0; i < kValues; ++i) shared.Add(key, value);

  std::string popped;
  popped.reserve(64);
  std::vector<Slice> values;
  const uint64_t before = test_alloc::AllocationCount();
  ASSERT_TRUE(shared.PopMinKeyValues(&popped, &values));
  const uint64_t allocs = test_alloc::AllocationCount() - before;

  ASSERT_EQ(values.size(), static_cast<size_t>(kValues));
  for (const Slice& v : values) ASSERT_EQ(v.ToString(), value);
  // The group's buffer moves into pop storage; views cost one reserve.
  EXPECT_LE(allocs, 4u) << "popping copies values one by one";
}

// A key parked far ahead of the drain cursor must not pin the bytes of every
// key popped since: the key arena is compacted down to the resident keys.
TEST_F(SharedTest, KeyArenaStaysBoundedBehindParkedKey) {
  Shared::Options options = BaseOptions();
  options.memory_limit_bytes = 1 << 20;
  Shared shared(options);
  shared.Add("zzzzzzzzzz", "v");
  shared.Add("yyyy", "w");
  std::string key;
  std::vector<Slice> values;
  constexpr int kRounds = 20000;  // 1 MB of keys if nothing is reclaimed
  for (int i = 0; i < kRounds; ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "k%049d", i);
    shared.Add(Slice(buf, 50), "v");
    values.clear();
    ASSERT_TRUE(shared.PopMinKeyValues(&key, &values));
    ASSERT_EQ(key, std::string(buf, 50));
    ASSERT_EQ(Strings(values), std::vector<std::string>{"v"});
  }
  EXPECT_EQ(shared.memory_usage(), 16u);  // the two parked keys + values
  EXPECT_EQ(metrics_.shared_spills, 0u);
  EXPECT_LE(shared.key_arena_bytes(), 4 * Arena::kDefaultChunkBytes)
      << "popped keys stay pinned in the key arena";
  // The parked keys survive compaction intact and in order.
  auto all = DrainAll(&shared);
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all["yyyy"], std::vector<std::string>{"w"});
  EXPECT_EQ(all["zzzzzzzzzz"], std::vector<std::string>{"v"});
}

// Pop views over short (inline-stored) values: a relocated small string
// would leave its views dangling, which the string compares (and ASan)
// catch.
TEST_F(SharedTest, PopViewsOfGroupSpanningManyKeys) {
  Shared shared(FirstCharGrouping(BaseOptions()));
  shared.Add("a3", "v3");
  shared.Add("a1", "v1a");
  shared.Add("a4", "v4");
  shared.Add("a2", "v2");
  shared.Add("a1", "v1b");
  shared.Add("b1", "other");
  std::string key;
  std::vector<Slice> values;
  ASSERT_TRUE(shared.PopMinKeyValues(&key, &values));
  EXPECT_EQ(key, "a1");
  EXPECT_EQ(Strings(values),
            (std::vector<std::string>{"v1a", "v1b", "v2", "v3", "v4"}));
}

TEST_F(SharedTest, PopViewsOfGroupMergedFromMemoryAndSpills) {
  Shared::Options options = FirstCharGrouping(BaseOptions());
  options.memory_limit_bytes = 24;
  Shared shared(options);
  shared.Add("a1", "s1-0123456");  // 12 bytes
  shared.Add("a2", "s2-0123456");  // 24 bytes
  shared.Add("a3", "s3-0");        // over budget: spills a1..a3
  ASSERT_EQ(metrics_.shared_spills, 1u);
  shared.Add("a1", "m1");
  shared.Add("a4", "m4");
  shared.Add("b1", "other");
  std::string key;
  std::vector<Slice> values;
  ASSERT_TRUE(shared.PopMinKeyValues(&key, &values));
  EXPECT_EQ(key, "a1");
  std::vector<std::string> got = Strings(values);
  ASSERT_EQ(got.size(), 5u);
  // Key order across keys; a1's memory and spilled values in either order.
  std::sort(got.begin(), got.begin() + 2);
  EXPECT_EQ(got, (std::vector<std::string>{"m1", "s1-0123456", "s2-0123456",
                                           "s3-0", "m4"}));
}

TEST_F(SharedTest, PopViewsSurviveLaterPeeksAndAdds) {
  Shared::Options options = FirstCharGrouping(BaseOptions());
  options.memory_limit_bytes = 64;
  Shared shared(options);
  shared.Add("a2", "two");
  shared.Add("a1", "one");
  shared.Add("c1", "three");
  std::string key;
  std::vector<Slice> values;
  ASSERT_TRUE(shared.PopMinKeyValues(&key, &values));
  ASSERT_EQ(key, "a1");
  const uint64_t spills_before = metrics_.shared_spills;
  Slice min;
  ASSERT_TRUE(shared.PeekMinKey(&min));
  for (int i = 0; i < 20; ++i) {
    shared.Add("b" + std::to_string(i), "x" + std::to_string(i));
  }
  EXPECT_GT(metrics_.shared_spills, spills_before) << "no Add spilled";
  ASSERT_TRUE(shared.PeekMinKey(&min));
  EXPECT_EQ(Strings(values), (std::vector<std::string>{"one", "two"}));
}

}  // namespace
}  // namespace anticombine
}  // namespace antimr
