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
      EXPECT_TRUE(shared->PopMinKeyValues(&group_key, &values).ok());
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
  EXPECT_TRUE(shared.PopMinKeyValues(&key, &values).IsNotFound());
}

TEST_F(SharedTest, SingleRecord) {
  Shared shared(BaseOptions());
  ASSERT_TRUE(shared.Add("k", "v").ok());
  std::string key;
  ASSERT_TRUE(shared.PeekMinKey(&key));
  EXPECT_EQ(key, "k");
  auto all = DrainAll(&shared);
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all["k"], std::vector<std::string>{"v"});
}

TEST_F(SharedTest, PopsInKeyOrder) {
  Shared shared(BaseOptions());
  ASSERT_TRUE(shared.Add("delta", "4").ok());
  ASSERT_TRUE(shared.Add("alpha", "1").ok());
  ASSERT_TRUE(shared.Add("charlie", "3").ok());
  ASSERT_TRUE(shared.Add("bravo", "2").ok());
  auto all = DrainAll(&shared);  // DrainAll asserts ordering
  EXPECT_EQ(all.size(), 4u);
}

TEST_F(SharedTest, MultipleValuesPerKey) {
  Shared shared(BaseOptions());
  ASSERT_TRUE(shared.Add("k", "1").ok());
  ASSERT_TRUE(shared.Add("k", "2").ok());
  ASSERT_TRUE(shared.Add("k", "3").ok());
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
    ASSERT_TRUE(shared.Add(key, value).ok());
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
    ASSERT_TRUE(
        shared.Add("k" + std::to_string(i % 50), std::string(20, 'x')).ok());
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
  ASSERT_TRUE(shared.Add("b", "b1").ok());
  ASSERT_TRUE(shared.Add("d", "d1").ok());
  std::string key;
  std::vector<Slice> values;
  ASSERT_TRUE(shared.PopMinKeyValues(&key, &values).ok());
  EXPECT_EQ(key, "b");
  // Add keys after popping; they must surface in order.
  ASSERT_TRUE(shared.Add("c", "c1").ok());
  ASSERT_TRUE(shared.Add("e", "e1").ok());
  values.clear();
  ASSERT_TRUE(shared.PopMinKeyValues(&key, &values).ok());
  EXPECT_EQ(key, "c");
  values.clear();
  ASSERT_TRUE(shared.PopMinKeyValues(&key, &values).ok());
  EXPECT_EQ(key, "d");
  values.clear();
  ASSERT_TRUE(shared.PopMinKeyValues(&key, &values).ok());
  EXPECT_EQ(key, "e");
  EXPECT_TRUE(shared.Empty());
}

TEST_F(SharedTest, ReAddingPoppedKeyWorks) {
  Shared shared(BaseOptions());
  ASSERT_TRUE(shared.Add("k", "1").ok());
  std::string key;
  std::vector<Slice> values;
  ASSERT_TRUE(shared.PopMinKeyValues(&key, &values).ok());
  ASSERT_TRUE(shared.Add("k", "2").ok());
  values.clear();
  ASSERT_TRUE(shared.PopMinKeyValues(&key, &values).ok());
  EXPECT_EQ(Strings(values), std::vector<std::string>{"2"});
}

TEST_F(SharedTest, GroupingComparatorMergesKeys) {
  Shared shared(FirstCharGrouping(BaseOptions()));
  ASSERT_TRUE(shared.Add("a2", "second").ok());
  ASSERT_TRUE(shared.Add("a1", "first").ok());
  ASSERT_TRUE(shared.Add("b1", "other").ok());
  std::string key;
  std::vector<Slice> values;
  ASSERT_TRUE(shared.PopMinKeyValues(&key, &values).ok());
  EXPECT_EQ(key, "a1");
  // Values of a1 and a2, in key order.
  EXPECT_EQ(Strings(values), (std::vector<std::string>{"first", "second"}));
  values.clear();
  ASSERT_TRUE(shared.PopMinKeyValues(&key, &values).ok());
  EXPECT_EQ(key, "b1");
}

TEST_F(SharedTest, GroupSpansMemoryAndSpills) {
  Shared::Options options = BaseOptions();
  options.memory_limit_bytes = 64;
  Shared shared(options);
  // First adds spill; later adds for the same key stay in memory.
  // Spills immediately.
  ASSERT_TRUE(shared.Add("k", std::string(100, 'a')).ok());
  ASSERT_TRUE(shared.Add("k", "b").ok());
  std::string key;
  std::vector<Slice> values;
  ASSERT_TRUE(shared.PopMinKeyValues(&key, &values).ok());
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
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(shared.Add("k", "1").ok());
  // Reduce-phase combining keeps one value per key.
  EXPECT_LT(shared.memory_usage(), 64u);
  auto all = DrainAll(&shared);
  EXPECT_EQ(all["k"], std::vector<std::string>{"100"});
  // Shared's combines count in their own pair, not the map-side one.
  EXPECT_GT(metrics_.shared_combine_input_records, 0u);
  EXPECT_GT(metrics_.shared_combine_output_records, 0u);
  EXPECT_EQ(metrics_.combine_input_records, 0u);
  EXPECT_EQ(metrics_.combine_output_records, 0u);
}

TEST_F(SharedTest, CombinerPreventsSpills) {
  SumCombiner combiner;
  Shared::Options options = BaseOptions();
  options.combiner = &combiner;
  options.memory_limit_bytes = 2048;
  Shared shared(options);
  // 20 keys x 1000 values: without combining this would spill many times.
  for (int i = 0; i < 20000; ++i) {
    ASSERT_TRUE(shared.Add("key" + std::to_string(i % 20), "1").ok());
  }
  EXPECT_EQ(metrics_.shared_spills, 0u);
  auto all = DrainAll(&shared);
  EXPECT_EQ(all.size(), 20u);
  for (const auto& [key, values] : all) {
    EXPECT_EQ(values, std::vector<std::string>{"1000"});
  }
}

// Each combine replaces a key's values with new ones; with no pop in
// between, the dead ones must still be compacted away, or the value arena
// would grow with every Add while memory_usage() stays small.
TEST_F(SharedTest, CombinerGarbageIsCompactedBetweenPops) {
  SumCombiner combiner;
  Shared::Options options = BaseOptions();
  options.combiner = &combiner;
  Shared shared(options);
  constexpr int kAdds = 200000;  // 1.2 MB of combiner outputs
  for (int i = 0; i < kAdds; ++i) {
    ASSERT_TRUE(shared.Add("key" + std::to_string(i % 20), "1").ok());
  }
  EXPECT_EQ(metrics_.shared_spills, 0u);
  EXPECT_LE(shared.value_store_bytes(), 4 * Arena::kDefaultChunkBytes + 4096)
      << "dead combiner inputs stay in the value arena";
  auto all = DrainAll(&shared);
  ASSERT_EQ(all.size(), 20u);
  for (const auto& [key, values] : all) {
    long total = 0;
    for (const std::string& v : values) total += std::stol(v);
    EXPECT_EQ(total, kAdds / 20) << key;
  }
}

TEST_F(SharedTest, SpillFilesRemovedOnDestruction) {
  Shared::Options options = BaseOptions();
  options.memory_limit_bytes = 64;
  {
    Shared shared(options);
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(
          shared.Add("k" + std::to_string(i), std::string(40, 'z')).ok());
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
  ASSERT_TRUE(shared.Add(key, value).ok());
  std::string popped;
  std::vector<Slice> values;
  ASSERT_TRUE(shared.PopMinKeyValues(&popped, &values).ok());
  EXPECT_EQ(popped, key);
  EXPECT_EQ(Strings(values), std::vector<std::string>{value});
}

TEST_F(SharedTest, PeekMinKeySliceOverloadViewsInternedKey) {
  Shared shared(BaseOptions());
  ASSERT_TRUE(shared.Add(Slice("banana"), Slice("v1")).ok());
  ASSERT_TRUE(shared.Add(Slice("apple"), Slice("v2")).ok());
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
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(shared.Add(key, value).ok());

  const uint64_t before = test_alloc::AllocationCount();
  constexpr int kAdds = 1000;
  for (int i = 0; i < kAdds; ++i) ASSERT_TRUE(shared.Add(key, value).ok());
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
  for (int i = 0; i < kValues; ++i) ASSERT_TRUE(shared.Add(key, value).ok());

  std::string popped;
  popped.reserve(64);
  std::vector<Slice> values;
  const uint64_t before = test_alloc::AllocationCount();
  ASSERT_TRUE(shared.PopMinKeyValues(&popped, &values).ok());
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
  ASSERT_TRUE(shared.Add("zzzzzzzzzz", "v").ok());
  ASSERT_TRUE(shared.Add("yyyy", "w").ok());
  std::string key;
  std::vector<Slice> values;
  constexpr int kRounds = 20000;  // 1 MB of keys if nothing is reclaimed
  for (int i = 0; i < kRounds; ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "k%049d", i);
    ASSERT_TRUE(shared.Add(Slice(buf, 50), "v").ok());
    values.clear();
    ASSERT_TRUE(shared.PopMinKeyValues(&key, &values).ok());
    ASSERT_EQ(key, std::string(buf, 50));
    ASSERT_EQ(Strings(values), std::vector<std::string>{"v"});
  }
  // The two parked keys and values, each value with its slot and reference.
  EXPECT_EQ(shared.memory_usage(),
            16u + 2 * (Shared::kValueSlotBytes + Shared::kReferenceBytes));
  EXPECT_EQ(metrics_.shared_spills, 0u);
  EXPECT_LE(shared.key_arena_bytes(), 4 * Arena::kDefaultChunkBytes)
      << "popped keys stay pinned in the key arena";
  // The parked keys survive compaction intact and in order.
  auto all = DrainAll(&shared);
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all["yyyy"], std::vector<std::string>{"w"});
  EXPECT_EQ(all["zzzzzzzzzz"], std::vector<std::string>{"v"});
}

// The value-store twin of KeyArenaStaysBoundedBehindParkedKey: a value
// still referenced by a parked key must not pin the values popped since.
// The parked value is shared with a key popped at once, as an EagerSH
// record's value is.
TEST_F(SharedTest, ValueStoreStaysBoundedBehindParkedValue) {
  Shared::Options options = BaseOptions();
  options.memory_limit_bytes = 1 << 20;
  Shared shared(options);
  const std::string parked_value(40, 'p');
  const RecordRef eager[] = {{"a", parked_value}, {"zzzz", parked_value}};
  ASSERT_TRUE(shared.Add(eager).ok());
  std::string key;
  std::vector<Slice> values;
  ASSERT_TRUE(shared.PopMinKeyValues(&key, &values).ok());
  ASSERT_EQ(key, "a");
  constexpr int kRounds = 20000;  // 1 MB of values if nothing is reclaimed
  for (int i = 0; i < kRounds; ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "v%049d", i);
    ASSERT_TRUE(shared.Add("k", Slice(buf, 50)).ok());
    values.clear();
    ASSERT_TRUE(shared.PopMinKeyValues(&key, &values).ok());
    ASSERT_EQ(key, "k");
    ASSERT_EQ(Strings(values), std::vector<std::string>{std::string(buf, 50)});
  }
  // The parked key, its value (stored once), its slot and one reference.
  EXPECT_EQ(shared.memory_usage(),
            4 + 40 + Shared::kValueSlotBytes + Shared::kReferenceBytes);
  EXPECT_EQ(metrics_.shared_spills, 0u);
  // Two value arenas of at most two chunks each, and two slots.
  EXPECT_LE(shared.value_store_bytes(),
            4 * Arena::kDefaultChunkBytes + 2 * Shared::kValueSlotBytes)
      << "popped values stay pinned in the value arena";
  auto all = DrainAll(&shared);
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all["zzzz"], std::vector<std::string>{parked_value});
}

// memory_usage() is what Shared spills on, so it must track what Shared
// really holds: the key arena, the value store (arenas and slots) and the
// value-id vectors. Filled with EagerSH-shaped calls (a value under six
// keys) and single records, the resident bytes stay within the charged
// bytes plus the slack of arena chunks and of vectors that grow by doubling.
TEST_F(SharedTest, ResidentBytesTrackMemoryUsage) {
  Shared::Options options = BaseOptions();
  options.memory_limit_bytes = size_t{1} << 30;
  Shared shared(options);
  constexpr size_t kCalls = 20000;
  for (size_t i = 0; i < kCalls; ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "value-%040zu", i);
    std::vector<std::string> keys;
    for (size_t k = 0; k < 6; ++k) {
      keys.push_back("key" + std::to_string((i * 7 + k * 131) % 5000));
    }
    std::vector<RecordRef> records;
    for (const std::string& k : keys) records.emplace_back(k, Slice(value));
    ASSERT_TRUE(shared.Add(records).ok());
    ASSERT_TRUE(shared.Add(keys[0], Slice(value, 20)).ok());
  }
  ASSERT_EQ(metrics_.shared_spills, 0u);
  const size_t stored_values = 2 * kCalls;
  const size_t references = 7 * kCalls;
  const size_t resident = shared.key_arena_bytes() +
                          shared.value_store_bytes() +
                          shared.reference_bytes();
  const size_t charged = shared.memory_usage();
  // Resident beyond the charge: a partly used chunk per arena, and slots
  // the slot vector reserved by doubling.
  EXPECT_LE(resident, charged + 3 * Arena::kDefaultChunkBytes +
                          stored_values * Shared::kValueSlotBytes)
      << "resident " << resident << " charged " << charged;
  // Charged beyond resident: at most the 4 bytes per reference an id
  // vector has not yet reserved.
  EXPECT_LE(charged, resident + references * sizeof(uint32_t))
      << "resident " << resident << " charged " << charged;
  // One copy per decode call: 46 + 20 value bytes per call, not 6 x 46 + 20.
  EXPECT_LT(charged, kCalls * (6 * 46 + 20));
}

// Pop views over short (inline-stored) values: a relocated small string
// would leave its views dangling, which the string compares (and ASan)
// catch.
TEST_F(SharedTest, PopViewsOfGroupSpanningManyKeys) {
  Shared shared(FirstCharGrouping(BaseOptions()));
  ASSERT_TRUE(shared.Add("a3", "v3").ok());
  ASSERT_TRUE(shared.Add("a1", "v1a").ok());
  ASSERT_TRUE(shared.Add("a4", "v4").ok());
  ASSERT_TRUE(shared.Add("a2", "v2").ok());
  ASSERT_TRUE(shared.Add("a1", "v1b").ok());
  ASSERT_TRUE(shared.Add("b1", "other").ok());
  std::string key;
  std::vector<Slice> values;
  ASSERT_TRUE(shared.PopMinKeyValues(&key, &values).ok());
  EXPECT_EQ(key, "a1");
  EXPECT_EQ(Strings(values),
            (std::vector<std::string>{"v1a", "v1b", "v2", "v3", "v4"}));
}

TEST_F(SharedTest, PopViewsOfGroupMergedFromMemoryAndSpills) {
  Shared::Options options = FirstCharGrouping(BaseOptions());
  // A record costs its key and value bytes plus a slot and a reference.
  const size_t per_record = Shared::kValueSlotBytes + Shared::kReferenceBytes;
  options.memory_limit_bytes = 2 * (12 + per_record) + (6 + per_record) - 1;
  Shared shared(options);
  ASSERT_TRUE(shared.Add("a1", "s1-0123456").ok());  // 12 + per_record
  ASSERT_TRUE(shared.Add("a2", "s2-0123456").ok());
  ASSERT_TRUE(shared.Add("a3", "s3-0").ok());  // over budget: spills a1..a3
  ASSERT_EQ(metrics_.shared_spills, 1u);
  ASSERT_TRUE(shared.Add("a1", "m1").ok());
  ASSERT_TRUE(shared.Add("a4", "m4").ok());
  ASSERT_TRUE(shared.Add("b1", "other").ok());
  std::string key;
  std::vector<Slice> values;
  ASSERT_TRUE(shared.PopMinKeyValues(&key, &values).ok());
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
  options.memory_limit_bytes = 128;
  Shared shared(options);
  ASSERT_TRUE(shared.Add("a2", "two").ok());
  ASSERT_TRUE(shared.Add("a1", "one").ok());
  ASSERT_TRUE(shared.Add("c1", "three").ok());
  // The popped views must point into Shared's memory, not a spill merge.
  ASSERT_EQ(metrics_.shared_spills, 0u);
  std::string key;
  std::vector<Slice> values;
  ASSERT_TRUE(shared.PopMinKeyValues(&key, &values).ok());
  ASSERT_EQ(key, "a1");
  const uint64_t spills_before = metrics_.shared_spills;
  Slice min;
  ASSERT_TRUE(shared.PeekMinKey(&min));
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        shared.Add("b" + std::to_string(i), "x" + std::to_string(i)).ok());
  }
  EXPECT_GT(metrics_.shared_spills, spills_before) << "no Add spilled";
  ASSERT_TRUE(shared.PeekMinKey(&min));
  EXPECT_EQ(Strings(values), (std::vector<std::string>{"one", "two"}));
}

// A pop that compacts the value arena retires the arena its views point
// into; a spill before the next pop must not clear that arena and refill
// it.
TEST_F(SharedTest, PopViewsSurviveCompactionThenSpill) {
  Shared::Options options = BaseOptions();
  options.memory_limit_bytes = 128 * 1024;
  Shared shared(options);
  ASSERT_TRUE(shared.Add("zzzz", "parked").ok());
  std::string key;
  std::vector<Slice> values;
  // 60 KiB of dead value bytes: not yet worth a compaction.
  ASSERT_TRUE(shared.Add("k", std::string(60 * 1024, 'a')).ok());
  ASSERT_TRUE(shared.PopMinKeyValues(&key, &values).ok());
  // Another 10 KiB dead after this pop: it compacts.
  const std::string popped(10 * 1024, 'b');
  ASSERT_TRUE(shared.Add("k", popped).ok());
  values.clear();
  ASSERT_TRUE(shared.PopMinKeyValues(&key, &values).ok());
  // Over budget: spills, then refills the value arena.
  ASSERT_TRUE(shared.Add("m", std::string(130 * 1024, 'c')).ok());
  ASSERT_EQ(metrics_.shared_spills, 1u);
  ASSERT_TRUE(shared.Add("n", std::string(60 * 1024, 'd')).ok());
  ASSERT_TRUE(shared.Add("o", std::string(20 * 1024, 'e')).ok());
  ASSERT_EQ(metrics_.shared_spills, 1u);
  ASSERT_EQ(values.size(), 1u);
  EXPECT_TRUE(values[0] == Slice(popped)) << "a pop view was overwritten";
}

// Drives the index through several growths (16 slots up to thousands) with
// pops, spills and re-adds of popped keys in between, so freed slab entries
// are reused and backward-shift deletion runs inside long probe runs. Every
// value must come back once, under its key, in key order.
TEST_F(SharedTest, IndexGrowthWithInterleavedPopsSpillsAndReAdds) {
  Shared::Options options = BaseOptions();
  options.memory_limit_bytes = 48 * 1024;
  Shared shared(options);
  std::map<std::string, std::vector<std::string>> expected;
  auto add = [&](int k, int round) {
    char key[16];
    std::snprintf(key, sizeof(key), "key%05d", k);
    const std::string value = "v" + std::to_string(round);
    ASSERT_TRUE(shared.Add(key, value).ok());
    expected[key].push_back(value);
  };
  std::string key;
  std::vector<Slice> values;
  for (int round = 0; round < 6; ++round) {
    // Each round adds more keys than the last, in a scattered order, then
    // pops a few groups from the front; the popped keys reappear next round.
    const int keys = 500 << round;
    for (int i = 0; i < keys; ++i) add((i * 7919) % keys, round);
    for (int i = 0; i < 50; ++i) {
      values.clear();
      ASSERT_TRUE(shared.PopMinKeyValues(&key, &values).ok());
      ASSERT_EQ(key, expected.begin()->first);
      std::vector<std::string> got = Strings(values);
      std::vector<std::string> want = expected.begin()->second;
      std::sort(got.begin(), got.end());
      std::sort(want.begin(), want.end());
      ASSERT_EQ(got, want) << key;
      expected.erase(expected.begin());
    }
  }
  EXPECT_GE(metrics_.shared_spills, 3u) << "never spilled";
  auto all = DrainAll(&shared);
  ASSERT_EQ(all.size(), expected.size());
  for (auto& [k, want] : expected) {
    std::vector<std::string> got = all[k];
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    ASSERT_EQ(got, want) << k;
  }
}

}  // namespace
}  // namespace anticombine
}  // namespace antimr
