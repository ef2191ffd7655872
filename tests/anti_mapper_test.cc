// Unit-level tests of AntiMapper's encoding decisions, driving it directly
// with scripted mappers and inspecting the emitted wire records.
#include "anticombine/anti_mapper.h"

#include <map>

#include <gtest/gtest.h>

#include "alloc_counter.h"
#include "anticombine/encoding.h"
#include "common/hash.h"
#include "datagen/cloud.h"
#include "datagen/qlog.h"
#include "mr/job_spec.h"
#include "mr/metrics.h"
#include "workloads/query_suggestion.h"
#include "workloads/theta_join.h"

namespace antimr {
namespace anticombine {
namespace {

// Collects the AntiMapper's emissions for inspection.
class EmitCollector : public MapContext {
 public:
  void Emit(const Slice& key, const Slice& value) override {
    emitted.push_back({key.ToString(), value.ToString()});
  }
  std::vector<KV> emitted;
};

// Emits a fixed script of records for every input.
class ScriptedMapper : public Mapper {
 public:
  explicit ScriptedMapper(std::vector<KV> script)
      : script_(std::move(script)) {}

  void Map(const Slice&, const Slice&, MapContext* ctx) override {
    for (const KV& kv : script_) ctx->Emit(kv.key, kv.value);
  }

 private:
  std::vector<KV> script_;
};

// Partition = first key character digit, mod partitions.
class DigitPartitioner : public Partitioner {
 public:
  int Partition(const Slice& key, int num_partitions) const override {
    return (key.empty() ? 0 : key[0] - '0') % num_partitions;
  }
};

struct Decoded {
  Encoding encoding;
  std::vector<std::string> other_keys;
  std::string value;        // eager
  std::string input_key;    // lazy
  std::string input_value;  // lazy
};

Decoded Decode(const KV& record) {
  Decoded d;
  Slice rest;
  EXPECT_TRUE(GetEncoding(record.value, &d.encoding, &rest).ok());
  if (d.encoding == Encoding::kEager) {
    std::vector<Slice> keys;
    Slice value;
    EXPECT_TRUE(DecodeEagerPayload(rest, &keys, &value).ok());
    for (const Slice& k : keys) d.other_keys.push_back(k.ToString());
    d.value = value.ToString();
  } else {
    Slice ik, iv;
    EXPECT_TRUE(DecodeLazyPayload(rest, &ik, &iv).ok());
    d.input_key = ik.ToString();
    d.input_value = iv.ToString();
  }
  return d;
}

class AntiMapperTest : public ::testing::Test {
 protected:
  // Run one Map call through an AntiMapper and return the emissions.
  std::vector<KV> RunOne(std::vector<KV> script,
                         const AntiCombineOptions& options,
                         const Slice& input_key, const Slice& input_value,
                         bool allow_lazy = true, int partitions = 4) {
    AntiMapper anti(
        [script]() { return std::make_unique<ScriptedMapper>(script); },
        options, allow_lazy);
    TaskInfo info;
    info.task_id = 0;
    info.num_reduce_tasks = partitions;
    info.partitioner = &partitioner_;
    info.key_cmp = BytewiseCompare;
    info.grouping_cmp = BytewiseCompare;
    info.metrics = &metrics_;
    EmitCollector collector;
    anti.Setup(info, &collector);
    anti.Map(input_key, input_value, &collector);
    anti.Cleanup(&collector);
    return collector.emitted;
  }

  DigitPartitioner partitioner_;
  JobMetrics metrics_;
};

TEST_F(AntiMapperTest, SharedValueSamePartitionBecomesOneEagerRecord) {
  // Keys 1a,1b,1c -> partition 1; same value.
  auto out = RunOne({{"1b", "v"}, {"1c", "v"}, {"1a", "v"}},
                    AntiCombineOptions::EagerOnly(), "in", "input");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].key, "1a") << "minimal key is the representative";
  Decoded d = Decode(out[0]);
  EXPECT_EQ(d.encoding, Encoding::kEager);
  EXPECT_EQ(d.other_keys, (std::vector<std::string>{"1b", "1c"}));
  EXPECT_EQ(d.value, "v");
}

TEST_F(AntiMapperTest, DifferentPartitionsDoNotShare) {
  // Same value but keys on different partitions: no sharing possible
  // (the paper's (k1,v1)/(k2,v1) example in Section 3).
  auto out = RunOne({{"1a", "v"}, {"2a", "v"}},
                    AntiCombineOptions::EagerOnly(), "in", "input");
  ASSERT_EQ(out.size(), 2u);
  for (const KV& kv : out) {
    Decoded d = Decode(kv);
    EXPECT_TRUE(d.other_keys.empty());
  }
}

TEST_F(AntiMapperTest, DistinctValuesWithinPartitionMakeSeparateGroups) {
  auto out = RunOne({{"1a", "x"}, {"1b", "y"}, {"1c", "x"}},
                    AntiCombineOptions::EagerOnly(), "in", "input");
  ASSERT_EQ(out.size(), 2u);
  std::map<std::string, Decoded> by_key;
  for (const KV& kv : out) by_key[kv.key] = Decode(kv);
  EXPECT_EQ(by_key["1a"].other_keys, std::vector<std::string>{"1c"});
  EXPECT_EQ(by_key["1a"].value, "x");
  EXPECT_TRUE(by_key["1b"].other_keys.empty());
}

TEST_F(AntiMapperTest, LazyChosenWhenSmallerThanEager) {
  // Large distinct values, tiny input record: Lazy wins the size test.
  std::vector<KV> script;
  for (int i = 0; i < 6; ++i) {
    script.push_back({"1k" + std::to_string(i),
                      "distinct-value-" + std::to_string(i) +
                          std::string(50, 'x')});
  }
  auto out = RunOne(script, AntiCombineOptions::Unrestricted(), "ik", "iv");
  ASSERT_EQ(out.size(), 1u);
  Decoded d = Decode(out[0]);
  EXPECT_EQ(d.encoding, Encoding::kLazy);
  EXPECT_EQ(d.input_key, "ik");
  EXPECT_EQ(d.input_value, "iv");
  EXPECT_EQ(out[0].key, "1k0") << "lazy record keyed by partition-min key";
}

TEST_F(AntiMapperTest, EagerChosenWhenInputIsLarge) {
  // Tiny outputs, huge input record: resending the input would be absurd.
  const std::string huge_input(1000, 'z');
  auto out = RunOne({{"1a", "x"}, {"1b", "y"}},
                    AntiCombineOptions::Unrestricted(), "ik", huge_input);
  for (const KV& kv : out) {
    EXPECT_EQ(Decode(kv).encoding, Encoding::kEager);
  }
}

TEST_F(AntiMapperTest, ThresholdZeroForbidsLazy) {
  std::vector<KV> script;
  for (int i = 0; i < 6; ++i) {
    script.push_back({"1k" + std::to_string(i),
                      "distinct" + std::to_string(i) + std::string(50, 'x')});
  }
  auto out = RunOne(script, AntiCombineOptions::EagerOnly(), "ik", "iv");
  for (const KV& kv : out) {
    EXPECT_EQ(Decode(kv).encoding, Encoding::kEager);
  }
  EXPECT_EQ(metrics_.lazy_records, 0u);
}

TEST_F(AntiMapperTest, NonDeterministicMapperForbidsLazy) {
  std::vector<KV> script;
  for (int i = 0; i < 6; ++i) {
    script.push_back({"1k" + std::to_string(i),
                      "distinct" + std::to_string(i) + std::string(50, 'x')});
  }
  auto out = RunOne(script, AntiCombineOptions::Unrestricted(), "ik", "iv",
                    /*allow_lazy=*/false);
  for (const KV& kv : out) {
    EXPECT_EQ(Decode(kv).encoding, Encoding::kEager);
  }
}

TEST_F(AntiMapperTest, ForceLazyOverridesSizeTest) {
  const std::string huge_input(1000, 'z');
  auto out = RunOne({{"1a", "x"}}, AntiCombineOptions::LazyOnly(), "ik",
                    huge_input);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(Decode(out[0]).encoding, Encoding::kLazy);
}

TEST_F(AntiMapperTest, PerPartitionChoiceIsIndependent) {
  // Partition 1: shared value (eager clearly smaller). Partition 2: large
  // distinct values (lazy clearly smaller).
  std::vector<KV> script = {{"1a", "s"}, {"1b", "s"}, {"1c", "s"}};
  for (int i = 0; i < 6; ++i) {
    script.push_back({"2k" + std::to_string(i),
                      "distinct" + std::to_string(i) + std::string(60, 'q')});
  }
  // Input sized so Lazy loses partition 1's size test but wins partition 2's.
  auto out = RunOne(script, AntiCombineOptions::Unrestricted(), "ik",
                    std::string(30, 'i'));
  int eager = 0, lazy = 0;
  for (const KV& kv : out) {
    Decoded d = Decode(kv);
    if (d.encoding == Encoding::kEager) {
      ++eager;
      EXPECT_EQ(kv.key[0], '1');
    } else {
      ++lazy;
      EXPECT_EQ(kv.key[0], '2');
    }
  }
  EXPECT_EQ(eager, 1);
  EXPECT_EQ(lazy, 1);
}

// The global-choice ablation makes one Eager/Lazy choice per encoded batch,
// and a cross-call window is one batch: the same script that splits per
// partition above must encode all-Eager or all-Lazy across a W = 4 window.
TEST_F(AntiMapperTest, GlobalChoiceHoldsForAWholeWindow) {
  std::vector<KV> script = {{"1a", "s"}, {"1b", "s"}, {"1c", "s"}};
  for (int i = 0; i < 6; ++i) {
    script.push_back({"2k" + std::to_string(i),
                      "distinct" + std::to_string(i) + std::string(60, 'q')});
  }
  AntiCombineOptions options = AntiCombineOptions::Unrestricted();
  options.per_partition_choice = false;
  options.cross_call_window = 4;
  AntiMapper anti(
      [script]() { return std::make_unique<ScriptedMapper>(script); },
      options, /*allow_lazy=*/true);
  TaskInfo info;
  info.num_reduce_tasks = 4;
  info.partitioner = &partitioner_;
  info.key_cmp = BytewiseCompare;
  info.grouping_cmp = BytewiseCompare;
  info.metrics = &metrics_;
  EmitCollector collector;
  anti.Setup(info, &collector);
  for (int call = 0; call < 4; ++call) {
    anti.Map("ik" + std::to_string(call), std::string(30, 'i'), &collector);
  }
  anti.Cleanup(&collector);
  ASSERT_FALSE(collector.emitted.empty());
  int eager = 0, lazy = 0;
  for (const KV& kv : collector.emitted) {
    (Decode(kv).encoding == Encoding::kEager ? eager : lazy) += 1;
  }
  EXPECT_TRUE(eager == 0 || lazy == 0)
      << eager << " Eager and " << lazy << " Lazy records in one window";
}

TEST_F(AntiMapperTest, SetupEmissionsAreEagerOnly) {
  // A mapper that emits during Setup has no input record to resend; even
  // with force_lazy the batch must be Eager-encoded.
  class SetupEmitter : public Mapper {
   public:
    void Setup(const TaskInfo&, MapContext* ctx) override {
      ctx->Emit("1a", std::string(200, 'v'));
      ctx->Emit("1b", std::string(200, 'v'));
    }
    void Map(const Slice&, const Slice&, MapContext*) override {}
  };
  AntiMapper anti([]() { return std::make_unique<SetupEmitter>(); },
                  AntiCombineOptions::LazyOnly(), /*allow_lazy=*/true);
  TaskInfo info;
  info.num_reduce_tasks = 4;
  info.partitioner = &partitioner_;
  info.key_cmp = BytewiseCompare;
  info.grouping_cmp = BytewiseCompare;
  info.metrics = &metrics_;
  EmitCollector collector;
  anti.Setup(info, &collector);
  anti.Cleanup(&collector);
  ASSERT_EQ(collector.emitted.size(), 1u);
  EXPECT_EQ(Decode(collector.emitted[0]).encoding, Encoding::kEager);
}

TEST_F(AntiMapperTest, MetricsCountLogicalOutput) {
  RunOne({{"1a", "v"}, {"1b", "v"}, {"2c", "w"}},
         AntiCombineOptions::EagerOnly(), "in", "input");
  EXPECT_EQ(metrics_.map_output_records, 3u);
  EXPECT_EQ(metrics_.eager_records, 1u);  // {1a,1b} collapse
  EXPECT_EQ(metrics_.plain_records, 1u);  // 2c stands alone
  EXPECT_EQ(metrics_.lazy_records, 0u);
}

// Folds every emission, in order, into one hash; allocates nothing.
class HashingCollector : public MapContext {
 public:
  void Emit(const Slice& key, const Slice& value) override {
    hash = Hash64(key, HashMix64(hash ^ key.size()));
    hash = Hash64(value, HashMix64(hash ^ value.size()));
    ++records;
  }
  uint64_t hash = 0;
  uint64_t records = 0;
};

// Query-Suggestion with the Prefix-5 partitioner, driven through one
// AdaptiveSH AntiMapper (unrestricted T, so every choice is by size).
class QuerySuggestionAntiMapperTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workloads::QuerySuggestionConfig qc;
    qc.scheme = workloads::QuerySuggestionConfig::Scheme::kPrefix5;
    qc.num_reduce_tasks = 8;
    spec_ = workloads::MakeQuerySuggestionJob(qc);
    info_.num_reduce_tasks = qc.num_reduce_tasks;
    info_.partitioner = spec_.partitioner.get();
    info_.key_cmp = spec_.key_cmp;
    info_.grouping_cmp = spec_.EffectiveGroupingCmp();
    info_.metrics = &metrics_;
    QLogConfig lc;
    lc.num_records = 20000;
    lc.seed = 42;
    input_ = QLogGenerator(lc).Generate();
  }

  JobSpec spec_;
  TaskInfo info_;
  JobMetrics metrics_;
  std::vector<KV> input_;
};

// One encoder configuration's output, pinned byte for byte: the record
// counts and the hash of the emitted (key, payload) sequence. A change to
// the encoder's code must not move a byte of them.
struct EncoderGolden {
  const char* name;
  AntiCombineOptions options;
  uint64_t plain_records;
  uint64_t eager_records;
  uint64_t lazy_records;
  uint64_t emitted;
  uint64_t hash;
};

AntiCombineOptions Window(AntiCombineOptions options, int window) {
  options.cross_call_window = window;
  return options;
}

AntiCombineOptions GlobalChoice(int window) {
  AntiCombineOptions options = Window(AntiCombineOptions::Unrestricted(),
                                      window);
  options.per_partition_choice = false;
  return options;
}

class QuerySuggestionGoldenTest
    : public QuerySuggestionAntiMapperTest,
      public ::testing::WithParamInterface<EncoderGolden> {};

TEST_P(QuerySuggestionGoldenTest, EmissionsMatchGolden) {
  const EncoderGolden& golden = GetParam();
  AntiMapper anti(spec_.mapper_factory, golden.options, /*allow_lazy=*/true);
  HashingCollector out;
  anti.Setup(info_, &out);
  for (const KV& kv : input_) anti.Map(kv.key, kv.value, &out);
  anti.Cleanup(&out);
  EXPECT_EQ(metrics_.map_output_records, 408627u);
  EXPECT_EQ(metrics_.plain_records, golden.plain_records);
  EXPECT_EQ(metrics_.eager_records, golden.eager_records);
  EXPECT_EQ(metrics_.lazy_records, golden.lazy_records);
  EXPECT_EQ(out.records, golden.emitted);
  EXPECT_EQ(out.hash, golden.hash);
}

INSTANTIATE_TEST_SUITE_P(
    Encoders, QuerySuggestionGoldenTest,
    ::testing::Values(
        EncoderGolden{"UnrestrictedW1", AntiCombineOptions::Unrestricted(),
                      59346, 5191, 20474, 85011, 0xe53720603e32984dULL},
        EncoderGolden{"UnrestrictedW8",
                      Window(AntiCombineOptions::Unrestricted(), 8), 23501,
                      4037, 55914, 83452, 0xe90d24ad5f55e13fULL},
        // A 64-call window holds one key under several values (the
        // Prefix-5 key "a" under dozens of queries), so this hash pins the
        // by-value order of EagerSH groups with equal representative keys.
        EncoderGolden{"UnrestrictedW64",
                      Window(AntiCombineOptions::Unrestricted(), 64), 1212,
                      489, 82880, 84581, 0x072262584b617079ULL},
        EncoderGolden{"LazyOnlyW1", AntiCombineOptions::LazyOnly(), 0, 0,
                      85011, 85011, 0x0c7f13b220254038ULL},
        EncoderGolden{"EagerOnlyW1", AntiCombineOptions::EagerOnly(), 59346,
                      25665, 0, 85011, 0x8663a0668e69bbecULL},
        EncoderGolden{"GlobalChoiceW1", GlobalChoice(1), 280, 82, 84649, 85011,
                      0x1416f12aae88f79eULL}),
    [](const ::testing::TestParamInfo<EncoderGolden>& info) {
      return std::string(info.param.name);
    });

// The theta-join's band self-join, pinned the same way: every record is
// replicated to rows + cols regions, so each Map call fans out to most
// partitions with one value.
class ThetaJoinGoldenTest
    : public ::testing::TestWithParam<EncoderGolden> {};

TEST_P(ThetaJoinGoldenTest, EmissionsMatchGolden) {
  const EncoderGolden& golden = GetParam();
  workloads::ThetaJoinConfig tc;
  tc.num_reduce_tasks = 8;
  const JobSpec spec = workloads::MakeThetaJoinJob(tc);
  JobMetrics metrics;
  TaskInfo info;
  info.num_reduce_tasks = tc.num_reduce_tasks;
  info.partitioner = spec.partitioner.get();
  info.key_cmp = spec.key_cmp;
  info.grouping_cmp = spec.EffectiveGroupingCmp();
  info.metrics = &metrics;
  CloudConfig cc;
  cc.num_records = 3000;
  cc.seed = 42;
  const std::vector<KV> input = CloudGenerator(cc).Generate();

  AntiMapper anti(spec.mapper_factory, golden.options, /*allow_lazy=*/true);
  HashingCollector out;
  anti.Setup(info, &out);
  for (const KV& kv : input) anti.Map(kv.key, kv.value, &out);
  anti.Cleanup(&out);
  EXPECT_EQ(metrics.plain_records, golden.plain_records);
  EXPECT_EQ(metrics.eager_records, golden.eager_records);
  EXPECT_EQ(metrics.lazy_records, golden.lazy_records);
  EXPECT_EQ(out.records, golden.emitted);
  EXPECT_EQ(out.hash, golden.hash);
}

INSTANTIATE_TEST_SUITE_P(
    Encoders, ThetaJoinGoldenTest,
    ::testing::Values(
        EncoderGolden{"UnrestrictedW1", AntiCombineOptions::Unrestricted(),
                      4851, 0, 18841, 23692, 0x512ef6ecf10aa1f5ULL},
        EncoderGolden{"UnrestrictedW8",
                      Window(AntiCombineOptions::Unrestricted(), 8), 0, 0,
                      23692, 23692, 0xfc5e920a978bc842ULL},
        EncoderGolden{"LazyOnlyW1", AntiCombineOptions::LazyOnly(), 0, 0,
                      23692, 23692, 0x00ec9eef9a536083ULL},
        EncoderGolden{"EagerOnlyW1", AntiCombineOptions::EagerOnly(), 35892,
                      6054, 0, 41946, 0xd85b94c6eae93517ULL}),
    [](const ::testing::TestParamInfo<EncoderGolden>& info) {
      return std::string(info.param.name);
    });

// Once warmed up, a Map call reuses the capture arena and the encoder's
// plan, group and key scratch: it allocates at most a small constant,
// whatever its fan-out.
TEST_F(QuerySuggestionAntiMapperTest, WarmMapCallAllocatesAtMostAConstant) {
  AntiMapper anti(spec_.mapper_factory, AntiCombineOptions::Unrestricted(),
                  /*allow_lazy=*/true);
  HashingCollector out;
  anti.Setup(info_, &out);
  for (size_t i = 0; i < 2000; ++i) {
    anti.Map(input_[i].key, input_[i].value, &out);
  }
  const uint64_t records_before = out.records;
  const uint64_t before = test_alloc::AllocationCount();
  constexpr size_t kCalls = 1000;
  for (size_t i = 0; i < kCalls; ++i) {
    anti.Map(input_[i].key, input_[i].value, &out);
  }
  const uint64_t allocs = test_alloc::AllocationCount() - before;
  ASSERT_GT(out.records - records_before, kCalls) << "no fan-out exercised";
  EXPECT_LE(allocs, 4u) << "AntiMapper::Map allocates per call";
  anti.Cleanup(&out);
}

}  // namespace
}  // namespace anticombine
}  // namespace antimr
