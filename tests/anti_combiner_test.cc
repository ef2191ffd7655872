// Unit tests of AntiCombiner: decoding encoded records in the map-side
// combine pass, applying the original Combiner, and re-encoding with
// cross-key EagerSH value groups.
#include <map>
#include <string>

#include <gtest/gtest.h>

#include "anticombine/anti_reducer.h"
#include "anticombine/encoding.h"
#include "anticombine/transform.h"
#include "datagen/qlog.h"
#include "datagen/random_text.h"
#include "engine/job_service.h"
#include "mr/metrics.h"
#include "mr/reduce_task.h"
#include "test_util.h"
#include "workloads/query_suggestion.h"
#include "workloads/wordcount.h"

namespace antimr {
namespace anticombine {
namespace {

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

class NopMapper : public Mapper {
 public:
  void Map(const Slice&, const Slice&, MapContext*) override {}
};

class KeyedPayloadIterator : public ValueIterator {
 public:
  explicit KeyedPayloadIterator(std::vector<KV> items)
      : items_(std::move(items)) {}
  bool Next(Slice* value) override {
    if (pos_ >= items_.size()) return false;
    *value = items_[pos_].value;
    ++pos_;
    return true;
  }
  Slice key() const override { return items_[pos_ - 1].key; }

 private:
  std::vector<KV> items_;
  size_t pos_ = 0;
};

std::string Eager(const std::vector<std::string>& other_keys,
                  const std::string& value) {
  std::vector<Slice> keys(other_keys.begin(), other_keys.end());
  std::string payload;
  EncodeEagerPayload(keys, value, &payload);
  return payload;
}

std::string Lazy(const std::string& input_key,
                 const std::string& input_value) {
  std::string payload;
  EncodeLazyPayload(input_key, input_value, &payload);
  return payload;
}

struct DecodedOut {
  std::vector<std::string> keys;  // rep + others, rep first
  std::string value;
};

DecodedOut DecodeOut(const KV& record) {
  DecodedOut out;
  Encoding encoding;
  Slice rest;
  EXPECT_TRUE(GetEncoding(record.value, &encoding, &rest).ok());
  EXPECT_EQ(encoding, Encoding::kEager) << "AntiCombiner re-encodes eagerly";
  std::vector<Slice> others;
  Slice value;
  EXPECT_TRUE(DecodeEagerPayload(rest, &others, &value).ok());
  out.keys.push_back(record.key);
  for (const Slice& k : others) out.keys.push_back(k.ToString());
  out.value = value.ToString();
  return out;
}

class AntiCombinerTest : public ::testing::Test {
 protected:
  std::vector<KV> Run(const std::vector<std::vector<KV>>& groups) {
    AntiCombiner combiner([]() { return std::make_unique<SumCombiner>(); },
                          mapper_factory_);
    TaskInfo info;
    info.num_reduce_tasks = num_partitions_;
    info.shuffle_partition = partition_;
    info.partitioner = partitioner_;
    info.key_cmp = BytewiseCompare;
    info.grouping_cmp = BytewiseCompare;
    info.metrics = &metrics_;
    std::vector<KV> out;
    OutputSink ctx = testing::CollectingSink(&out);
    combiner.Setup(info, &ctx);
    for (const auto& group : groups) {
      KeyedPayloadIterator it(group);
      combiner.Reduce(group.front().key, &it, &ctx);
    }
    combiner.Cleanup(&ctx);
    return out;
  }

  JobMetrics metrics_;
  MapperFactory mapper_factory_ = []() {
    return std::make_unique<NopMapper>();
  };
  HashPartitioner hash_partitioner_;
  testing::DigitPartitioner digit_partitioner_;
  const Partitioner* partitioner_ = &hash_partitioner_;
  int num_partitions_ = 1;
  int partition_ = 0;
};

TEST_F(AntiCombinerTest, CombinesDecodedValuesPerKey) {
  auto out = Run({{{"a", Eager({}, "1")}, {"a", Eager({}, "2")}},
                  {{"b", Eager({}, "5")}}});
  ASSERT_EQ(out.size(), 2u);
  std::map<std::string, std::string> values;
  for (const KV& kv : out) values[kv.key] = DecodeOut(kv).value;
  EXPECT_EQ(values["a"], "3");
  EXPECT_EQ(values["b"], "5");
}

TEST_F(AntiCombinerTest, EncodedKeysAreExpandedBeforeCombining) {
  // (a, ({b, c}, 2)) stands for a=2, b=2, c=2; combining each key alone.
  auto out = Run({{{"a", Eager({"b", "c"}, "2")}}});
  // All three keys combine to "2" — identical values — so the re-encoder
  // collapses them back into ONE eager record spanning the keys.
  ASSERT_EQ(out.size(), 1u);
  DecodedOut d = DecodeOut(out[0]);
  EXPECT_EQ(d.value, "2");
  EXPECT_EQ(d.keys, (std::vector<std::string>{"a", "b", "c"}));
}

TEST_F(AntiCombinerTest, CrossKeyValueGroupingAfterCombine) {
  // WordCount shape: x=1+1, y=2, z=1+1 -> combined x=2, y=2, z=2: one
  // record for all three keys.
  auto out = Run({{{"x", Eager({}, "1")}, {"x", Eager({}, "1")}},
                  {{"y", Eager({}, "2")}},
                  {{"z", Eager({}, "1")}, {"z", Eager({}, "1")}}});
  ASSERT_EQ(out.size(), 1u);
  DecodedOut d = DecodeOut(out[0]);
  EXPECT_EQ(d.value, "2");
  EXPECT_EQ(d.keys, (std::vector<std::string>{"x", "y", "z"}));
}

TEST_F(AntiCombinerTest, OutputIsKeySorted) {
  auto out = Run({{{"d", Eager({}, "4")}},
                  {{"m", Eager({}, "13")}},
                  {{"z", Eager({}, "26")}}});
  ASSERT_EQ(out.size(), 3u);
  for (size_t i = 1; i < out.size(); ++i) {
    EXPECT_LT(out[i - 1].key, out[i].key)
        << "segments must stay merge-compatible";
  }
}

// The re-executed Map emits to partitions 1, 2 and 3; only partition 1's
// records are combined, and each is copied at Emit (ScriptedMapper
// overwrites it right after).
TEST_F(AntiCombinerTest, LazyRemapCombinesOnlyThisPartitionCopiedAtEmit) {
  mapper_factory_ = []() {
    return std::make_unique<testing::ScriptedMapper>();
  };
  partitioner_ = &digit_partitioner_;
  num_partitions_ = 4;
  partition_ = 1;
  auto out = Run({{{"1a", Lazy("ik", "1a:1 2b:5 1c:2 3d:7")},
                   {"1a", Lazy("ik2", "2b:2 1a:3 1c:1")}}});
  EXPECT_EQ(metrics_.remap_calls, 2u);
  // 1a = 1 + 3 and 1c = 2 + 1; 2b and 3d belong to other partitions.
  ASSERT_EQ(out.size(), 2u);
  std::map<std::string, std::string> values;
  for (const KV& kv : out) {
    const DecodedOut d = DecodeOut(kv);
    ASSERT_EQ(d.keys.size(), 1u);
    values[d.keys[0]] = d.value;
  }
  EXPECT_EQ(values, (std::map<std::string, std::string>{{"1a", "4"},
                                                        {"1c", "3"}}));
}

TEST_F(AntiCombinerTest, EmptyPassEmitsNothing) {
  EXPECT_TRUE(Run({}).empty());
}

// What a map-side combine pass produced over every partition of one map
// task's encoded output.
struct CombinedSegments {
  uint64_t records = 0;
  uint64_t multiset_hash = 0;  ///< order-free hash of (key, payload)
  uint64_t ordered_hash = 0;   ///< hash of the emitted sequence, in order
  JobMetrics metrics;          ///< what the combine passes counted
};

// Encode `input` as one AdaptiveSH map task of `original`, key-sort each
// partition's records as the map-output buffer does, and run the job's
// AntiCombiner over each partition's segment through ApplyCombiner.
CombinedSegments CombineEncodedSegments(const JobSpec& original,
                                        const std::vector<KV>& input) {
  const JobSpec spec =
      EnableAntiCombining(original, AntiCombineOptions::Unrestricted());
  const int partitions = spec.num_reduce_tasks;
  CombinedSegments result;
  JobMetrics map_metrics;
  TaskInfo info;
  info.num_reduce_tasks = partitions;
  info.partitioner = spec.partitioner.get();
  info.key_cmp = spec.key_cmp;
  info.grouping_cmp = spec.EffectiveGroupingCmp();
  info.metrics = &map_metrics;

  // Routes each encoded record to its partition's segment.
  class SegmentCollector : public MapContext {
   public:
    SegmentCollector(const Partitioner* partitioner, int partitions)
        : partitioner_(partitioner), segments(partitions) {}
    void Emit(const Slice& key, const Slice& value) override {
      segments[partitioner_->Partition(key, static_cast<int>(
                                                segments.size()))]
          .push_back({key.ToString(), value.ToString()});
    }
    const Partitioner* partitioner_;
    std::vector<std::vector<KV>> segments;
  };
  SegmentCollector collect(spec.partitioner.get(), partitions);
  std::unique_ptr<Mapper> mapper = spec.mapper_factory();
  mapper->Setup(info, &collect);
  for (const KV& kv : input) mapper->Map(kv.key, kv.value, &collect);
  mapper->Cleanup(&collect);
  std::vector<std::vector<KV>>& segments = collect.segments;

  info.metrics = &result.metrics;
  for (int p = 0; p < partitions; ++p) {
    std::stable_sort(segments[p].begin(), segments[p].end(),
                     [&](const KV& a, const KV& b) {
                       return spec.key_cmp(a.key, b.key) < 0;
                     });
    info.shuffle_partition = p;
    testing::KVVectorStream stream(&segments[p]);
    std::vector<KV> combined;
    OutputSink sink = testing::CollectingSink(&combined);
    GroupRunStats stats;
    const Status st = ApplyCombiner(spec, info, &stream, &sink, &stats);
    EXPECT_TRUE(st.ok()) << st.ToString();
    result.records += combined.size();
    result.multiset_hash += engine::OutputMultisetHash(combined);
    for (const KV& kv : combined) {
      result.ordered_hash = Hash64(
          kv.key, HashMix64(result.ordered_hash ^ kv.key.size()));
      result.ordered_hash = Hash64(
          kv.value, HashMix64(result.ordered_hash ^ kv.value.size()));
    }
  }
  return result;
}

// The map-side combine's output over a real encoded segment, pinned so a
// change to the AntiCombiner's code moves no record. Query-Suggestion's
// combiner emits several records per key, so groups with equal
// representative keys occur; the multiset is pinned.
TEST(AntiCombinerGolden, QuerySuggestionPrefix5) {
  workloads::QuerySuggestionConfig qc;
  qc.scheme = workloads::QuerySuggestionConfig::Scheme::kPrefix5;
  qc.with_combiner = true;
  QLogConfig lc;
  lc.num_records = 5000;
  lc.seed = 42;
  const CombinedSegments out = CombineEncodedSegments(
      workloads::MakeQuerySuggestionJob(qc), QLogGenerator(lc).Generate());
  EXPECT_EQ(out.records, 8439u);
  EXPECT_EQ(out.multiset_hash, 0x5e16b5f32825885aULL);
  EXPECT_EQ(out.metrics.remap_calls, 5119u);
  EXPECT_EQ(out.metrics.plain_records, 0u);
  EXPECT_EQ(out.metrics.eager_records, 0u);
}

// WordCount's combiner emits one record per key, so every EagerSH group
// has its own representative key and the emission order is pinned too.
TEST(AntiCombinerGolden, WordCount) {
  RandomTextConfig rc;
  rc.num_lines = 2000;
  rc.seed = 42;
  const CombinedSegments out =
      CombineEncodedSegments(workloads::MakeWordCountJob({}),
                             RandomTextGenerator(rc).Generate());
  EXPECT_EQ(out.records, 237u);
  EXPECT_EQ(out.multiset_hash, 0xcb94acbabb1b3574ULL);
  EXPECT_EQ(out.ordered_hash, 0x024ebf27ae3779f8ULL);
  EXPECT_EQ(out.metrics.remap_calls, 0u);
  EXPECT_EQ(out.metrics.plain_records, 0u);
  EXPECT_EQ(out.metrics.eager_records, 0u);
}

// The map segments of an anti-combined job with map-phase combining whose
// tasks spill three or more times, so the AntiCombiner's EagerSH output is
// written on every spill and again on the map-side merge. Recorded when a
// combine's output was still collected and replayed into the segment
// writer; pinned byte for byte.
class AntiCombinedSegmentGolden : public ::testing::TestWithParam<bool> {};

TEST_P(AntiCombinedSegmentGolden, MapSegmentsMatchGolden) {
  const bool query_suggestion = GetParam();
  JobSpec original;
  std::vector<KV> input;
  if (query_suggestion) {
    workloads::QuerySuggestionConfig qc;
    qc.scheme = workloads::QuerySuggestionConfig::Scheme::kPrefix5;
    qc.with_combiner = true;
    original = workloads::MakeQuerySuggestionJob(qc);
    QLogConfig lc;
    lc.num_records = 3000;
    lc.seed = 42;
    input = QLogGenerator(lc).Generate();
  } else {
    original = workloads::MakeWordCountJob({});
    RandomTextConfig rc;
    rc.num_lines = 2000;
    rc.seed = 42;
    input = RandomTextGenerator(rc).Generate();
  }
  AntiCombineOptions options = AntiCombineOptions::Unrestricted();
  options.map_phase_combiner = true;
  JobSpec spec = EnableAntiCombining(original, options);
  spec.num_reduce_tasks = 4;
  spec.map_buffer_bytes = 16 * 1024;
  std::unique_ptr<Env> env = NewMemEnv();
  RunOptions run;
  run.env = env.get();
  run.job_id = "golden";
  run.cleanup_intermediates = false;
  JobResult result;
  const Status st = RunJob(spec, MakeSplits(input, 2), run, &result);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_GE(result.metrics.map_spills, 6u) << "premise: >= 3 spills a task";
  const testing::SegmentDigest digest = testing::MapSegmentDigest(env.get());
  EXPECT_EQ(result.metrics.map_spills, query_suggestion ? 32u : 22u);
  EXPECT_EQ(digest.files, 8u);
  EXPECT_EQ(digest.hash, query_suggestion ? 0x5dd28ef183d1cb5aULL
                                          : 0x17c30aca9ac95488ULL);
}

INSTANTIATE_TEST_SUITE_P(Workloads, AntiCombinedSegmentGolden,
                         ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "QuerySuggestionPrefix5"
                                             : "WordCount";
                         });

}  // namespace
}  // namespace anticombine
}  // namespace antimr
