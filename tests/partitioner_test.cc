// Skew defenses end to end: partitioner validation (no UB on non-positive
// partition counts), RangePartitioner pivot edge cases, the sampling pass
// (pivots + hot-key detection), hot-key salting round trips, and the
// split1 -> merge fix-up plan whose output must equal the unsplit run as a
// key/value multiset.
#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "engine/executor.h"
#include "engine/job_plan.h"
#include "engine/job_registry.h"
#include "engine/skew_runner.h"
#include "mr/api.h"
#include "mr/job_runner.h"
#include "mr/skew.h"
#include "workloads/registry.h"
#include "workloads/wordcount.h"

namespace antimr {
namespace {

// --- validation (no UB on bad partition counts) ---------------------------

TEST(PartitionerValidationTest, HashRejectsNonPositivePartitions) {
  HashPartitioner hash;
  const Status st = hash.ValidatePartitions(0);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Status::Code::kInvalidArgument);
  EXPECT_FALSE(st.IsTransient()) << "bad config must not be retried";
  EXPECT_FALSE(hash.ValidatePartitions(-3).ok());
  EXPECT_TRUE(hash.ValidatePartitions(1).ok());
  // Partition itself clamps instead of dividing by zero.
  EXPECT_EQ(hash.Partition(Slice("k"), 0), 0);
  EXPECT_EQ(hash.Partition(Slice("k"), -5), 0);
}

TEST(PartitionerValidationTest, RangeRejectsMorePivotsThanCuts) {
  const RangePartitioner range({"a", "b", "c"});
  EXPECT_FALSE(range.ValidatePartitions(0).ok());
  // 3 pivots cut the key space into 4 ranges; 3 partitions cannot hold them.
  const Status st = range.ValidatePartitions(3);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Status::Code::kInvalidArgument);
  EXPECT_TRUE(range.ValidatePartitions(4).ok());
  EXPECT_TRUE(range.ValidatePartitions(9).ok());
  EXPECT_EQ(range.Partition(Slice("b"), 0), 0);  // clamped, not UB
}

TEST(PartitionerValidationTest, JobSpecValidateChecksPartitioner) {
  workloads::WordCountConfig config;
  config.num_reduce_tasks = 3;
  JobSpec spec = workloads::MakeWordCountJob(config);
  spec.partitioner = std::make_shared<RangePartitioner>(
      std::vector<std::string>{"a", "b", "c"});  // 3 pivots, 3 reduces
  const Status st = spec.Validate();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Status::Code::kInvalidArgument);

  // The same rejection surfaces at plan-validation time.
  engine::JobPlan plan;
  ASSERT_TRUE(plan.AddInput("in", MakeSplits({{"k", "v"}}, 1)).ok());
  engine::Stage stage;
  stage.name = "wc";
  stage.spec = spec;
  stage.inputs = {"in"};
  stage.output = "out";
  plan.AddStage(std::move(stage));
  EXPECT_FALSE(plan.Validate().ok());
}

// --- range partition boundaries -------------------------------------------

TEST(RangePartitionerTest, PivotBoundaries) {
  const RangePartitioner range({"b", "d"});
  EXPECT_EQ(range.Partition(Slice("a"), 3), 0);
  EXPECT_EQ(range.Partition(Slice("b"), 3), 1);  // keys >= pivot go right
  EXPECT_EQ(range.Partition(Slice("c"), 3), 1);
  EXPECT_EQ(range.Partition(Slice("d"), 3), 2);
  EXPECT_EQ(range.Partition(Slice("zzz"), 3), 2);
  EXPECT_EQ(range.Partition(Slice(""), 3), 0);
}

TEST(RangePartitionerTest, DuplicatePivotsCollapseTheMiddleRange) {
  const RangePartitioner range({"b", "b"});
  EXPECT_EQ(range.Partition(Slice("a"), 3), 0);
  // No key lands strictly between equal pivots: "b" jumps to the last range.
  EXPECT_EQ(range.Partition(Slice("b"), 3), 2);
  EXPECT_EQ(range.Partition(Slice("c"), 3), 2);
}

TEST(RangePartitionerTest, EmptyPivotsFallBackToHash) {
  const RangePartitioner range({});
  for (const char* key : {"alpha", "beta", "", "zeta"}) {
    EXPECT_EQ(range.Partition(Slice(key), 4),
              static_cast<int>(Hash64(Slice(key)) % 4));
  }
}

TEST(RangePartitionerTest, ClampsBeyondLastUsablePartition) {
  // More partitions than ranges is fine (upper ones stay empty); fewer
  // ranges than pivots+1 clamps into the valid range.
  const RangePartitioner range({"m"});
  EXPECT_EQ(range.Partition(Slice("z"), 8), 1);
  const RangePartitioner wide({"c", "f", "t"});
  EXPECT_EQ(wide.Partition(Slice("z"), 2), 1);  // idx 3 clamped to 1
}

// --- key-list codec --------------------------------------------------------

TEST(KeyListCodecTest, RoundTripsBinaryKeys) {
  const std::vector<std::string> keys = {"plain", std::string("nu\0ll", 5),
                                         "", "trailing"};
  std::vector<std::string> decoded;
  ASSERT_TRUE(DecodeKeyList(EncodeKeyList(keys), &decoded).ok());
  EXPECT_EQ(decoded, keys);

  ASSERT_TRUE(DecodeKeyList(EncodeKeyList({}), &decoded).ok());
  EXPECT_TRUE(decoded.empty());

  EXPECT_FALSE(DecodeKeyList("\x07garbage", &decoded).ok());
}

// --- salting ---------------------------------------------------------------

SkewModel HotModel(std::vector<std::string> hot_keys, int fanout) {
  SkewModel model;
  model.hot_keys = std::move(hot_keys);
  std::sort(model.hot_keys.begin(), model.hot_keys.end());
  model.hot_fanout = fanout;
  return model;
}

TEST(SaltTest, SaltAndStripRoundTrip) {
  const SkewModel model = HotModel({"the", "of"}, 4);
  for (uint32_t salt = 0; salt < 4; ++salt) {
    const std::string salted = SaltKey(Slice("the"), salt);
    EXPECT_GT(salted.size(), 3u);
    EXPECT_EQ(StripSalt(model, Slice(salted)).ToString(), "the");
  }
  // Non-hot keys pass through untouched, salted-looking or not.
  EXPECT_EQ(StripSalt(model, Slice("them")).ToString(), "them");
  const std::string fake = SaltKey(Slice("cold"), 1);
  EXPECT_EQ(StripSalt(model, Slice(fake)).ToString(), fake);
  EXPECT_TRUE(IsHotKey(model, Slice("of")));
  EXPECT_FALSE(IsHotKey(model, Slice("off")));
}

TEST(SaltTest, RecordSaltIsDeterministicAndBounded) {
  for (int fanout : {2, 3, 8}) {
    for (const char* value : {"a b c", "x", ""}) {
      const uint32_t salt = RecordSalt(Slice("k"), Slice(value), fanout);
      EXPECT_LT(salt, static_cast<uint32_t>(fanout));
      EXPECT_EQ(salt, RecordSalt(Slice("k"), Slice(value), fanout))
          << "salt must be a pure function of the record (LazySH re-runs it)";
    }
  }
}

// --- the sampling pass -----------------------------------------------------

/// Lines with one superfrequent word ("hot") mixed into a spread of unique
/// words — a Zipf-flavored wordcount input.
std::vector<KV> SkewedLines(int lines, int hot_every) {
  std::vector<KV> records;
  for (int i = 0; i < lines; ++i) {
    std::string line = "w" + std::to_string(i % 97);
    for (int j = 0; j < 3; ++j) {
      line += (i + j) % hot_every == 0 ? " hot"
                                       : " u" + std::to_string(i * 3 + j);
    }
    records.push_back({"", line});
  }
  return records;
}

TEST(SkewModelTest, DetectsHotKeyAndBuildsPivots) {
  workloads::WordCountConfig config;
  config.num_reduce_tasks = 4;
  const JobSpec spec = workloads::MakeWordCountJob(config);
  SkewModel model;
  SkewSampleOptions options;
  ASSERT_TRUE(BuildSkewModel(spec, MakeSplits(SkewedLines(600, 2), 4),
                             options, &model)
                  .ok());
  EXPECT_EQ(model.pivots.size(), 3u);
  EXPECT_TRUE(std::is_sorted(model.pivots.begin(), model.pivots.end()));
  ASSERT_TRUE(model.HasHotKeys());
  EXPECT_NE(std::find(model.hot_keys.begin(), model.hot_keys.end(), "hot"),
            model.hot_keys.end());
  EXPECT_GE(model.hot_fanout, 2);
  EXPECT_EQ(model.salted_pivots.size(), 3u);
}

TEST(SkewModelTest, AllIdenticalKeysStillPartitionInRange) {
  workloads::WordCountConfig config;
  config.num_reduce_tasks = 4;
  const JobSpec spec = workloads::MakeWordCountJob(config);
  std::vector<KV> records(200, KV{"", "same same same"});
  SkewModel model;
  ASSERT_TRUE(BuildSkewModel(spec, MakeSplits(records, 2), SkewSampleOptions(),
                             &model)
                  .ok());
  // Every sampled key equal: all pivots are duplicates of it, and the lone
  // key is superfrequent.
  ASSERT_TRUE(model.HasHotKeys());
  EXPECT_EQ(model.hot_keys, std::vector<std::string>{"same"});
  const RangePartitioner range(model.pivots);
  for (const char* key : {"aaa", "same", "zzz"}) {
    const int p = range.Partition(Slice(key), 4);
    EXPECT_GE(p, 0);
    EXPECT_LT(p, 4);
  }
}

TEST(SkewModelTest, EmptySampleFallsBackToHash) {
  workloads::WordCountConfig config;
  config.num_reduce_tasks = 4;
  const JobSpec spec = workloads::MakeWordCountJob(config);
  SkewModel model;
  ASSERT_TRUE(BuildSkewModel(spec, MakeSplits({{"", ""}}, 1),
                             SkewSampleOptions(), &model)
                  .ok());
  EXPECT_TRUE(model.pivots.empty());
  EXPECT_FALSE(model.HasHotKeys());
  const RangePartitioner range(model.pivots);
  EXPECT_EQ(range.Partition(Slice("key"), 4),
            static_cast<int>(Hash64(Slice("key")) % 4));
}

// --- split + merge fix-up --------------------------------------------------

TEST(HotKeySplitTest, Stage1RequiresPartialReducer) {
  workloads::WordCountConfig config;
  JobSpec spec = workloads::MakeWordCountJob(config);
  spec.partial_reducer_factory = nullptr;  // simulate a non-splittable job
  auto model = std::make_shared<SkewModel>(HotModel({"hot"}, 4));
  JobSpec out;
  const Status st = MakeSplitStage1Spec(spec, model, &out);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Status::Code::kInvalidArgument);
}

// The stage-1 reducer hands its partial reducer a salt-stripping context; a
// failure the partial reducer reports there must still fail the task.
TEST(HotKeySplitTest, Stage1ForwardsPartialReducerFailure) {
  class FailingReducer : public Reducer {
   public:
    void Reduce(const Slice& key, ValueIterator* values,
                ReduceContext* ctx) override {
      (void)key;
      (void)values;
      ctx->Fail(Status::Corruption("partial reducer failed"));
    }
  };
  workloads::WordCountConfig config;
  JobSpec spec = workloads::MakeWordCountJob(config);
  spec.partial_reducer_factory = []() {
    return std::make_unique<FailingReducer>();
  };
  auto model = std::make_shared<SkewModel>(HotModel({"hot"}, 4));
  JobSpec stage1;
  ASSERT_TRUE(MakeSplitStage1Spec(spec, model, &stage1).ok());
  JobResult result;
  const Status st =
      RunJob(stage1, MakeSplits({{"line", "hot cold"}}, 1), &result);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
}

std::vector<KV> SortedMultiset(std::vector<KV> kvs) {
  std::sort(kvs.begin(), kvs.end(), [](const KV& a, const KV& b) {
    return a.key != b.key ? a.key < b.key : a.value < b.value;
  });
  return kvs;
}

TEST(HotKeySplitTest, SplitPlanOutputMatchesDirectRun) {
  workloads::RegisterStandardJobs();
  // combiner off keeps the skewed shuffle actually skewed.
  const net::JobParams params = {{"reduces", "4"}, {"combiner", "0"}};
  JobSpec spec;
  ASSERT_TRUE(engine::BuildRegisteredJob("wordcount", params, &spec).ok());
  const std::vector<KV> input = SkewedLines(900, 2);

  RunOptions run;
  run.collect_output = true;
  JobResult direct;
  ASSERT_TRUE(RunJob(spec, MakeSplits(input, 6), run, &direct).ok());

  for (const bool split : {false, true}) {
    engine::SkewPlanOptions skew;
    skew.hot_key_split = split;
    engine::JobPlan plan;
    std::string output;
    SkewModel model;
    ASSERT_TRUE(engine::MakeSkewPlan("wordcount", params, MakeSplits(input, 6),
                                     skew, &plan, &output, &model)
                    .ok());
    ASSERT_TRUE(model.HasHotKeys());
    EXPECT_EQ(plan.stages().size(), split ? 2u : 1u);

    engine::Executor executor;
    engine::PlanResult result;
    const Status st = executor.Run(plan, &result);
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(SortedMultiset(result.FlatOutput(output)),
              SortedMultiset(direct.FlatOutput()))
        << (split ? "split+merge" : "range") << " run changed the output";
  }
}

TEST(HotKeySplitTest, SplitSpreadsTheHotKeyAcrossStage1Partitions) {
  workloads::WordCountConfig config;
  config.num_reduce_tasks = 4;
  config.with_combiner = false;
  const JobSpec spec = workloads::MakeWordCountJob(config);
  SkewModel model;
  ASSERT_TRUE(BuildSkewModel(spec, MakeSplits(SkewedLines(600, 2), 4),
                             SkewSampleOptions(), &model)
                  .ok());
  ASSERT_TRUE(model.HasHotKeys());
  const RangePartitioner salted_range(model.salted_pivots);

  // The salted variants of the hot key must not all land in one partition.
  std::map<int, int> partitions;
  for (int salt = 0; salt < model.hot_fanout; ++salt) {
    const std::string salted = SaltKey(Slice("hot"), salt);
    partitions[salted_range.Partition(Slice(salted), 4)]++;
  }
  EXPECT_GT(partitions.size(), 1u)
      << "salting left every hot-key variant in one range";
}

}  // namespace
}  // namespace antimr
