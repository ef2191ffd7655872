// End-to-end tests of the MapReduce framework: map/shuffle/reduce semantics,
// spilling, combiners, codecs, comparators, and metrics plumbing.
#include <cstdio>
#include <map>
#include <memory>
#include <tuple>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "datagen/random_text.h"
#include "mr/map_output_buffer.h"
#include "test_util.h"
#include "workloads/sort.h"
#include "workloads/wordcount.h"

namespace antimr {
namespace {

using testing::Canonicalize;
using testing::MustRun;

class EchoMapper : public Mapper {
 public:
  void Map(const Slice& key, const Slice& value, MapContext* ctx) override {
    ctx->Emit(key, value);
  }
};

class ConcatReducer : public Reducer {
 public:
  void Reduce(const Slice& key, ValueIterator* values,
              ReduceContext* ctx) override {
    std::string joined;
    Slice v;
    while (values->Next(&v)) {
      if (!joined.empty()) joined.push_back('|');
      joined.append(v.data(), v.size());
    }
    ctx->Emit(key, joined);
  }
};

JobSpec EchoConcatJob(int reduce_tasks = 3) {
  JobSpec spec;
  spec.name = "echo_concat";
  spec.mapper_factory = []() { return std::make_unique<EchoMapper>(); };
  spec.reducer_factory = []() { return std::make_unique<ConcatReducer>(); };
  spec.num_reduce_tasks = reduce_tasks;
  return spec;
}

TEST(JobRunner, EmptyInput) {
  JobResult result;
  ASSERT_TRUE(RunJob(EchoConcatJob(), {MakeSplit({})}, &result).ok());
  EXPECT_TRUE(result.FlatOutput().empty());
  EXPECT_EQ(result.metrics.input_records, 0u);
}

TEST(JobRunner, SingleRecord) {
  auto out = MustRun(EchoConcatJob(), {MakeSplit({{"k", "v"}})});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].key, "k");
  EXPECT_EQ(out[0].value, "v");
}

TEST(JobRunner, GroupsValuesByKey) {
  std::vector<KV> input = {{"a", "1"}, {"b", "2"}, {"a", "3"}, {"b", "4"},
                           {"a", "5"}};
  auto out = Canonicalize(MustRun(EchoConcatJob(1), MakeSplits(input, 2)));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].key, "a");
  // Values arrive in (map task, emission) order through the stable merge.
  EXPECT_EQ(out[0].value, "1|3|5");
  EXPECT_EQ(out[1].key, "b");
  EXPECT_EQ(out[1].value, "2|4");
}

TEST(JobRunner, ReduceCallsHappenInKeyOrder) {
  class OrderCheckingReducer : public Reducer {
   public:
    void Setup(const TaskInfo& info, ReduceContext*) override {
      cmp_ = info.key_cmp;
    }
    void Reduce(const Slice& key, ValueIterator* values,
                ReduceContext* ctx) override {
      if (!last_.empty()) {
        EXPECT_LT(cmp_(last_, key), 0) << "keys out of order";
      }
      last_ = key.ToString();
      Slice v;
      while (values->Next(&v)) {
      }
      ctx->Emit(key, "");
    }
    KeyComparator cmp_;
    std::string last_;
  };
  JobSpec spec = EchoConcatJob(2);
  spec.reducer_factory = []() {
    return std::make_unique<OrderCheckingReducer>();
  };
  std::vector<KV> input;
  for (int i = 99; i >= 0; --i) {
    input.push_back({"key" + std::to_string(i), "v"});
  }
  auto out = MustRun(spec, MakeSplits(input, 4));
  EXPECT_EQ(out.size(), 100u);
}

TEST(JobRunner, PartitioningSendsEachKeyToOneTask) {
  std::vector<KV> input;
  for (int i = 0; i < 500; ++i) {
    input.push_back({"k" + std::to_string(i % 50), std::to_string(i)});
  }
  JobResult result;
  ASSERT_TRUE(RunJob(EchoConcatJob(7), MakeSplits(input, 3), &result).ok());
  // Each key must appear in exactly one reduce task's output.
  std::map<std::string, int> task_of_key;
  for (size_t t = 0; t < result.outputs.size(); ++t) {
    for (const KV& kv : result.outputs[t]) {
      auto [it, inserted] = task_of_key.emplace(kv.key, static_cast<int>(t));
      EXPECT_TRUE(inserted) << "key " << kv.key << " in two tasks";
    }
  }
  EXPECT_EQ(task_of_key.size(), 50u);
}

// Map-side spill sweep. A task ships each spill's runs to the reducers as
// they are, unless it has a Combiner and spilled three or more times: then it
// merges and combines them map-side. Either way every reduce task must see
// the no-spill run's record sequence, so its output is identical in order.
class SpillSweep
    : public ::testing::TestWithParam<std::tuple<int, bool>> {
 protected:
  static constexpr int kMaps = 2;
  static constexpr int kReduces = 4;

  /// Fixed-width records, so both splits fill the map buffer at the same
  /// record and the sweep's spill counts hold for every task.
  static std::vector<KV> Input() {
    std::vector<KV> input;
    char key[8];
    char value[16];
    for (int i = 0; i < 2000; ++i) {
      std::snprintf(key, sizeof(key), "k%03d", i % 100);
      std::snprintf(value, sizeof(value), "value_%04d", i);
      input.push_back({key, value});
    }
    return input;
  }

  /// map_buffer_bytes under which a task over `split` spills `spills` times
  /// (0 = never; 4 stands for "3 or more"), from the buffer usage its
  /// records reach when emitted one by one.
  static size_t BufferForSpills(const std::vector<KV>& split, int spills) {
    MapOutputBuffer buffer(kReduces, BytewiseCompare);
    std::vector<size_t> usage;
    for (const KV& kv : split) {
      buffer.Add(0, kv.key, kv.value);
      usage.push_back(buffer.memory_usage());
    }
    const size_t n = usage.size();
    switch (spills) {
      case 0:
        return usage.back() + 1;  // never full
      case 1:
        return usage.back();  // full after the last record: no tail
      case 2:
        return usage[n * 6 / 10];  // one spill, then a smaller tail
      default:
        return usage[n / 4 - 1];  // full every quarter
    }
  }

  static JobSpec Spec(bool combiner) {
    JobSpec spec = EchoConcatJob(kReduces);
    // Concatenation is associative, so combined runs reduce to the same
    // strings as raw ones.
    if (combiner) spec.combiner_factory = spec.reducer_factory;
    return spec;
  }

  static JobResult Run(const JobSpec& spec) {
    JobResult result;
    const Status st = RunJob(spec, MakeSplits(Input(), kMaps), &result);
    EXPECT_TRUE(st.ok()) << st.ToString();
    return result;
  }
};

TEST_P(SpillSweep, OutputsMatchTheNoSpillRunInOrder) {
  const auto [spills, combiner] = GetParam();
  const std::vector<KV> input = Input();
  const std::vector<KV> split(input.begin(),
                              input.begin() + input.size() / kMaps);
  const JobResult no_spill = Run(Spec(/*combiner=*/false));
  ASSERT_EQ(no_spill.metrics.map_spills, 0u);

  JobSpec spec = Spec(combiner);
  spec.map_buffer_bytes = BufferForSpills(split, spills);
  const JobResult result = Run(spec);
  ASSERT_EQ(result.metrics.map_spills,
            static_cast<uint64_t>(kMaps * (spills == 0 ? 0 : spills)))
      << "premise: every task spills " << spills << " times";
  ASSERT_EQ(result.outputs.size(), no_spill.outputs.size());
  for (size_t p = 0; p < result.outputs.size(); ++p) {
    EXPECT_EQ(result.outputs[p], no_spill.outputs[p]) << "reduce task " << p;
  }

  if (spills <= 2 || !combiner) {
    // Runs ship as written: each stored byte is written once (and read once,
    // by the shuffle), never rewritten by a map-side merge.
    EXPECT_EQ(result.metrics.disk_bytes_written, result.metrics.shuffle_bytes);
    EXPECT_EQ(result.metrics.disk_bytes_read, result.metrics.shuffle_bytes);
  } else {
    // Runs merge map-side into one segment per partition, and the Combiner
    // folds every run of a key into one record again, so the shuffle is the
    // no-spill combined run's, byte for byte.
    EXPECT_GT(result.metrics.disk_bytes_written, result.metrics.shuffle_bytes);
    const JobResult combined_no_spill = Run(Spec(/*combiner=*/true));
    EXPECT_EQ(result.metrics.shuffle_bytes,
              combined_no_spill.metrics.shuffle_bytes);
    EXPECT_EQ(result.metrics.reduce_input_records,
              combined_no_spill.metrics.reduce_input_records);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SpillCounts, SpillSweep,
    ::testing::Combine(::testing::Values(0, 1, 2, 4), ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<int, bool>>& info) {
      return std::to_string(std::get<0>(info.param)) + "_spills" +
             (std::get<1>(info.param) ? "_combiner" : "");
    });

// The bytes each map task of the sweep stores, recorded when a combine's
// output was still collected and replayed into the segment writer: a
// change to the write path may move no stored byte, with or without a
// Combiner, on a spill or on the map-side merge.
TEST_P(SpillSweep, SegmentBytesMatchGolden) {
  const auto [spills, combiner] = GetParam();
  const std::vector<KV> input = Input();
  const std::vector<KV> split(input.begin(),
                              input.begin() + input.size() / kMaps);
  JobSpec spec = Spec(combiner);
  spec.map_buffer_bytes = BufferForSpills(split, spills);
  std::unique_ptr<Env> env = NewMemEnv();
  RunOptions options;
  options.env = env.get();
  options.job_id = "golden";
  options.cleanup_intermediates = false;
  JobResult result;
  const Status st = RunJob(spec, MakeSplits(input, kMaps), options, &result);
  ASSERT_TRUE(st.ok()) << st.ToString();
  const testing::SegmentDigest digest = testing::MapSegmentDigest(env.get());

  struct Golden {
    int spills;
    bool combiner;
    size_t files;
    uint64_t hash;
  };
  static constexpr Golden kGoldens[] = {
      {0, false, 8, 0x1596f486f4fc6431ULL},
      {0, true, 8, 0x3118137a2b980631ULL},
      {1, false, 8, 0x1596f486f4fc6431ULL},
      {1, true, 8, 0x3118137a2b980631ULL},
      {2, false, 16, 0xf5f39f6e811b9005ULL},
      {2, true, 16, 0x2e960039640e59e8ULL},
      {4, false, 32, 0x8ec23b8d421a3d77ULL},
      {4, true, 8, 0x205ff94dd777e4cdULL},
  };
  for (const Golden& g : kGoldens) {
    if (g.spills != spills || g.combiner != combiner) continue;
    EXPECT_EQ(digest.files, g.files);
    EXPECT_EQ(digest.hash, g.hash);
    return;
  }
  ADD_FAILURE() << "no golden for this case";
}

TEST(JobRunner, CombinerReducesShuffledRecords) {
  RandomTextConfig cfg;
  cfg.num_lines = 500;
  cfg.vocabulary_words = 50;
  RandomTextGenerator gen(cfg);

  workloads::WordCountConfig wc;
  wc.with_combiner = false;
  JobMetrics no_combiner;
  auto out1 = Canonicalize(
      MustRun(workloads::MakeWordCountJob(wc), gen.MakeSplits(4),
              &no_combiner));

  wc.with_combiner = true;
  JobMetrics with_combiner;
  auto out2 = Canonicalize(
      MustRun(workloads::MakeWordCountJob(wc), gen.MakeSplits(4),
              &with_combiner));

  EXPECT_EQ(out1, out2);
  EXPECT_LT(with_combiner.shuffle_bytes, no_combiner.shuffle_bytes / 2);
  EXPECT_GT(with_combiner.combine_input_records, 0u);
}

// Reports Corruption through ReduceContext::Fail from one lifecycle call.
class FailingReducer : public Reducer {
 public:
  explicit FailingReducer(std::string phase) : phase_(std::move(phase)) {}

  void Setup(const TaskInfo& info, ReduceContext* ctx) override {
    (void)info;
    MaybeFail("setup", ctx);
  }
  void Reduce(const Slice& key, ValueIterator* values,
              ReduceContext* ctx) override {
    Slice v;
    while (values->Next(&v)) ctx->Emit(key, v);
    MaybeFail("reduce", ctx);
  }
  void Cleanup(ReduceContext* ctx) override { MaybeFail("cleanup", ctx); }

 private:
  void MaybeFail(const std::string& phase, ReduceContext* ctx) {
    if (phase == phase_) ctx->Fail(Status::Corruption("failed in " + phase));
  }

  std::string phase_;
};

// A reducer's reported failure fails its task, whichever lifecycle call
// reported it, both as the job's Reducer and as a Combiner in map tasks.
TEST(JobRunner, ReducerFailureFailsTheJob) {
  for (const std::string phase : {"setup", "reduce", "cleanup"}) {
    for (const bool as_combiner : {false, true}) {
      JobSpec spec = EchoConcatJob();
      ReducerFactory failing = [phase]() {
        return std::make_unique<FailingReducer>(phase);
      };
      (as_combiner ? spec.combiner_factory : spec.reducer_factory) = failing;
      JobResult result;
      const Status st =
          RunJob(spec, {MakeSplit({{"a", "1"}, {"b", "2"}})}, &result);
      EXPECT_TRUE(st.IsCorruption())
          << phase << (as_combiner ? " combiner: " : " reducer: ")
          << st.ToString();
      EXPECT_NE(st.message().find("failed in " + phase), std::string::npos)
          << st.ToString();
    }
  }
}

TEST(JobRunner, MapOutputCompressionRoundTrips) {
  std::vector<KV> input;
  for (int i = 0; i < 300; ++i) {
    input.push_back({"key" + std::to_string(i % 20),
                     "the quick brown fox " + std::to_string(i)});
  }
  JobSpec plain = EchoConcatJob(3);
  auto expected = Canonicalize(MustRun(plain, MakeSplits(input, 2)));
  for (CodecType codec :
       {CodecType::kSnappyLike, CodecType::kDeflateLike, CodecType::kGzip,
        CodecType::kBzip2Like}) {
    JobSpec spec = EchoConcatJob(3);
    spec.map_output_codec = codec;
    JobMetrics metrics;
    auto actual = Canonicalize(MustRun(spec, MakeSplits(input, 2), &metrics));
    EXPECT_EQ(expected, actual) << CodecTypeName(codec);
    EXPECT_LT(metrics.shuffle_bytes, metrics.emitted_bytes)
        << CodecTypeName(codec) << " should compress this redundant input";
  }
}

TEST(JobRunner, GroupingComparatorEnablesSecondarySort) {
  // Keys are "primary#secondary"; sort by full key, group by primary only:
  // each Reduce call sees its group's values ordered by secondary key.
  auto primary = [](const Slice& k) {
    size_t i = 0;
    while (i < k.size() && k[i] != '#') ++i;
    return Slice(k.data(), i);
  };
  JobSpec spec = EchoConcatJob(2);
  spec.grouping_cmp = [primary](const Slice& a, const Slice& b) {
    return primary(a).compare(primary(b));
  };
  // Secondary sort requires partitioning on the primary key, as in Hadoop.
  class PrimaryPartitioner : public Partitioner {
   public:
    int Partition(const Slice& key, int num_partitions) const override {
      size_t i = 0;
      while (i < key.size() && key[i] != '#') ++i;
      return static_cast<int>(Hash64(key.data(), i) %
                              static_cast<uint64_t>(num_partitions));
    }
  };
  spec.partitioner = std::make_shared<PrimaryPartitioner>();
  std::vector<KV> input = {{"a#3", "x3"}, {"a#1", "x1"}, {"b#2", "y2"},
                           {"a#2", "x2"}, {"b#1", "y1"}};
  auto out = Canonicalize(MustRun(spec, {MakeSplit(input)}));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].key, "a#1");  // group key = first key of group
  EXPECT_EQ(out[0].value, "x1|x2|x3");
  EXPECT_EQ(out[1].key, "b#1");
  EXPECT_EQ(out[1].value, "y1|y2");
}

TEST(JobRunner, MetricsAccounting) {
  std::vector<KV> input;
  for (int i = 0; i < 100; ++i) input.push_back({"k" + std::to_string(i), "v"});
  JobMetrics m;
  MustRun(EchoConcatJob(4), MakeSplits(input, 2), &m);
  EXPECT_EQ(m.input_records, 100u);
  EXPECT_EQ(m.map_output_records, 100u);
  EXPECT_EQ(m.emitted_records, 100u);
  EXPECT_EQ(m.reduce_input_records, 100u);
  EXPECT_EQ(m.reduce_groups, 100u);
  EXPECT_EQ(m.output_records, 100u);
  EXPECT_GT(m.shuffle_bytes, 0u);
  EXPECT_GT(m.disk_bytes_written, 0u);
  EXPECT_GT(m.disk_bytes_read, 0u);
  EXPECT_GT(m.total_cpu_nanos, 0u);
  EXPECT_GT(m.wall_nanos, 0u);
}

TEST(JobRunner, ValidatesSpec) {
  JobSpec spec;  // no mapper/reducer
  JobResult result;
  EXPECT_TRUE(RunJob(spec, {MakeSplit({})}, &result)
                  .IsInvalidArgument());
  spec = EchoConcatJob();
  spec.num_reduce_tasks = 0;
  EXPECT_TRUE(RunJob(spec, {MakeSplit({})}, &result).IsInvalidArgument());
}

TEST(JobRunner, ManyMapTasksManyReducers) {
  std::vector<KV> input;
  for (int i = 0; i < 1000; ++i) {
    input.push_back({"k" + std::to_string(i % 37), std::to_string(i)});
  }
  auto expected = Canonicalize(MustRun(EchoConcatJob(1), {MakeSplit(input)}));
  auto actual =
      Canonicalize(MustRun(EchoConcatJob(16), MakeSplits(input, 11)));
  // Group contents identical regardless of parallelism.
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].key, actual[i].key);
    EXPECT_EQ(expected[i].value, actual[i].value);
  }
}

TEST(JobRunner, SortWorkloadOrdersOutputWithinTask) {
  RandomTextConfig cfg;
  cfg.num_lines = 200;
  RandomTextGenerator gen(cfg);
  workloads::SortConfig sc;
  sc.num_reduce_tasks = 3;
  JobResult result;
  ASSERT_TRUE(RunJob(workloads::MakeSortJob(sc), gen.MakeSplits(3), &result)
                  .ok());
  for (const auto& task_output : result.outputs) {
    for (size_t i = 1; i < task_output.size(); ++i) {
      EXPECT_LE(task_output[i - 1].key, task_output[i].key);
    }
  }
}

}  // namespace
}  // namespace antimr
