// Unit-level tests of AntiReducer's decode/drain machinery (Algorithms 2
// and 4): driving Reduce calls directly with hand-built encoded payloads and
// recording the order and contents of the original Reduce invocations.
#include "anticombine/anti_reducer.h"

#include <algorithm>
#include <string>

#include <gtest/gtest.h>

#include "anticombine/encoding.h"
#include "datagen/qlog.h"
#include "mr/metrics.h"
#include "mr/reduce_task.h"
#include "test_util.h"
#include "workloads/query_suggestion.h"

namespace antimr {
namespace anticombine {
namespace {

// ValueIterator over (record key, payload) pairs, exposing per-record keys
// like the framework's group iterator does.
class PayloadIterator : public ValueIterator {
 public:
  explicit PayloadIterator(std::vector<KV> items)
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

// Records every (key, values) group the original Reduce receives.
class RecordingReducer : public Reducer {
 public:
  struct Call {
    std::string key;
    std::vector<std::string> values;
  };

  explicit RecordingReducer(std::vector<Call>* log) : log_(log) {}

  void Reduce(const Slice& key, ValueIterator* values,
              ReduceContext*) override {
    Call call;
    call.key = key.ToString();
    Slice v;
    while (values->Next(&v)) call.values.push_back(v.ToString());
    log_->push_back(std::move(call));
  }

 private:
  std::vector<Call>* log_;
};

std::string EagerValue(const std::vector<std::string>& other_keys,
                       const std::string& value) {
  std::vector<Slice> keys(other_keys.begin(), other_keys.end());
  std::string payload;
  EncodeEagerPayload(keys, value, &payload);
  return payload;
}

std::string LazyValue(const std::string& input_key,
                      const std::string& input_value) {
  std::string payload;
  EncodeLazyPayload(input_key, input_value, &payload);
  return payload;
}

class AntiReducerTest : public ::testing::Test {
 protected:
  void SetUp() override { env_ = NewMemEnv(); }

  std::unique_ptr<AntiReducer> MakeReducer(
      const AntiCombineOptions& options = AntiCombineOptions(),
      ReducerFactory combiner = nullptr) {
    auto reducer = std::make_unique<AntiReducer>(
        [this]() { return std::make_unique<RecordingReducer>(&log_); },
        []() { return std::make_unique<testing::ScriptedMapper>(); },
        combiner, options);
    info_.task_id = 1;
    info_.shuffle_partition = 1;
    info_.num_reduce_tasks = 4;
    info_.partitioner = &partitioner_;
    info_.key_cmp = BytewiseCompare;
    info_.grouping_cmp = BytewiseCompare;
    info_.env = env_.get();
    info_.metrics = &metrics_;
    reducer->Setup(info_, &ctx_);
    return reducer;
  }

  // One framework-style Reduce call: all records share a group key.
  void Call(AntiReducer* reducer, std::vector<KV> items) {
    PayloadIterator it(items);
    reducer->Reduce(items.front().key, &it, &ctx_);
  }

  std::unique_ptr<Env> env_;
  testing::DigitPartitioner partitioner_;
  JobMetrics metrics_;
  TaskInfo info_;
  std::vector<RecordingReducer::Call> log_;
  std::vector<KV> sink_;
  OutputSink ctx_ = testing::CollectingSink(&sink_);
};

TEST_F(AntiReducerTest, PlainRecordsPassStraightThrough) {
  auto reducer = MakeReducer();
  Call(reducer.get(), {{"1a", EagerValue({}, "v1")},
                       {"1a", EagerValue({}, "v2")}});
  Call(reducer.get(), {{"1b", EagerValue({}, "w")}});
  reducer->Cleanup(&ctx_);
  ASSERT_EQ(log_.size(), 2u);
  EXPECT_EQ(log_[0].key, "1a");
  EXPECT_EQ(log_[0].values, (std::vector<std::string>{"v1", "v2"}));
  EXPECT_EQ(log_[1].key, "1b");
}

TEST_F(AntiReducerTest, EagerKeysDecodeBeforeTheirReduceCall) {
  auto reducer = MakeReducer();
  // "1a" carries "1c" and "1e"; the regular input stream then delivers
  // "1d": the Shared key "1c" must be reduced before "1d" (repeat-until
  // loop), "1e" after (cleanup).
  Call(reducer.get(), {{"1a", EagerValue({"1c", "1e"}, "shared")}});
  Call(reducer.get(), {{"1d", EagerValue({}, "direct")}});
  reducer->Cleanup(&ctx_);
  ASSERT_EQ(log_.size(), 4u);
  EXPECT_EQ(log_[0].key, "1a");
  EXPECT_EQ(log_[0].values, std::vector<std::string>{"shared"});
  EXPECT_EQ(log_[1].key, "1c");
  EXPECT_EQ(log_[1].values, std::vector<std::string>{"shared"});
  EXPECT_EQ(log_[2].key, "1d");
  EXPECT_EQ(log_[3].key, "1e");
}

TEST_F(AntiReducerTest, SharedAndDirectValuesMergeForSameKey) {
  auto reducer = MakeReducer();
  // "1a" parks a value for "1c"; later the stream also has records for
  // "1c": the Reduce call for "1c" must see both.
  Call(reducer.get(), {{"1a", EagerValue({"1c"}, "from-shared")}});
  Call(reducer.get(), {{"1c", EagerValue({}, "from-stream")}});
  reducer->Cleanup(&ctx_);
  ASSERT_EQ(log_.size(), 2u);
  EXPECT_EQ(log_[1].key, "1c");
  ASSERT_EQ(log_[1].values.size(), 2u);
  // Both values present regardless of order.
  EXPECT_NE(std::find(log_[1].values.begin(), log_[1].values.end(),
                      "from-shared"),
            log_[1].values.end());
  EXPECT_NE(std::find(log_[1].values.begin(), log_[1].values.end(),
                      "from-stream"),
            log_[1].values.end());
}

TEST_F(AntiReducerTest, LazyRemapKeepsOnlyThisPartition) {
  auto reducer = MakeReducer();
  // Re-executed Map emits to partitions 1 (keys starting '1'), 2 and 3;
  // this reduce task is partition 1. Only its records reach Shared, and
  // ScriptedMapper overwrites each record after Emit, so they must have
  // been copied there.
  Call(reducer.get(),
       {{"1a", LazyValue("ik", "1a:x 2b:y 1c:z 3d:w")}});
  reducer->Cleanup(&ctx_);
  ASSERT_EQ(log_.size(), 2u);
  EXPECT_EQ(log_[0].key, "1a");
  EXPECT_EQ(log_[0].values, std::vector<std::string>{"x"});
  EXPECT_EQ(log_[1].key, "1c");
  EXPECT_EQ(log_[1].values, std::vector<std::string>{"z"});
  EXPECT_EQ(metrics_.remap_calls, 1u);
  EXPECT_EQ(metrics_.shared_insertions, 2u);
}

TEST_F(AntiReducerTest, MixedEncodingsInOneGroup) {
  auto reducer = MakeReducer();
  Call(reducer.get(), {{"1a", EagerValue({}, "plain")},
                       {"1a", EagerValue({"1b"}, "eager")},
                       {"1a", LazyValue("ik", "1a:lazy 1b:lazy2")}});
  reducer->Cleanup(&ctx_);
  ASSERT_EQ(log_.size(), 2u);
  EXPECT_EQ(log_[0].key, "1a");
  // 1a's values: plain + eager + lazy (order within group unspecified).
  EXPECT_EQ(log_[0].values.size(), 3u);
  EXPECT_EQ(log_[1].key, "1b");
  EXPECT_EQ(log_[1].values.size(), 2u);
}

TEST_F(AntiReducerTest, CombinerCollapsesSharedValues) {
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
  auto reducer = MakeReducer(
      AntiCombineOptions(),
      []() { return std::make_unique<SumCombiner>(); });
  Call(reducer.get(), {{"1a", EagerValue({"1b", "1b", "1b"}, "1")}});
  reducer->Cleanup(&ctx_);
  ASSERT_EQ(log_.size(), 2u);
  EXPECT_EQ(log_[1].key, "1b");
  EXPECT_EQ(log_[1].values, std::vector<std::string>{"3"});
  EXPECT_GT(metrics_.shared_combine_input_records, 0u);
  EXPECT_EQ(metrics_.combine_input_records, 0u);
}

TEST_F(AntiReducerTest, SharedSpillsDoNotChangeResults) {
  AntiCombineOptions options;
  options.shared_memory_bytes = 128;
  auto reducer = MakeReducer(options);
  std::vector<std::string> other_keys;
  for (int i = 10; i < 60; ++i) other_keys.push_back("1k" + std::to_string(i));
  Call(reducer.get(),
       {{"1a", EagerValue(other_keys, std::string(30, 'v'))}});
  reducer->Cleanup(&ctx_);
  EXPECT_EQ(log_.size(), 51u);  // 1a + 50 decoded keys
  EXPECT_GT(metrics_.shared_spills, 0u);
  // Keys must still come out in order despite spills.
  for (size_t i = 1; i < log_.size(); ++i) {
    EXPECT_LT(log_[i - 1].key, log_[i].key);
  }
}

// Shared::Add is untimed; AntiReducer charges each decoded record's Adds to
// Phase::shared in one span next to its decode and remap spans. Pin that
// every phase still gets time and every decoded record reaches Shared. The
// phases are the thread's phase clock's, which a reduce task starts and
// stops; driven directly, the test does both.
TEST_F(AntiReducerTest, PhaseCountersCoverDecodeRemapAndShared) {
  auto reducer = MakeReducer();
  const uint64_t clock_start = StartPhaseClock();
  Call(reducer.get(), {{"1a", EagerValue({"1b", "1c"}, "eager")},
                       {"1a", LazyValue("ik", "1a:x 2b:y 1d:z")}});
  reducer->Cleanup(&ctx_);
  FinishTaskClock(clock_start, &metrics_);
  EXPECT_GT(metrics_.cpu.decode, 0u);
  EXPECT_GT(metrics_.cpu.remap, 0u);
  EXPECT_GT(metrics_.cpu.shared, 0u);
  // EagerSH: 1a, 1b, 1c. LazySH, this partition only: 1a, 1d.
  EXPECT_EQ(metrics_.shared_insertions, 5u);
  EXPECT_EQ(metrics_.remap_calls, 1u);
  ASSERT_EQ(log_.size(), 4u);
  EXPECT_EQ(log_[0].values, (std::vector<std::string>{"eager", "x"}));
}

TEST_F(AntiReducerTest, EmptyTaskCleanupIsSafe) {
  auto reducer = MakeReducer();
  reducer->Cleanup(&ctx_);
  EXPECT_TRUE(log_.empty());
}

// Map-side combines and Shared's reduce-phase combines count in separate
// pairs. Query-Suggestion Prefix-5 with C = 1, run with and without
// combining inside Shared: the map-side pair is the same in both runs,
// Shared's pair is zero only without, and the two pairs add up to the one
// pair both combines were counted in before they were split (recorded
// then: 54 934 -> 40 517 with Shared combining, 23 522 -> 17 940 without).
TEST(CombineCounters, MapSideAndSharedCombinesCountApart) {
  workloads::QuerySuggestionConfig qc;
  qc.scheme = workloads::QuerySuggestionConfig::Scheme::kPrefix5;
  qc.with_combiner = true;
  QLogConfig lc;
  lc.num_records = 4000;
  lc.seed = 42;
  const std::vector<KV> input = QLogGenerator(lc).Generate();
  JobMetrics runs[2];
  for (const bool in_shared : {true, false}) {
    AntiCombineOptions options = AntiCombineOptions::Unrestricted();
    options.map_phase_combiner = true;
    options.combine_in_shared = in_shared;
    JobSpec spec = EnableAntiCombining(
        workloads::MakeQuerySuggestionJob(qc), options);
    spec.num_reduce_tasks = 4;
    spec.map_buffer_bytes = 32 * 1024;
    RunOptions run;
    run.num_workers = 2;
    JobResult result;
    const Status st = RunJob(spec, MakeSplits(input, 4), run, &result);
    ASSERT_TRUE(st.ok()) << st.ToString();
    runs[in_shared ? 0 : 1] = result.metrics;
  }
  const JobMetrics& with = runs[0];
  const JobMetrics& without = runs[1];
  ASSERT_GT(with.map_spills, 0u) << "premise: the map side combines";

  EXPECT_EQ(with.combine_input_records, without.combine_input_records);
  EXPECT_EQ(with.combine_output_records, without.combine_output_records);
  EXPECT_GT(with.shared_combine_input_records, 0u);
  EXPECT_GT(with.shared_combine_output_records, 0u);
  EXPECT_EQ(without.shared_combine_input_records, 0u);
  EXPECT_EQ(without.shared_combine_output_records, 0u);

  EXPECT_EQ(with.combine_input_records + with.shared_combine_input_records,
            54934u);
  EXPECT_EQ(with.combine_output_records + with.shared_combine_output_records,
            40517u);
  EXPECT_EQ(without.combine_input_records, 23522u);
  EXPECT_EQ(without.combine_output_records, 17940u);
}

}  // namespace
}  // namespace anticombine
}  // namespace antimr
