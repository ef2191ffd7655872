// Engine layering tests: JobPlan validation, DAG-shaped execution (diamond
// dependencies, dataset GC, cross-stage pipelining), and equivalence of the
// DAG paths with chains of single jobs.
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include <gtest/gtest.h>

#include "datagen/graph.h"
#include "test_util.h"
#include "workloads/pagerank.h"
#include "workloads/registry.h"

namespace antimr {
namespace {

using engine::Executor;
using engine::ExecutorOptions;
using engine::JobPlan;
using engine::PlanResult;
using engine::Stage;

class CountReducer : public Reducer {
 public:
  void Reduce(const Slice& key, ValueIterator* values,
              ReduceContext* ctx) override {
    uint64_t n = 0;
    Slice v;
    while (values->Next(&v)) ++n;
    ctx->Emit(key, std::to_string(n));
  }
};

class IdentityMapper : public Mapper {
 public:
  void Map(const Slice& key, const Slice& value, MapContext* ctx) override {
    ctx->Emit(key, value);
  }
};

class IdentityReducer : public Reducer {
 public:
  void Reduce(const Slice& key, ValueIterator* values,
              ReduceContext* ctx) override {
    Slice v;
    while (values->Next(&v)) ctx->Emit(key, v);
  }
};

/// Mapper that tags each value with a stage label (to check provenance).
class TagMapper : public Mapper {
 public:
  explicit TagMapper(std::string tag) : tag_(std::move(tag)) {}
  void Map(const Slice& key, const Slice& value, MapContext* ctx) override {
    ctx->Emit(key, tag_ + ":" + value.ToString());
  }

 private:
  std::string tag_;
};

JobSpec IdentitySpec(const std::string& name, int reduces) {
  JobSpec spec;
  spec.name = name;
  spec.mapper_factory = []() { return std::make_unique<IdentityMapper>(); };
  spec.reducer_factory = []() { return std::make_unique<IdentityReducer>(); };
  spec.num_reduce_tasks = reduces;
  return spec;
}

JobSpec TagSpec(const std::string& name, const std::string& tag, int reduces) {
  JobSpec spec;
  spec.name = name;
  spec.mapper_factory = [tag]() { return std::make_unique<TagMapper>(tag); };
  spec.reducer_factory = []() { return std::make_unique<IdentityReducer>(); };
  spec.num_reduce_tasks = reduces;
  return spec;
}

JobSpec CountSpec(const std::string& name, int reduces) {
  JobSpec spec;
  spec.name = name;
  spec.mapper_factory = []() { return std::make_unique<IdentityMapper>(); };
  spec.reducer_factory = []() { return std::make_unique<CountReducer>(); };
  spec.num_reduce_tasks = reduces;
  return spec;
}

std::vector<KV> SmallInput(const std::string& prefix, int n) {
  std::vector<KV> records;
  for (int i = 0; i < n; ++i) {
    records.push_back({prefix + std::to_string(i % 7), "v" + std::to_string(i)});
  }
  return records;
}

// ---- Plan validation -------------------------------------------------------

TEST(JobPlan, ValidatesWiring) {
  JobPlan plan;
  ASSERT_TRUE(plan.AddInput("in", MakeSplits(SmallInput("k", 10), 2)).ok());
  EXPECT_FALSE(plan.AddInput("in", {}).ok()) << "duplicate input accepted";
  EXPECT_FALSE(plan.Validate().ok()) << "empty plan accepted";

  Stage stage;
  stage.name = "s";
  stage.spec = IdentitySpec("s", 2);
  stage.inputs = {"missing"};
  stage.output = "out";
  plan.AddStage(stage);
  EXPECT_FALSE(plan.Validate().ok()) << "unknown input dataset accepted";
}

TEST(JobPlan, RejectsCycles) {
  JobPlan plan;
  Stage a;
  a.name = "a";
  a.spec = IdentitySpec("a", 1);
  a.inputs = {"b_out"};
  a.output = "a_out";
  plan.AddStage(a);
  Stage b;
  b.name = "b";
  b.spec = IdentitySpec("b", 1);
  b.inputs = {"a_out"};
  b.output = "b_out";
  plan.AddStage(b);
  const Status st = plan.Validate();
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
}

TEST(JobPlan, RejectsDuplicateProducers) {
  JobPlan plan;
  ASSERT_TRUE(plan.AddInput("in", MakeSplits(SmallInput("k", 10), 2)).ok());
  for (int i = 0; i < 2; ++i) {
    Stage stage;
    stage.name = "s" + std::to_string(i);
    stage.spec = IdentitySpec(stage.name, 1);
    stage.inputs = {"in"};
    stage.output = "out";  // same output twice
    plan.AddStage(stage);
  }
  EXPECT_FALSE(plan.Validate().ok());
}

// A registered stage's spec already carries the strategy its params name;
// the planner must never wrap it a second time.
TEST(JobPlan, RejectsTransformingARegisteredStage) {
  workloads::RegisterStandardJobs();
  JobPlan plan;
  ASSERT_TRUE(plan.AddInput("in", MakeSplits(SmallInput("k", 10), 2)).ok());
  Stage stage;
  stage.inputs = {"in"};
  stage.output = "out";
  ASSERT_TRUE(engine::MakeRegisteredStage(
                  "wordcount", {{"reduces", "2"}, {"anti_combine", "eager"}},
                  &stage)
                  .ok());
  EXPECT_EQ(stage.builder, "wordcount");
  plan.AddStage(stage);
  ASSERT_TRUE(plan.Validate().ok());

  JobPlan twice;
  ASSERT_TRUE(twice.AddInput("in", MakeSplits(SmallInput("k", 10), 2)).ok());
  stage.options.anti_combine = true;
  twice.AddStage(stage);
  const Status st = twice.Validate();
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
}

// ---- Execution shapes ------------------------------------------------------

// Single-stage plan must match the legacy RunJob path record for record.
TEST(Engine, SingleStageMatchesRunJob) {
  const std::vector<KV> input = SmallInput("key", 200);
  const JobSpec spec = CountSpec("count", 3);

  const std::vector<KV> legacy =
      testing::Canonicalize(testing::MustRun(spec, MakeSplits(input, 4)));

  JobPlan plan;
  ASSERT_TRUE(plan.AddInput("in", MakeSplits(input, 4)).ok());
  Stage stage;
  stage.name = "count";
  stage.spec = spec;
  stage.inputs = {"in"};
  stage.output = "out";
  plan.AddStage(std::move(stage));

  Executor executor;
  PlanResult result;
  const Status st = executor.Run(plan, &result);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(testing::Canonicalize(result.FlatOutput("out")), legacy);
  ASSERT_EQ(result.stages.size(), 1u);
  EXPECT_GT(result.stages[0].metrics.output_records, 0u);
  EXPECT_GT(result.metrics.total_cpu_nanos, 0u);
}

// Diamond: two tagged stages feed one downstream counter; the join stage
// must see both parents' records, and the plan runs as one graph.
TEST(Engine, DiamondDependency) {
  JobPlan plan;
  plan.name = "diamond";
  ASSERT_TRUE(plan.AddInput("left_in", MakeSplits(SmallInput("k", 60), 2)).ok());
  ASSERT_TRUE(
      plan.AddInput("right_in", MakeSplits(SmallInput("k", 40), 2)).ok());

  Stage left;
  left.name = "left";
  left.spec = TagSpec("left", "L", 2);
  left.inputs = {"left_in"};
  left.output = "left_out";
  plan.AddStage(std::move(left));

  Stage right;
  right.name = "right";
  right.spec = TagSpec("right", "R", 3);
  right.inputs = {"right_in"};
  right.output = "right_out";
  plan.AddStage(std::move(right));

  Stage join;
  join.name = "join";
  join.spec = CountSpec("join", 2);
  join.inputs = {"left_out", "right_out"};
  join.output = "joined";
  plan.AddStage(std::move(join));

  Executor executor;
  PlanResult result;
  const Status st = executor.Run(plan, &result);
  ASSERT_TRUE(st.ok()) << st.ToString();

  // 60 + 40 records over 7 keys: every key's count must include both tags.
  const std::vector<KV> joined = result.FlatOutput("joined");
  ASSERT_EQ(joined.size(), 7u);
  uint64_t total = 0;
  for (const KV& kv : joined) total += std::stoull(kv.value);
  EXPECT_EQ(total, 100u);

  // Only the sink is retained; both intermediates were GC'd.
  for (const engine::DatasetInfo& ds : result.datasets) {
    if (ds.name == "joined") {
      EXPECT_TRUE(ds.retained);
      EXPECT_FALSE(ds.released);
    } else if (!ds.external) {
      EXPECT_TRUE(ds.released) << ds.name << " not reclaimed";
    }
  }
}

// A dataset with two consumers must survive until BOTH are done, and a
// retained sink must never be released.
TEST(Engine, DatasetGcWaitsForLastConsumer) {
  JobPlan plan;
  ASSERT_TRUE(plan.AddInput("in", MakeSplits(SmallInput("k", 50), 2)).ok());

  Stage producer;
  producer.name = "producer";
  producer.spec = IdentitySpec("producer", 2);
  producer.inputs = {"in"};
  producer.output = "shared_ds";
  plan.AddStage(std::move(producer));

  for (int i = 0; i < 2; ++i) {
    Stage consumer;
    consumer.name = "consumer" + std::to_string(i);
    consumer.spec = CountSpec(consumer.name, 1 + i);
    consumer.inputs = {"shared_ds"};
    consumer.output = "out" + std::to_string(i);
    plan.AddStage(std::move(consumer));
  }

  Executor executor;
  PlanResult result;
  const Status st = executor.Run(plan, &result);
  ASSERT_TRUE(st.ok()) << st.ToString();

  // Both consumers saw the full dataset (they cannot have read a released
  // partition: a reclaimed partition reads as empty and the counts would
  // drop).
  for (int i = 0; i < 2; ++i) {
    const std::vector<KV> out = result.FlatOutput("out" + std::to_string(i));
    uint64_t total = 0;
    for (const KV& kv : out) total += std::stoull(kv.value);
    EXPECT_EQ(total, 50u) << "consumer " << i;
  }
  for (const engine::DatasetInfo& ds : result.datasets) {
    if (ds.name == "shared_ds") {
      EXPECT_FALSE(ds.retained);
      EXPECT_TRUE(ds.released);
      EXPECT_EQ(ds.records, 50u);
    }
  }
}

// ---- Cross-stage pipelining ------------------------------------------------

// Deterministic proof that stage N+1 starts before stage N finishes: stage
// 1's reducer for partition 1 blocks (with a deadline) until stage 2's map
// over partition 0 has run. With a stage barrier this deadlocks until the
// deadline and fails; with partition-level dependencies it passes quickly.
std::atomic<bool> g_stage2_started{false};

/// Routes keys "p0..." to partition 0 and "p1..." to partition 1 so the test
/// controls exactly which reduce task blocks.
class PrefixPartitioner : public Partitioner {
 public:
  int Partition(const Slice& key, int num_partitions) const override {
    (void)num_partitions;
    return key.size() > 1 && key.data()[1] == '1' ? 1 : 0;
  }
};

TEST(Engine, CrossStagePipelining) {
  g_stage2_started.store(false);

  // Stage 1: two reduce partitions with an explicit prefix partitioner.
  JobSpec stage1;
  stage1.name = "gate";
  stage1.num_reduce_tasks = 2;
  stage1.mapper_factory = []() { return std::make_unique<IdentityMapper>(); };
  stage1.partitioner = std::make_shared<PrefixPartitioner>();
  // Partition 0's reducer finishes immediately; partition 1's reducer spins
  // until stage 2's map (over partition 0) has started, with a deadline so
  // a regression fails rather than hangs.
  stage1.reducer_factory = []() {
    class SpinReducer : public Reducer {
     public:
      void Reduce(const Slice& key, ValueIterator* values,
                  ReduceContext* ctx) override {
        Slice v;
        while (values->Next(&v)) ctx->Emit(key, v);
        if (key.size() > 1 && key[1] == '1') {
          const auto deadline =
              std::chrono::steady_clock::now() + std::chrono::seconds(10);
          while (!g_stage2_started.load(std::memory_order_acquire) &&
                 std::chrono::steady_clock::now() < deadline) {
            std::this_thread::yield();
          }
          EXPECT_TRUE(g_stage2_started.load(std::memory_order_acquire))
              << "stage 2 never started while stage 1 was still running: "
                 "no cross-stage pipelining";
        }
      }
    };
    return std::make_unique<SpinReducer>();
  };

  JobSpec stage2;
  stage2.name = "observe";
  stage2.num_reduce_tasks = 1;
  stage2.mapper_factory = []() {
    class ObserveMapper : public Mapper {
     public:
      void Map(const Slice& key, const Slice& value, MapContext* ctx) override {
        g_stage2_started.store(true, std::memory_order_release);
        ctx->Emit(key, value);
      }
    };
    return std::make_unique<ObserveMapper>();
  };
  stage2.reducer_factory = []() {
    return std::make_unique<IdentityReducer>();
  };

  JobPlan plan;
  plan.name = "pipelining";
  std::vector<KV> input = {{"p0_a", "1"}, {"p0_b", "2"}, {"p1_a", "3"}};
  ASSERT_TRUE(plan.AddInput("in", MakeSplits(input, 1)).ok());
  Stage first;
  first.name = "gate";
  first.spec = stage1;
  first.inputs = {"in"};
  first.output = "mid";
  plan.AddStage(std::move(first));
  Stage second;
  second.name = "observe";
  second.spec = stage2;
  second.inputs = {"mid"};
  second.output = "out";
  plan.AddStage(std::move(second));

  // >= 4 workers: stage 1's spinning reduce must not starve stage 2's map.
  ExecutorOptions options;
  options.num_workers = 4;
  Executor executor(options);
  PlanResult result;
  const Status st = executor.Run(plan, &result);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE(g_stage2_started.load());
  EXPECT_EQ(result.FlatOutput("out").size(), 3u);
  // The overlap metric must see the concurrent stage activity.
  EXPECT_GT(result.stage_overlap_nanos, 0u);
}

// ---- PageRank equivalence --------------------------------------------------

// The DAG plan and a per-iteration loop of RunJob calls must produce
// byte-identical ranks: same per-key value order into every reduce, hence
// the same float summation order, hence the same formatted output.
TEST(Engine, PageRankDagMatchesLegacyLoopExactly) {
  GraphConfig gc;
  gc.num_nodes = 500;
  gc.seed = 7;
  const std::vector<KV> graph = GraphGenerator(gc).Generate();

  workloads::PageRankConfig cfg;
  cfg.num_nodes = gc.num_nodes;
  cfg.num_reduce_tasks = 4;
  const int iterations = 4;

  for (const bool anti : {false, true}) {
    SCOPED_TRACE(anti ? "anti-combining" : "original");
    anticombine::AntiCombineOptions options;
    const anticombine::AntiCombineOptions* anti_ptr = anti ? &options : nullptr;

    // Reference: one job per iteration, each iteration's output re-split
    // into the next one's input.
    JobSpec spec = workloads::MakePageRankJob(cfg);
    if (anti) spec = anticombine::EnableAntiCombining(spec, options);
    std::vector<KV> legacy = graph;
    for (int it = 0; it < iterations; ++it) {
      JobResult job;
      ASSERT_TRUE(RunJob(spec, MakeSplits(std::move(legacy), 3), &job).ok());
      legacy = job.FlatOutput();
    }

    workloads::PageRankRunResult dag;
    PlanResult plan_result;
    ASSERT_TRUE(workloads::RunPageRank(cfg, graph, iterations, anti_ptr,
                                       /*num_map_tasks=*/3, &dag,
                                       /*executor=*/nullptr, &plan_result)
                    .ok());
    EXPECT_EQ(plan_result.stages.size(), static_cast<size_t>(iterations));

    // Byte-identical: same keys, same formatted rank strings, same order.
    ASSERT_EQ(legacy.size(), dag.final_ranks.size());
    for (size_t i = 0; i < legacy.size(); ++i) {
      ASSERT_EQ(legacy[i].key, dag.final_ranks[i].key) << "at record " << i;
      ASSERT_EQ(legacy[i].value, dag.final_ranks[i].value)
          << "at record " << i << " node=" << legacy[i].key;
    }
  }
}

// Executor reuse: the same executor runs several plans back to back on its
// persistent pool.
TEST(Engine, ExecutorIsReusable) {
  Executor executor;
  for (int round = 0; round < 3; ++round) {
    JobPlan plan;
    ASSERT_TRUE(plan.AddInput("in", MakeSplits(SmallInput("k", 30), 2)).ok());
    Stage stage;
    stage.name = "count";
    stage.spec = CountSpec("count", 2);
    stage.inputs = {"in"};
    stage.output = "out";
    plan.AddStage(std::move(stage));
    PlanResult result;
    const Status st = executor.Run(plan, &result);
    ASSERT_TRUE(st.ok()) << "round " << round << ": " << st.ToString();
    EXPECT_EQ(result.FlatOutput("out").size(), 7u);
  }
}

/// Env wrapper whose writes always fail — the simplest way to push a plan
/// onto its failure path without touching the fault-injection harness.
class WriteFailEnv : public Env {
 public:
  explicit WriteFailEnv(std::unique_ptr<Env> base) : base_(std::move(base)) {}

  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* file) override {
    (void)fname;
    (void)file;
    return Status::IOError("writes disabled");
  }
  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* file) override {
    return base_->NewSequentialFile(fname, file);
  }
  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* file) override {
    return base_->NewRandomAccessFile(fname, file);
  }
  Status GetFileSize(const std::string& fname, uint64_t* size) override {
    return base_->GetFileSize(fname, size);
  }
  Status DeleteFile(const std::string& fname) override {
    return base_->DeleteFile(fname);
  }
  bool FileExists(const std::string& fname) override {
    return base_->FileExists(fname);
  }
  Status ListFiles(std::vector<std::string>* names) override {
    return base_->ListFiles(names);
  }
  IoStats stats() const override { return base_->stats(); }
  void ResetStats() override { base_->ResetStats(); }

 private:
  std::unique_ptr<Env> base_;
};

// A failed plan must not strand intermediate datasets: consumers skipped by
// the failure cascade never call ConsumerDone, so the run epilogue has to
// force-release whatever is still held.
TEST(Engine, FailedPlanReleasesAllDatasets) {
  WriteFailEnv env(NewMemEnv());
  ExecutorOptions options;
  options.env = &env;
  Executor executor(options);

  JobPlan plan;
  ASSERT_TRUE(plan.AddInput("in", MakeSplits(SmallInput("k", 30), 2)).ok());
  Stage first;
  first.name = "identity";
  first.spec = IdentitySpec("identity", 2);
  first.inputs = {"in"};
  first.output = "mid";
  plan.AddStage(std::move(first));
  Stage second;
  second.name = "count";
  second.spec = CountSpec("count", 2);
  second.inputs = {"mid"};
  second.output = "out";
  plan.AddStage(std::move(second));

  PlanResult result;
  const Status st = executor.Run(plan, &result);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  ASSERT_FALSE(result.datasets.empty());
  for (const engine::DatasetInfo& ds : result.datasets) {
    if (ds.external || ds.retained) continue;
    EXPECT_TRUE(ds.released) << "dataset " << ds.name
                             << " leaked on the failure path";
  }
}

}  // namespace
}  // namespace antimr
