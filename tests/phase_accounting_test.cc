// The phase clock's invariant, end to end: in every task of every workload
// under every strategy, locally and on a loopback cluster, the exclusive
// phases plus `other` add up to the task's wall time as read at its
// boundaries, to the nanosecond. Plus the remap registry counter, which is
// derived from the same per-task count JobMetrics reports.
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "anticombine/transform.h"
#include "datagen/cloud.h"
#include "datagen/graph.h"
#include "datagen/qlog.h"
#include "datagen/random_text.h"
#include "engine/coordinator.h"
#include "engine/job_registry.h"
#include "engine/worker.h"
#include "mr/job_runner.h"
#include "net/transport.h"
#include "obs/metrics_registry.h"
#include "workloads/pagerank.h"
#include "workloads/query_suggestion.h"
#include "workloads/sort.h"
#include "workloads/theta_join.h"
#include "workloads/wordcount.h"

namespace antimr {
namespace {

constexpr int kMaps = 4;
constexpr int kReduces = 3;
constexpr uint64_t kGraphNodes = 300;

struct Workload {
  const char* name;
  std::function<JobSpec()> make;
  std::function<std::vector<KV>()> input;
};

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = {
      {"wordcount",
       [] {
         workloads::WordCountConfig c;
         c.num_reduce_tasks = kReduces;
         return workloads::MakeWordCountJob(c);
       },
       [] {
         RandomTextConfig c;
         c.num_lines = 1500;
         c.vocabulary_words = 400;
         return RandomTextGenerator(c).Generate();
       }},
      {"sort",
       [] {
         workloads::SortConfig c;
         c.num_reduce_tasks = kReduces;
         c.codec = CodecType::kGzip;
         return workloads::MakeSortJob(c);
       },
       [] {
         RandomTextConfig c;
         c.num_lines = 1500;
         return RandomTextGenerator(c).Generate();
       }},
      {"qsuggest_prefix5",
       [] {
         workloads::QuerySuggestionConfig c;
         c.scheme = workloads::QuerySuggestionConfig::Scheme::kPrefix5;
         c.num_reduce_tasks = kReduces;
         return workloads::MakeQuerySuggestionJob(c);
       },
       [] {
         QLogConfig c;
         c.num_records = 3000;
         c.num_distinct = 800;
         return QLogGenerator(c).Generate();
       }},
      {"thetajoin",
       [] {
         workloads::ThetaJoinConfig c;
         c.grid_rows = 3;
         c.grid_cols = 3;
         c.num_reduce_tasks = kReduces;
         return workloads::MakeThetaJoinJob(c);
       },
       [] {
         CloudConfig c;
         c.num_records = 600;
         return CloudGenerator(c).Generate();
       }},
      {"pagerank",
       [] {
         workloads::PageRankConfig c;
         c.num_nodes = kGraphNodes;
         c.num_reduce_tasks = kReduces;
         return workloads::MakePageRankJob(c);
       },
       [] {
         GraphConfig c;
         c.num_nodes = kGraphNodes;
         c.mean_out_degree = 8;
         return GraphGenerator(c).Generate();
       }},
  };
  return workloads;
}

// Original plus the three Anti-Combining strategies; AdaptiveSH with the
// paper's runtime threshold, so the adaptive test reads the clock.
// "adaptive_w8" is AdaptiveSH over a cross-call window of 8 Map calls.
const char* const kStrategies[] = {"original", "eager", "lazy", "adaptive"};

anticombine::AntiCombineOptions StrategyOptions(const std::string& s) {
  if (s == "eager") return anticombine::AntiCombineOptions::EagerOnly();
  if (s == "lazy") return anticombine::AntiCombineOptions::LazyOnly();
  anticombine::AntiCombineOptions options =
      anticombine::AntiCombineOptions::Alpha();
  if (s == "adaptive_w8") options.cross_call_window = 8;
  return options;
}

// Registers each workload as "phase_<name>" with a `strategy` param, so the
// loopback workers rebuild the same spec the local run uses.
void RegisterWorkloads() {
  for (const Workload& w : Workloads()) {
    engine::RegisterJobBuilder(
        std::string("phase_") + w.name,
        [make = w.make](const std::map<std::string, std::string>& params,
                        JobSpec* spec) {
          *spec = make();
          auto it = params.find("strategy");
          if (it != params.end() && it->second != "original") {
            *spec = anticombine::EnableAntiCombining(
                *spec, StrategyOptions(it->second));
          }
          return Status::OK();
        });
  }
}

std::vector<std::vector<KV>> Chunk(const std::vector<KV>& records, int n) {
  std::vector<std::vector<KV>> chunks(static_cast<size_t>(n));
  for (size_t i = 0; i < records.size(); ++i) {
    chunks[i * static_cast<size_t>(n) / records.size()].push_back(records[i]);
  }
  return chunks;
}

void ExpectPhasesTileEveryTask(const std::vector<TaskMetrics>& tasks,
                               const JobMetrics& job, size_t expected_tasks) {
  ASSERT_EQ(tasks.size(), expected_tasks);
  for (const TaskMetrics& t : tasks) {
    const JobMetrics& m = t.metrics;
    EXPECT_GT(m.task_wall_nanos, 0u);
    EXPECT_EQ(m.cpu.Total(), m.task_wall_nanos)
        << (t.is_map ? "map " : "reduce ") << t.task_id;
  }
  EXPECT_EQ(job.cpu.Total(), job.task_wall_nanos);
}

class PhaseClusterTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { RegisterWorkloads(); }

  void StartCluster() {
    transport_ = net::NewLoopbackTransport();
    coord_ = std::make_unique<engine::Coordinator>(transport_.get(),
                                                   engine::CoordinatorOptions());
    ASSERT_TRUE(coord_->Start("").ok());
    for (int i = 0; i < 2; ++i) {
      engine::WorkerOptions options;
      options.name = "w" + std::to_string(i);
      options.slots = 2;
      workers_.push_back(
          std::make_unique<engine::Worker>(transport_.get(), options));
      ASSERT_TRUE(workers_.back()->Start(coord_->addr()).ok());
    }
    ASSERT_TRUE(coord_->WaitForWorkers(2, 10ull * 1000 * 1000 * 1000));
  }

  void TearDown() override {
    if (coord_ != nullptr) coord_->Stop();
    for (auto& worker : workers_) worker->Stop();
  }

  // Run workload `w` under `strategy` locally and on the started loopback
  // cluster: every task of both runs tiles its wall time, and both runs
  // produce the same output.
  void ExpectPhasesTileLocallyAndOnLoopback(const Workload& w,
                                            const std::vector<KV>& input,
                                            const char* strategy) {
    const std::string job = std::string("phase_") + w.name;
    SCOPED_TRACE(job + " " + strategy);
    const net::JobParams params = {{"strategy", strategy}};

    JobSpec spec;
    ASSERT_TRUE(engine::BuildRegisteredJob(job, params, &spec).ok());
    RunOptions run;
    run.num_workers = 2;
    run.collect_task_metrics = true;
    JobResult local;
    ASSERT_TRUE(RunJob(spec, MakeSplits(input, kMaps), run, &local).ok());
    ExpectPhasesTileEveryTask(local.task_metrics, local.metrics,
                              kMaps + kReduces);

    engine::DistJobOptions options;
    options.job_name = job;
    options.params = params;
    options.splits = Chunk(input, kMaps);
    engine::DistJobResult dist;
    const Status st = engine::RunDistributedJob(coord_.get(), options, &dist);
    ASSERT_TRUE(st.ok()) << st.ToString();
    ExpectPhasesTileEveryTask(dist.tasks, dist.metrics, kMaps + kReduces);
    EXPECT_EQ(dist.FlatOutput(), local.FlatOutput());
  }

  std::unique_ptr<net::Transport> transport_;
  std::unique_ptr<engine::Coordinator> coord_;
  std::vector<std::unique_ptr<engine::Worker>> workers_;
};

class PhaseAccountingTest : public PhaseClusterTest,
                            public ::testing::WithParamInterface<size_t> {};

TEST_P(PhaseAccountingTest, PhasesPlusOtherEqualTaskWallTime) {
  const Workload& w = Workloads()[GetParam()];
  const std::vector<KV> input = w.input();
  ASSERT_NO_FATAL_FAILURE(StartCluster());
  for (const char* strategy : kStrategies) {
    ASSERT_NO_FATAL_FAILURE(
        ExpectPhasesTileLocallyAndOnLoopback(w, input, strategy));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, PhaseAccountingTest, ::testing::Range<size_t>(0, 5),
    [](const ::testing::TestParamInfo<size_t>& info) {
      return std::string(Workloads()[info.param].name);
    });

// The cross-call window encodes a batch of Map calls at once: the batch's
// Partition calls, encode work and the user's Map time still tile each
// task's wall time exactly.
TEST_F(PhaseClusterTest, CrossCallWindowPhasesTileWordCountTasks) {
  const Workload& w = Workloads()[0];
  ASSERT_NO_FATAL_FAILURE(StartCluster());
  ExpectPhasesTileLocallyAndOnLoopback(w, w.input(), "adaptive_w8");
}

// The registry's remap counter sees the map-side AntiCombiner's
// re-executions as well as the reducers': with C=1 every LazySH record is
// decoded by the map-side combiner first.
TEST(RemapCounter, MatchesJobRemapCallsWithMapPhaseCombiner) {
  obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter(
      "antimr_remap_calls_total",
      "LazySH decodes that re-executed the original Map");
  anticombine::AntiCombineOptions options =
      anticombine::AntiCombineOptions::LazyOnly();
  options.map_phase_combiner = true;
  const JobSpec spec = anticombine::EnableAntiCombining(
      Workloads()[0].make(), options);
  const uint64_t before = counter->value();
  JobResult result;
  ASSERT_TRUE(
      RunJob(spec, MakeSplits(Workloads()[0].input(), kMaps), &result).ok());
  ASSERT_GT(result.metrics.remap_calls, 0u);
  EXPECT_EQ(counter->value() - before, result.metrics.remap_calls);
}

}  // namespace
}  // namespace antimr
