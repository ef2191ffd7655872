// The distributed engine end to end: a Coordinator plus in-process Worker
// objects over one shared transport must produce byte-identical output to
// the single-process RunJob path — on the loopback transport and on real
// TCP sockets, with and without workers dying mid-job. Worker-loss recovery
// is the MapReduce contract: segments on a dead worker are gone, so the
// driver re-runs that worker's maps elsewhere before retrying the reduce.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "engine/coordinator.h"
#include "engine/executor.h"
#include "engine/job_plan.h"
#include "engine/job_registry.h"
#include "engine/job_service.h"
#include "engine/remote_runner.h"
#include "engine/skew_runner.h"
#include "engine/worker.h"
#include "datagen/cloud.h"
#include "datagen/random_text.h"
#include "mr/map_output_buffer.h"
#include "net/frame.h"
#include "net/http.h"
#include "net/transport.h"
#include "net/wire.h"
#include "obs/federation.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "test_util.h"
#include "workloads/registry.h"

namespace antimr {
namespace {

using engine::Coordinator;
using engine::CoordinatorOptions;
using engine::DistJobOptions;
using engine::DistJobResult;
using engine::RunDistributedJob;
using engine::Worker;
using engine::WorkerOptions;

/// Chunk records exactly like MakeSplits so the distributed splits carry the
/// same per-map record ranges as the single-process splits.
std::vector<std::vector<KV>> Chunk(std::vector<KV> records, int num_splits) {
  std::vector<std::vector<KV>> chunks;
  const size_t per =
      (records.size() + num_splits - 1) / static_cast<size_t>(num_splits);
  for (size_t start = 0; start < records.size(); start += per) {
    const size_t end = std::min(records.size(), start + per);
    chunks.emplace_back(records.begin() + static_cast<long>(start),
                        records.begin() + static_cast<long>(end));
  }
  if (chunks.empty()) chunks.emplace_back();
  return chunks;
}

std::vector<KV> WordCountInput() {
  RandomTextConfig config;
  config.num_lines = 3000;
  config.seed = 11;
  return RandomTextGenerator(config).Generate();
}

/// Single-process reference output for a registered job over `records`.
std::vector<KV> SingleProcessOutput(const std::string& job_name,
                                    const net::JobParams& params,
                                    const std::vector<KV>& records,
                                    int maps) {
  JobSpec spec;
  Status st = engine::BuildRegisteredJob(job_name, params, &spec);
  EXPECT_TRUE(st.ok()) << st.ToString();
  RunOptions run;
  run.collect_output = true;
  JobResult result;
  st = RunJob(spec, MakeSplits(records, maps), run, &result);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return result.FlatOutput();
}

/// Single-process run of a registered job, with each map task's spill
/// count in *map_spills (in no particular order).
JobResult LocalRun(const std::string& job_name, const net::JobParams& params,
                   const std::vector<KV>& records, int maps,
                   std::vector<uint64_t>* map_spills) {
  JobSpec spec;
  Status st = engine::BuildRegisteredJob(job_name, params, &spec);
  EXPECT_TRUE(st.ok()) << st.ToString();
  RunOptions run;
  run.collect_output = true;
  run.collect_task_metrics = true;
  JobResult result;
  st = RunJob(spec, MakeSplits(records, maps), run, &result);
  EXPECT_TRUE(st.ok()) << st.ToString();
  map_spills->clear();
  for (const TaskMetrics& task : result.task_metrics) {
    if (task.is_map) map_spills->push_back(task.metrics.map_spills);
  }
  return result;
}

/// map_buffer_bytes under which every chunk, emitted record for record (an
/// identity mapper, like sort's), spills exactly twice: the buffer fills
/// once past half of the largest chunk, and before the smallest one ends.
size_t TwoSpillBufferBytes(const std::vector<std::vector<KV>>& chunks,
                           int reduces) {
  size_t smallest = SIZE_MAX;
  size_t largest = 0;
  for (const std::vector<KV>& chunk : chunks) {
    MapOutputBuffer buffer(reduces, BytewiseCompare);
    for (const KV& kv : chunk) buffer.Add(0, kv.key, kv.value);
    smallest = std::min(smallest, buffer.memory_usage());
    largest = std::max(largest, buffer.memory_usage());
  }
  const size_t bytes = smallest * 6 / 10;
  EXPECT_GT(bytes, largest / 2) << "chunks too uneven for two spills each";
  return bytes;
}

/// Zipf(s) wordcount input: `lines` lines of `words_per_line` words drawn
/// from a `vocab`-word dictionary; rank 0 dominates.
std::vector<KV> ZipfLines(int lines, size_t vocab, double s,
                          int words_per_line, uint64_t seed) {
  Random rng(seed);
  ZipfSampler zipf(vocab, s);
  std::vector<KV> records;
  for (int i = 0; i < lines; ++i) {
    std::string line;
    for (int j = 0; j < words_per_line; ++j) {
      if (j > 0) line += ' ';
      char word[16];
      std::snprintf(word, sizeof(word), "w%04zu", zipf.Sample(&rng));
      line += word;
    }
    records.push_back({"", std::move(line)});
  }
  return records;
}

/// Max over mean of per-reducer loads; 0 when nothing was shuffled.
double LoadSpread(const std::vector<uint64_t>& loads) {
  uint64_t max = 0, total = 0;
  for (uint64_t v : loads) {
    max = std::max(max, v);
    total += v;
  }
  return total == 0 ? 0
                    : static_cast<double>(max) * static_cast<double>(
                                                     loads.size()) /
                          static_cast<double>(total);
}

constexpr int kPipelineMaps = 4;
constexpr int kPipelineReduces = 4;

/// The `pipeline` command's wordcount -> sort plan built from registered
/// stages: EagerSH on the counts, LazySH on the re-sort.
engine::JobPlan PipelinePlan(const std::vector<KV>& input,
                             const std::string& sort_builder = "sort") {
  const std::string reduces = std::to_string(kPipelineReduces);
  engine::JobPlan plan;
  plan.name = "wordcount_sort";
  EXPECT_TRUE(plan.AddInput("lines", MakeSplits(input, kPipelineMaps)).ok());
  engine::Stage count;
  count.inputs = {"lines"};
  count.output = "counts";
  EXPECT_TRUE(engine::MakeRegisteredStage(
                  "wordcount", {{"reduces", reduces}, {"anti_combine", "eager"}},
                  &count)
                  .ok());
  plan.AddStage(std::move(count));
  engine::Stage sort;
  sort.inputs = {"counts"};
  sort.output = "sorted";
  EXPECT_TRUE(engine::MakeRegisteredStage(
                  sort_builder, {{"reduces", reduces}, {"anti_combine", "lazy"}},
                  &sort)
                  .ok());
  plan.AddStage(std::move(sort));
  return plan;
}

/// Set to make "sort_poisonable" builds fail, as a job's builder would on
/// a worker that cannot build it.
std::atomic<bool> g_sort_poisoned{false};

/// The process's open file descriptors.
size_t OpenFds() {
  size_t n = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    (void)entry;
    ++n;
  }
  return n;
}

class DistClusterTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    workloads::RegisterStandardJobs();
    transport_ = GetParam() == std::string("tcp")
                     ? net::NewTcpTransport()
                     : net::NewLoopbackTransport();
    CoordinatorOptions options;
    // Fast loss detection keeps the crash tests quick; workers heartbeat
    // every 50ms so a healthy worker never trips it.
    options.heartbeat_timeout_nanos = 400ull * 1000 * 1000;
    options.monitor_period_nanos = 20ull * 1000 * 1000;
    coord_ = std::make_unique<Coordinator>(transport_.get(), options);
    ASSERT_TRUE(coord_->Start("").ok());
  }

  void TearDown() override {
    coord_->Stop();
    for (auto& worker : workers_) worker->Stop();
  }

  void StartWorkers(int n, Env* env = nullptr) {
    for (int i = 0; i < n; ++i) {
      WorkerOptions options;
      options.name = "w" + std::to_string(i);
      options.slots = 2;
      options.heartbeat_period_nanos = 50ull * 1000 * 1000;
      options.env = env;
      workers_.push_back(
          std::make_unique<Worker>(transport_.get(), options));
    }
    // Hooks must be in place before Start; tests that use them set the
    // shared state the hooks read afterwards.
    for (auto& worker : workers_) {
      ASSERT_TRUE(worker->Start(coord_->addr()).ok());
    }
    ASSERT_TRUE(coord_->WaitForWorkers(n, 10ull * 1000 * 1000 * 1000));
  }

  /// Wordcount whose every map spills three or more times must give the
  /// local run's output, in order, and its shuffle bytes.
  void CheckManySpillWordCount(bool combiner) {
    const std::vector<KV> input = WordCountInput();
    constexpr int kMaps = 4;
    const net::JobParams params = {{"reduces", "4"},
                                   {"combiner", combiner ? "1" : "0"},
                                   {"map_buffer_bytes", "4096"}};
    std::vector<uint64_t> map_spills;
    const JobResult local =
        LocalRun("wordcount", params, input, kMaps, &map_spills);
    ASSERT_EQ(map_spills.size(), static_cast<size_t>(kMaps));
    for (uint64_t spills : map_spills) {
      ASSERT_GE(spills, 3u) << "premise: every map spills three times";
    }
    StartWorkers(2);

    DistJobOptions options;
    options.job_name = "wordcount";
    options.params = params;
    options.splits = Chunk(input, kMaps);
    DistJobResult result;
    const Status st = RunDistributedJob(coord_.get(), options, &result);
    ASSERT_TRUE(st.ok()) << st.ToString();

    EXPECT_EQ(result.metrics.map_spills, local.metrics.map_spills);
    EXPECT_EQ(engine::OutputMultisetHash(result.FlatOutput()),
              engine::OutputMultisetHash(local.FlatOutput()));
    EXPECT_EQ(result.FlatOutput(), local.FlatOutput());
    EXPECT_EQ(result.metrics.shuffle_bytes, local.metrics.shuffle_bytes);
  }

  /// Runs `plan` on the workers through a RemoteRunner.
  Status RunRemote(const engine::JobPlan& plan, DistJobResult* result,
                   const std::atomic<bool>* abort = nullptr,
                   const std::string& job_id = "") {
    DistJobOptions options;
    options.job_name = plan.name;
    options.job_id = job_id;
    options.max_task_attempts = 4;
    engine::RemoteRunner runner(coord_.get(), options);
    runner.abort = abort;
    return runner.Run(plan, result);
  }

  /// Blocks until no file of job `scope` is left in `env` (scrub frames
  /// are asynchronous); fails the test after a deadline.
  void ExpectScrubbed(Env* env, const std::string& scope) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    for (;;) {
      std::vector<std::string> names;
      ASSERT_TRUE(env->ListFiles(&names).ok());
      size_t in_scope = 0;
      for (const std::string& name : names) {
        if (engine::JobIdInScope(name, scope)) ++in_scope;
      }
      if (in_scope == 0) return;
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << in_scope << " files of " << scope << " left on workers";
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  std::unique_ptr<net::Transport> transport_;
  std::unique_ptr<Coordinator> coord_;
  std::vector<std::unique_ptr<Worker>> workers_;
  // Outlives TearDown's coordinator Stop: its /jobs handler points here.
  std::unique_ptr<engine::JobService> service_;
  // Borrowed by workers and their hooks, so it lives on the fixture: worker
  // threads can still touch it until TearDown stops them.
  std::unique_ptr<Env> shared_env_;
  std::atomic<int> map_starts_{0};
  std::atomic<int> reduce_starts_{0};
};

TEST_P(DistClusterTest, WordCountMatchesSingleProcess) {
  const std::vector<KV> input = WordCountInput();
  const net::JobParams params = {{"reduces", "4"},
                                 {"anti_combine", "adaptive"}};
  StartWorkers(3);

  DistJobOptions options;
  options.job_name = "wordcount";
  options.params = params;
  options.splits = Chunk(input, 6);
  DistJobResult result;
  const Status st = RunDistributedJob(coord_.get(), options, &result);
  ASSERT_TRUE(st.ok()) << st.ToString();

  EXPECT_EQ(result.FlatOutput(),
            SingleProcessOutput("wordcount", params, input, 6));
  EXPECT_EQ(result.map_reruns, 0u);
  EXPECT_GT(result.metrics.output_records, 0u);
}

TEST_P(DistClusterTest, ThetaJoinMatchesSingleProcess) {
  CloudConfig config;
  config.num_records = 2000;
  config.seed = 5;
  const std::vector<KV> input = CloudGenerator(config).Generate();
  const net::JobParams params = {{"reduces", "4"},
                                 {"grid_rows", "4"},
                                 {"grid_cols", "4"},
                                 {"anti_combine", "eager"}};
  StartWorkers(2);

  DistJobOptions options;
  options.job_name = "theta_join";
  options.params = params;
  options.splits = Chunk(input, 4);
  DistJobResult result;
  const Status st = RunDistributedJob(coord_.get(), options, &result);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(result.FlatOutput(),
            SingleProcessOutput("theta_join", params, input, 4));
}

// Each task counts its own disk traffic on the worker's Env, and a reduce
// adds the stored bytes of the segments it fetched (the serving worker read
// exactly those), so a fault-free distributed job reports the local run's
// disk bytes.
TEST_P(DistClusterTest, DiskBytesMatchSingleProcess) {
  CloudConfig cloud;
  cloud.num_records = 1000;
  cloud.seed = 5;
  const struct {
    const char* job;
    std::vector<KV> input;
    net::JobParams params;
  } cases[] = {
      {"wordcount", WordCountInput(), {{"reduces", "4"}}},
      {"theta_join", CloudGenerator(cloud).Generate(),
       {{"reduces", "4"}, {"grid_rows", "4"}, {"grid_cols", "4"}}},
  };
  StartWorkers(2);
  for (const auto& c : cases) {
    SCOPED_TRACE(c.job);
    std::vector<uint64_t> map_spills;
    const JobResult local = LocalRun(c.job, c.params, c.input, 4, &map_spills);
    ASSERT_GT(local.metrics.disk_bytes_written, 0u);

    DistJobOptions options;
    options.job_name = c.job;
    options.params = c.params;
    options.splits = Chunk(c.input, 4);
    DistJobResult result;
    const Status st = RunDistributedJob(coord_.get(), options, &result);
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(result.metrics.disk_bytes_read, local.metrics.disk_bytes_read);
    EXPECT_EQ(result.metrics.disk_bytes_written,
              local.metrics.disk_bytes_written);
  }
}

// Every worker reduce task opens its own fetch conns and closes them when it
// ends. The SegmentServers must reap those conns, so a stream of jobs does
// not grow the handler threads, or on TCP the process's fds, with the
// number of jobs run.
TEST_P(DistClusterTest, SequentialJobsLeaveNoServerConnsBehind) {
  StartWorkers(2);
  DistJobOptions options;
  options.job_name = "wordcount";
  options.params = {{"reduces", "8"}};
  options.splits = Chunk(WordCountInput(), 4);
  size_t fds_after_first = 0;
  for (int job = 0; job < 30; ++job) {
    DistJobResult result;
    const Status st = RunDistributedJob(coord_.get(), options, &result);
    ASSERT_TRUE(st.ok()) << st.ToString();
    if (job == 0) fds_after_first = OpenFds();
  }
  // 8 reduces each dial both workers: 16 conns per job. What may stay is
  // the handlers finished since each server's last accept, not a socket and
  // a thread per conn of every job.
  EXPECT_LE(OpenFds(), fds_after_first + 16);
  for (const auto& worker : workers_) {
    EXPECT_LE(worker->shuffle_server().conns().handler_threads(), 16u);
  }
}

// A map with two spills ships one run per spill, so each reduce fetches
// several segments from every map's worker. Every run must cross the wire,
// in (map, run) order, or records silently go missing.
TEST_P(DistClusterTest, TwoSpillMapsShipEveryRun) {
  const std::vector<KV> input = WordCountInput();
  constexpr int kMaps = 4;
  const std::vector<std::vector<KV>> chunks = Chunk(input, kMaps);
  const net::JobParams params = {
      {"reduces", "4"},
      {"map_buffer_bytes", std::to_string(TwoSpillBufferBytes(chunks, 4))}};
  std::vector<uint64_t> map_spills;
  const JobResult local = LocalRun("sort", params, input, kMaps, &map_spills);
  ASSERT_EQ(map_spills, std::vector<uint64_t>(kMaps, 2))
      << "premise: every map spills twice";
  StartWorkers(2);

  DistJobOptions options;
  options.job_name = "sort";
  options.params = params;
  options.splits = chunks;
  DistJobResult result;
  const Status st = RunDistributedJob(coord_.get(), options, &result);
  ASSERT_TRUE(st.ok()) << st.ToString();

  EXPECT_EQ(result.metrics.map_spills, 2u * kMaps);
  EXPECT_EQ(engine::OutputMultisetHash(result.FlatOutput()),
            engine::OutputMultisetHash(local.FlatOutput()));
  EXPECT_EQ(result.FlatOutput(), local.FlatOutput());
  EXPECT_EQ(result.metrics.shuffle_bytes, local.metrics.shuffle_bytes);
}

// From three spills on, a map with a Combiner merges and combines its runs
// into one segment per partition before shipping it.
TEST_P(DistClusterTest, ManySpillMapsShipMergedSegments) {
  CheckManySpillWordCount(/*combiner=*/true);
}

// Without a Combiner a map ships every run however often it spilled.
TEST_P(DistClusterTest, ManySpillMapsWithoutCombinerShipEveryRun) {
  CheckManySpillWordCount(/*combiner=*/false);
}

TEST_P(DistClusterTest, WorkerCrashMidMapRecovers) {
  const std::vector<KV> input = WordCountInput();
  const net::JobParams params = {{"reduces", "3"}};
  std::atomic<bool> crashed{false};
  StartWorkers(3);
  // The first map that lands on worker 0 kills it mid-task: its result is
  // never sent and every segment it produced is unreachable.
  workers_[0]->on_map_start = [&](int, uint32_t) {
    if (!crashed.exchange(true)) workers_[0]->Crash();
  };

  DistJobOptions options;
  options.job_name = "wordcount";
  options.params = params;
  options.splits = Chunk(input, 6);
  options.max_task_attempts = 4;
  DistJobResult result;
  const Status st = RunDistributedJob(coord_.get(), options, &result);
  ASSERT_TRUE(st.ok()) << st.ToString();

  EXPECT_TRUE(crashed.load());
  EXPECT_EQ(result.FlatOutput(),
            SingleProcessOutput("wordcount", params, input, 6));
}

TEST_P(DistClusterTest, WorkerCrashMidShuffleFetchRecovers) {
  const std::vector<KV> input = WordCountInput();
  const net::JobParams params = {{"reduces", "4"}};
  StartWorkers(2);

  // Kill the worker that owns map 0's segments the moment a reduce on the
  // *other* worker starts — that reduce's shuffle fetches hit a dead
  // SegmentServer, so recovery must re-run the lost maps, not just retry
  // the fetch.
  std::atomic<Worker*> map_owner{nullptr};
  std::atomic<bool> crashed{false};
  for (auto& worker : workers_) {
    Worker* self = worker.get();
    self->on_map_start = [&map_owner, self](int, uint32_t) {
      Worker* expected = nullptr;
      map_owner.compare_exchange_strong(expected, self);
    };
    self->on_reduce_start = [&map_owner, &crashed, self](int, uint32_t) {
      Worker* owner = map_owner.load();
      if (owner != nullptr && owner != self && !crashed.exchange(true)) {
        owner->Crash();
      }
    };
  }

  DistJobOptions options;
  options.job_name = "wordcount";
  options.params = params;
  options.splits = Chunk(input, 6);
  options.max_task_attempts = 4;
  DistJobResult result;
  const Status st = RunDistributedJob(coord_.get(), options, &result);
  ASSERT_TRUE(st.ok()) << st.ToString();

  EXPECT_TRUE(crashed.load());
  EXPECT_GT(result.map_reruns, 0u);
  EXPECT_EQ(result.FlatOutput(),
            SingleProcessOutput("wordcount", params, input, 6));
}

TEST_P(DistClusterTest, SilentWorkerIsDeclaredLostByHeartbeatTimeout) {
  obs::Counter* lost = obs::MetricsRegistry::Global().GetCounter(
      "antimr_coord_workers_lost_total", "");
  const uint64_t lost_before = lost->value();

  // A hand-rolled worker that registers and then goes silent — the conn
  // stays open, so only the heartbeat monitor can declare it dead.
  std::unique_ptr<net::Conn> conn;
  ASSERT_TRUE(transport_->Dial(coord_->addr(), &conn).ok());
  net::RegisterMsg reg;
  reg.worker_name = "zombie";
  reg.shuffle_addr = "nowhere:0";
  reg.slots = 1;
  std::string payload;
  net::EncodeRegister(reg, &payload);
  ASSERT_TRUE(net::WriteFrame(conn.get(), net::kRegister, payload).ok());
  uint8_t type = 0;
  ASSERT_TRUE(net::ReadFrame(conn.get(), &type, &payload).ok());
  ASSERT_EQ(type, net::kRegisterAck);
  ASSERT_EQ(coord_->live_workers(), 1);

  for (int i = 0; i < 100 && coord_->live_workers() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(coord_->live_workers(), 0);
  EXPECT_EQ(lost->value(), lost_before + 1);
}

TEST_P(DistClusterTest, RegisterThenDieIsNotCountedInQuorum) {
  // A worker that registers and immediately dies used to satisfy
  // WaitForWorkers: its `alive` flag is set at registration and only
  // cleared once the receiver observes the closed connection. The settle
  // window re-checks liveness, so the zombie must not be handed to the
  // driver as capacity.
  std::unique_ptr<net::Conn> conn;
  ASSERT_TRUE(transport_->Dial(coord_->addr(), &conn).ok());
  net::RegisterMsg reg;
  reg.worker_name = "flash";
  reg.shuffle_addr = "nowhere:0";
  reg.slots = 1;
  std::string payload;
  net::EncodeRegister(reg, &payload);
  ASSERT_TRUE(net::WriteFrame(conn.get(), net::kRegister, payload).ok());
  uint8_t type = 0;
  ASSERT_TRUE(net::ReadFrame(conn.get(), &type, &payload).ok());
  ASSERT_EQ(type, net::kRegisterAck);
  conn->Close();

  EXPECT_FALSE(coord_->WaitForWorkers(1, 500ull * 1000 * 1000));

  // A healthy worker still satisfies the same quorum (StartWorkers asserts
  // WaitForWorkers returns true).
  StartWorkers(1);
}

TEST_P(DistClusterTest, SpeculationRescuesStragglerWithUnchangedOutput) {
  const std::vector<KV> input = WordCountInput();
  const net::JobParams params = {{"reduces", "3"}};
  StartWorkers(3);

  // The first map placed on worker 0 stalls long past the forced
  // speculation threshold; the backup attempt on another worker must win
  // the race while the straggler is cancelled — and the output must be
  // exactly the single-process result, as if the race never happened.
  std::atomic<bool> stalled{false};
  workers_[0]->on_map_start = [&](int, uint32_t) {
    if (!stalled.exchange(true)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(500));
    }
  };

  DistJobOptions options;
  options.job_name = "wordcount";
  options.params = params;
  options.splits = Chunk(input, 6);
  options.max_task_attempts = 4;
  options.speculative_execution = true;
  options.speculation_force_after_nanos = 50ull * 1000 * 1000;
  DistJobResult result;
  const Status st = RunDistributedJob(coord_.get(), options, &result);
  ASSERT_TRUE(st.ok()) << st.ToString();

  EXPECT_TRUE(stalled.load());
  EXPECT_GE(result.spec_backups, 1u);
  EXPECT_EQ(result.FlatOutput(),
            SingleProcessOutput("wordcount", params, input, 6));
}

TEST_P(DistClusterTest, SpeculationOffByDefaultLaunchesNoBackups) {
  const std::vector<KV> input = WordCountInput();
  StartWorkers(2);
  DistJobOptions options;
  options.job_name = "wordcount";
  options.params = {{"reduces", "3"}};
  options.splits = Chunk(input, 4);
  DistJobResult result;
  const Status st = RunDistributedJob(coord_.get(), options, &result);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(result.spec_backups, 0u);
  EXPECT_EQ(result.spec_backup_wins, 0u);
  EXPECT_EQ(result.spec_cancels, 0u);
}

TEST_P(DistClusterTest, NoWorkersFailsAfterRetryBudget) {
  DistJobOptions options;
  options.job_name = "wordcount";
  options.splits = Chunk(WordCountInput(), 2);
  options.max_task_attempts = 2;
  options.retry_backoff_nanos = 1000;
  DistJobResult result;
  const Status st = RunDistributedJob(coord_.get(), options, &result);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsTransient()) << st.ToString();
}

TEST_P(DistClusterTest, UnknownJobFailsFast) {
  StartWorkers(1);
  DistJobOptions options;
  options.job_name = "no_such_job";
  options.splits = {{}};
  DistJobResult result;
  const Status st = RunDistributedJob(coord_.get(), options, &result);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Status::Code::kNotFound) << st.ToString();
}

TEST_P(DistClusterTest, ClusterTraceCapturesRerunAcrossWorkerLanes) {
  if (!obs::kTraceCompiled) GTEST_SKIP() << "tracing compiled out";
  const std::vector<KV> input = WordCountInput();
  std::atomic<bool> crashed{false};
  StartWorkers(3);
  // Kill one worker mid-map so the merged trace must show the re-executed
  // attempt on a surviving worker's lane.
  workers_[0]->on_map_start = [&](int, uint32_t) {
    if (!crashed.exchange(true)) workers_[0]->Crash();
  };

  obs::Tracer::Global().Start();
  DistJobOptions options;
  options.job_name = "wordcount";
  options.params = {{"reduces", "3"}};
  options.splits = Chunk(input, 6);
  options.max_task_attempts = 4;
  DistJobResult result;
  const Status st = RunDistributedJob(coord_.get(), options, &result);
  obs::Tracer::Global().Stop();
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE(crashed.load());

  const std::string json = coord_->ClusterTraceJson();
  obs::Tracer::Global().Clear();

  // One pid lane per process, each labeled: coordinator plus all three
  // registered workers (the dead one keeps its lane).
  EXPECT_NE(json.find("\"coord\""), std::string::npos);
  EXPECT_NE(json.find("\"worker:w0\""), std::string::npos);
  EXPECT_NE(json.find("\"worker:w1\""), std::string::npos);
  EXPECT_NE(json.find("\"worker:w2\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\": 2"), std::string::npos);
  // The healed map ran as a later attempt; task span names carry it.
  EXPECT_NE(json.find("dist_map:"), std::string::npos);
  EXPECT_NE(json.find("#a1"), std::string::npos);
  EXPECT_NE(json.find("dist_reduce:"), std::string::npos);
  // Dispatch flow arrows: 's' on the coordinator, 'f' inside the worker's
  // task span, bound to the enclosing-slice end.
  EXPECT_NE(json.find("\"ph\": \"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"f\""), std::string::npos);
  EXPECT_NE(json.find("\"bp\": \"e\""), std::string::npos);
}

TEST_P(DistClusterTest, FederatedWireBytesMatchFrameCounters) {
  StartWorkers(2);
  DistJobOptions options;
  options.job_name = "wordcount";
  options.params = {{"reduces", "2"}};
  options.splits = Chunk(WordCountInput(), 4);
  DistJobResult result;
  ASSERT_TRUE(RunDistributedJob(coord_.get(), options, &result).ok());

  // Wait for at least one post-job heartbeat from every worker so the
  // federated view has folded both registries.
  for (int i = 0; i < 200 && coord_->cluster_metrics().worker_count() < 2;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(coord_->cluster_metrics().worker_count(), 2u);

  // In-process workers share the coordinator's registry, so the cluster
  // total must equal the single frame-layer counter — sandwiched between
  // two live snapshots because heartbeats keep flowing. If federation
  // double-counted the shared incarnation, the total would be ~3x.
  const net::WireCounters before = net::SnapshotWireCounters();
  const obs::MetricsSnapshot totals = coord_->cluster_metrics().ClusterTotals(
      &obs::MetricsRegistry::Global(), obs::ProcessUid());
  const net::WireCounters after = net::SnapshotWireCounters();
  const uint64_t sent = totals.counters.at("antimr_net_bytes_sent_total");
  const uint64_t received =
      totals.counters.at("antimr_net_bytes_received_total");
  EXPECT_GE(sent, before.bytes_sent);
  EXPECT_LE(sent, after.bytes_sent);
  EXPECT_GE(received, before.bytes_received);
  EXPECT_LE(received, after.bytes_received);

  // The Prometheus rendering carries per-worker attribution and the
  // per-frame size histograms observed at the same frame boundary.
  const std::string text = coord_->ClusterMetricsText();
  EXPECT_NE(text.find("antimr_net_bytes_sent_total{worker=\"1\"}"),
            std::string::npos);
  EXPECT_NE(text.find("antimr_net_bytes_sent_total{worker=\"2\"}"),
            std::string::npos);
  EXPECT_NE(text.find("antimr_net_frame_sent_bytes_count"),
            std::string::npos);
  EXPECT_NE(text.find("antimr_net_frame_received_bytes_count"),
            std::string::npos);
}

// /status is the cluster view; a job's progress is its row in the
// attached JobService's /jobs table.
TEST_P(DistClusterTest, StatusServerServesStatusAndMetrics) {
  service_ = std::make_unique<engine::JobService>(coord_.get());
  service_->AttachStatusEndpoint();
  ASSERT_TRUE(coord_->StartStatusServer("").ok());
  ASSERT_FALSE(coord_->status_addr().empty());
  StartWorkers(2);

  engine::JobSubmission sub;
  sub.job_name = "wordcount";
  sub.params = {{"reduces", "2"}};
  sub.splits = Chunk(WordCountInput(), 4);
  std::string job_id;
  ASSERT_TRUE(service_->Submit(std::move(sub), &job_id).ok());
  ASSERT_TRUE(service_->Wait(job_id).ok());

  std::string body;
  ASSERT_TRUE(net::HttpGet(transport_.get(), coord_->status_addr(), "/status",
                           &body)
                  .ok());
  EXPECT_NE(body.find("\"live_workers\": 2"), std::string::npos);
  EXPECT_NE(body.find("\"name\": \"w0\""), std::string::npos);
  EXPECT_NE(body.find("\"name\": \"w1\""), std::string::npos);

  body.clear();
  ASSERT_TRUE(net::HttpGet(transport_.get(), coord_->status_addr(), "/jobs",
                           &body)
                  .ok());
  EXPECT_NE(body.find("\"state\":\"succeeded\""), std::string::npos);
  EXPECT_NE(body.find("\"maps_total\":4,"), std::string::npos);
  EXPECT_NE(body.find("\"maps_done\":4,"), std::string::npos);
  EXPECT_NE(body.find("\"reduces_done\":2,"), std::string::npos);

  body.clear();
  ASSERT_TRUE(net::HttpGet(transport_.get(), coord_->status_addr(), "/metrics",
                           &body)
                  .ok());
  EXPECT_NE(body.find("antimr_net_bytes_sent_total"), std::string::npos);
  EXPECT_NE(body.find("antimr_coord_rpc_latency_nanos_count"),
            std::string::npos);

  EXPECT_FALSE(net::HttpGet(transport_.get(), coord_->status_addr(),
                            "/no_such_path", &body)
                   .ok());
}

TEST_P(DistClusterTest, DeadWorkerSeriesRetainedInClusterMetrics) {
  StartWorkers(2);
  for (int i = 0; i < 200 && coord_->cluster_metrics().worker_count() < 2;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(coord_->cluster_metrics().worker_count(), 2u);

  workers_[0]->Crash();
  for (int i = 0; i < 200 && coord_->live_workers() > 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(coord_->live_workers(), 1);

  // Retention: the lost worker's final snapshot stays federated — its
  // labeled series keep appearing and its counters stay in the totals.
  EXPECT_EQ(coord_->cluster_metrics().worker_count(), 2u);
  const std::string text = coord_->ClusterMetricsText();
  EXPECT_NE(text.find("{worker=\"1\"}"), std::string::npos);
  EXPECT_NE(text.find("{worker=\"2\"}"), std::string::npos);
}

// The skew defenses end to end on both transports: a Zipf wordcount pins
// one reducer under hash partitioning (max/mean reduce input records
// >= 3x), hot-key splitting levels the heavy stage-1 shuffle (<= 1.5x), and
// every partitioning x strategy x speculation cell gives the same output.
// The range and split cells run MakeSkewPlan's one- or two-stage plan on
// the remote runner.
TEST_P(DistClusterTest, SkewDefensesBalanceLoadWithIdenticalOutput) {
  StartWorkers(4);
  const std::vector<std::vector<KV>> chunks =
      Chunk(ZipfLines(1200, 500, 1.5, 6, 0x5eed), 8);
  std::vector<uint64_t> hashes;
  bool split_ran = false;
  for (const std::string mode : {"hash", "range", "split"}) {
    for (const std::string strategy : {"original", "adaptive"}) {
      for (const bool speculation : {false, true}) {
        SCOPED_TRACE(mode + "/" + strategy + (speculation ? "/spec" : ""));
        // The combiner stays off so the skewed shuffle is actually skewed.
        net::JobParams params = {{"reduces", "8"}, {"combiner", "false"}};
        if (strategy != "original") {
          params.emplace_back("anti_combine", strategy);
        }
        DistJobOptions options;
        options.job_name = "wordcount";
        options.params = params;
        options.speculative_execution = speculation;
        DistJobResult result;
        Status st;
        if (mode == "hash") {
          options.splits = chunks;
          st = RunDistributedJob(coord_.get(), options, &result);
        } else {
          std::vector<InputSplit> splits;
          for (const std::vector<KV>& chunk : chunks) {
            splits.push_back(MakeSplit(chunk));
          }
          engine::SkewPlanOptions skew;
          skew.hot_key_split = mode == "split";
          engine::JobPlan plan;
          std::string output;
          st = engine::MakeSkewPlan("wordcount", params, std::move(splits),
                                    skew, &plan, &output);
          ASSERT_TRUE(st.ok()) << st.ToString();
          split_ran = split_ran || plan.stages().size() == 2;
          st = engine::RemoteRunner(coord_.get(), options).Run(plan, &result);
        }
        ASSERT_TRUE(st.ok()) << st.ToString();
        hashes.push_back(engine::OutputMultisetHash(result.FlatOutput()));
        // The gates read the untransformed, speculation-off cells: record
        // counts there are pure partitioning signal.
        if (strategy == "original" && !speculation) {
          const double spread = LoadSpread(result.reduce_input_records);
          if (mode == "hash") {
            EXPECT_GE(spread, 3.0);
          } else if (mode == "split") {
            EXPECT_LE(spread, 1.5);
          }
        }
      }
    }
  }
  EXPECT_TRUE(split_ran) << "sampling never found a hot key";
  for (uint64_t hash : hashes) EXPECT_EQ(hash, hashes.front());
}

// The window W and flag C cross the wire as builder params: with W = 4 and
// C = 0, EagerSH and LazySH runs emit and shuffle exactly what the local
// run with the same options does.
TEST_P(DistClusterTest, WindowAndCombinerFlagReachWorkers) {
  const std::vector<KV> input = WordCountInput();
  StartWorkers(2);
  JobSpec base;
  ASSERT_TRUE(
      engine::BuildRegisteredJob("wordcount", {{"reduces", "4"}}, &base).ok());
  for (const std::string strategy : {"eager", "lazy"}) {
    SCOPED_TRACE(strategy);
    anticombine::AntiCombineOptions ac =
        strategy == "eager" ? anticombine::AntiCombineOptions::EagerOnly()
                            : anticombine::AntiCombineOptions::LazyOnly();
    RunOptions run;
    run.collect_output = true;
    JobResult plain;
    ASSERT_TRUE(RunJob(anticombine::EnableAntiCombining(base, ac),
                       MakeSplits(input, 4), run, &plain)
                    .ok());
    ac.cross_call_window = 4;
    ac.map_phase_combiner = false;
    JobResult local;
    ASSERT_TRUE(RunJob(anticombine::EnableAntiCombining(base, ac),
                       MakeSplits(input, 4), run, &local)
                    .ok());
    ASSERT_NE(local.metrics.shuffle_bytes, plain.metrics.shuffle_bytes)
        << "premise: W and C change what the job ships";

    DistJobOptions options;
    options.job_name = "wordcount";
    options.params = {{"reduces", "4"},
                      {"anti_combine", strategy},
                      {"cross_call_window", "4"},
                      {"map_phase_combiner", "0"}};
    options.splits = Chunk(input, 4);
    DistJobResult result;
    const Status st = RunDistributedJob(coord_.get(), options, &result);
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(result.metrics.eager_records, local.metrics.eager_records);
    EXPECT_EQ(result.metrics.lazy_records, local.metrics.lazy_records);
    EXPECT_EQ(result.metrics.shuffle_bytes, local.metrics.shuffle_bytes);
    EXPECT_EQ(testing::Canonicalize(result.FlatOutput()),
              testing::Canonicalize(local.FlatOutput()));
  }
}

// A two-stage plan of registered stages runs on the remote runner with the
// local Executor's output, in order, and its shuffle bytes.
TEST_P(DistClusterTest, PipelinePlanMatchesLocalExecutor) {
  const std::vector<KV> input = WordCountInput();
  StartWorkers(3);
  const engine::JobPlan plan = PipelinePlan(input);
  engine::Executor executor;
  engine::PlanResult local;
  ASSERT_TRUE(executor.Run(plan, &local).ok());
  ASSERT_GT(local.stages[1].metrics.shuffle_bytes, 0u);

  DistJobResult result;
  const Status st = RunRemote(plan, &result);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(result.FlatOutput(), local.FlatOutput("sorted"));
  EXPECT_EQ(result.metrics.shuffle_bytes, local.metrics.shuffle_bytes);
  EXPECT_EQ(result.map_reruns, 0u);
}

// Only a stage that names a registered builder can be rebuilt on a worker;
// a plan with any other stage is refused before a single task is sent.
TEST_P(DistClusterTest, UnregisteredStageFailsBeforeAnyTaskAssign) {
  StartWorkers(2);
  engine::JobPlan plan = PipelinePlan(WordCountInput());
  engine::Stage local_only;
  local_only.name = "local_sort";
  local_only.spec = plan.stages()[1].spec;
  local_only.inputs = {"counts"};
  local_only.output = "sorted_locally";
  plan.AddStage(std::move(local_only));

  obs::Counter* assigned = obs::MetricsRegistry::Global().GetCounter(
      "antimr_coord_tasks_assigned_total", "");
  const uint64_t assigned_before = assigned->value();
  DistJobResult result;
  const Status st = RunRemote(plan, &result);
  EXPECT_EQ(st.code(), Status::Code::kInvalidArgument) << st.ToString();
  EXPECT_EQ(assigned->value(), assigned_before);
}

// Whether a two-stage plan succeeds, fails in stage 2, or is aborted in
// stage 2, each stage's cleanup scrubs its files, so no worker keeps a file
// of either stage.
TEST_P(DistClusterTest, TwoStagePlanLeavesNoFilesOnWorkers) {
  engine::RegisterJobBuilder(
      "sort_poisonable",
      [](const std::map<std::string, std::string>& params, JobSpec* spec) {
        if (g_sort_poisoned.load()) return Status::InvalidArgument("poisoned");
        return engine::BuildRegisteredJob(
            "sort", net::JobParams(params.begin(), params.end()), spec);
      });
  shared_env_ = NewMemEnv();
  StartWorkers(2, shared_env_.get());
  enum Action { kNone, kPoison, kAbort };
  std::atomic<int> action{kNone};
  std::atomic<bool> abort{false};
  for (auto& worker : workers_) {
    worker->on_map_start = [this, &action, &abort](int, uint32_t) {
      if (map_starts_.fetch_add(1) < kPipelineMaps) return;  // stage 1
      if (action.load() == kPoison) g_sort_poisoned.store(true);
      if (action.load() == kAbort && !abort.exchange(true)) {
        coord_->BroadcastJobFrame(net::kCancelJob, "files_aborted");
      }
    };
  }
  const std::vector<KV> input = WordCountInput();
  const struct {
    const char* job_id;
    Action action;
    bool ok;
  } cases[] = {{"files_succeeded", kNone, true},
               {"files_failed", kPoison, false},
               {"files_aborted", kAbort, false}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.job_id);
    map_starts_.store(0);
    action.store(c.action);
    const engine::JobPlan plan = PipelinePlan(input, "sort_poisonable");
    DistJobResult result;
    const Status st = RunRemote(plan, &result, &abort, c.job_id);
    EXPECT_EQ(st.ok(), c.ok) << st.ToString();
    g_sort_poisoned.store(false);
    ExpectScrubbed(shared_env_.get(), c.job_id);
  }
}

// A worker lost during stage 2 takes that stage's map segments with it.
// The reduce heals them from the encoded partitions the runner kept — the
// catalog has released stage 1's output by then — and the output holds.
TEST_P(DistClusterTest, WorkerCrashInSecondStageHeals) {
  const std::vector<KV> input = WordCountInput();
  const engine::JobPlan plan = PipelinePlan(input);
  engine::Executor executor;
  engine::PlanResult local;
  ASSERT_TRUE(executor.Run(plan, &local).ok());
  StartWorkers(3);

  // Kill the worker that ran the first stage-2 map the moment a stage-2
  // reduce starts on another worker.
  std::atomic<Worker*> stage2_map_owner{nullptr};
  std::atomic<bool> crashed{false};
  for (auto& worker : workers_) {
    Worker* self = worker.get();
    self->on_map_start = [this, self, &stage2_map_owner](int, uint32_t) {
      if (map_starts_.fetch_add(1) < kPipelineMaps) return;  // stage 1
      Worker* expected = nullptr;
      stage2_map_owner.compare_exchange_strong(expected, self);
    };
    self->on_reduce_start = [this, self, &stage2_map_owner, &crashed](
                                int, uint32_t) {
      if (reduce_starts_.fetch_add(1) < kPipelineReduces) return;  // stage 1
      Worker* owner = stage2_map_owner.load();
      if (owner != nullptr && owner != self && !crashed.exchange(true)) {
        owner->Crash();
      }
    };
  }

  DistJobResult result;
  const Status st = RunRemote(plan, &result);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE(crashed.load());
  EXPECT_GT(result.map_reruns, 0u);
  EXPECT_EQ(result.FlatOutput(), local.FlatOutput("sorted"));
}

INSTANTIATE_TEST_SUITE_P(Transports, DistClusterTest,
                         ::testing::Values("loopback", "tcp"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace antimr
