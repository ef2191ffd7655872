// The distributed engine end to end: a Coordinator plus in-process Worker
// objects over one shared transport must produce byte-identical output to
// the single-process RunJob path — on the loopback transport and on real
// TCP sockets, with and without workers dying mid-job. Worker-loss recovery
// is the MapReduce contract: segments on a dead worker are gone, so the
// driver re-runs that worker's maps elsewhere before retrying the reduce.
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/coordinator.h"
#include "engine/job_registry.h"
#include "engine/job_service.h"
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

  void StartWorkers(int n) {
    for (int i = 0; i < n; ++i) {
      WorkerOptions options;
      options.name = "w" + std::to_string(i);
      options.slots = 2;
      options.heartbeat_period_nanos = 50ull * 1000 * 1000;
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

  std::unique_ptr<net::Transport> transport_;
  std::unique_ptr<Coordinator> coord_;
  std::vector<std::unique_ptr<Worker>> workers_;
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

TEST_P(DistClusterTest, StatusServerServesStatusAndMetrics) {
  ASSERT_TRUE(coord_->StartStatusServer("").ok());
  ASSERT_FALSE(coord_->status_addr().empty());
  StartWorkers(2);

  DistJobOptions options;
  options.job_name = "wordcount";
  options.params = {{"reduces", "2"}};
  options.splits = Chunk(WordCountInput(), 4);
  DistJobResult result;
  ASSERT_TRUE(RunDistributedJob(coord_.get(), options, &result).ok());

  std::string body;
  ASSERT_TRUE(net::HttpGet(transport_.get(), coord_->status_addr(), "/status",
                           &body)
                  .ok());
  EXPECT_NE(body.find("\"live_workers\": 2"), std::string::npos);
  EXPECT_NE(body.find("\"name\": \"w0\""), std::string::npos);
  EXPECT_NE(body.find("\"name\": \"w1\""), std::string::npos);
  EXPECT_NE(body.find("\"state\": \"done\""), std::string::npos);
  EXPECT_NE(body.find("\"maps_total\": 4"), std::string::npos);
  EXPECT_NE(body.find("\"maps_done\": 4"), std::string::npos);
  EXPECT_NE(body.find("\"reduces_done\": 2"), std::string::npos);

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

INSTANTIATE_TEST_SUITE_P(Transports, DistClusterTest,
                         ::testing::Values("loopback", "tcp"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace antimr
