// The multi-tenant job service end to end: admission control (quota and
// backpressure rejects), weighted fair-share dispatch order with strict
// FIFO inside a pool, abort of queued and running jobs (the latter scrubbed
// off workers by the kScrubJob GC), concurrent jobs on shared workers
// producing byte-identical output to solo runs, and a finished job's row,
// task progress included — over loopback and TCP, in-process and through
// the kSubmitJob wire plane.
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
#include "io/env.h"
#include "net/http.h"
#include "net/transport.h"
#include "net/wire.h"
#include "test_util.h"
#include "workloads/registry.h"

namespace antimr {
namespace {

using engine::Coordinator;
using engine::CoordinatorOptions;
using engine::DistJobResult;
using engine::JobService;
using engine::JobServiceClient;
using engine::JobServiceOptions;
using engine::JobSubmission;
using engine::OutputMultisetHash;
using engine::PoolConfig;
using engine::Worker;
using engine::WorkerOptions;

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

std::vector<KV> TextInput(uint64_t lines, uint64_t seed) {
  RandomTextConfig config;
  config.num_lines = lines;
  config.seed = seed;
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

JobSubmission WordCountSubmission(uint64_t lines, uint64_t seed, int maps) {
  JobSubmission sub;
  sub.job_name = "wordcount";
  sub.params = {{"reduces", "2"}, {"combiner", "1"}};
  sub.splits = Chunk(TextInput(lines, seed), maps);
  return sub;
}

class JobServiceTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    workloads::RegisterStandardJobs();
    transport_ = GetParam() == std::string("tcp")
                     ? net::NewTcpTransport()
                     : net::NewLoopbackTransport();
    CoordinatorOptions options;
    options.heartbeat_timeout_nanos = 2000ull * 1000 * 1000;
    coord_ = std::make_unique<Coordinator>(transport_.get(), options);
    ASSERT_TRUE(coord_->Start("").ok());
  }

  void TearDown() override {
    if (service_ != nullptr) service_->Stop();
    coord_->Stop();
    for (auto& worker : workers_) worker->Stop();
  }

  void StartService(const JobServiceOptions& options) {
    service_ = std::make_unique<JobService>(coord_.get(), options);
  }

  void StartWorkers(int n, Env* env = nullptr) {
    const size_t base = workers_.size();
    for (int i = 0; i < n; ++i) {
      WorkerOptions options;
      options.name = "w" + std::to_string(base + i);
      options.slots = 2;
      options.heartbeat_period_nanos = 50ull * 1000 * 1000;
      options.env = env;
      workers_.push_back(
          std::make_unique<Worker>(transport_.get(), options));
    }
    for (size_t i = base; i < workers_.size(); ++i) {
      ASSERT_TRUE(workers_[i]->Start(coord_->addr()).ok());
    }
    ASSERT_TRUE(coord_->WaitForWorkers(static_cast<int>(workers_.size()),
                                       10ull * 1000 * 1000 * 1000));
  }

  std::unique_ptr<net::Transport> transport_;
  std::unique_ptr<Coordinator> coord_;
  std::unique_ptr<JobService> service_;
  std::vector<std::unique_ptr<Worker>> workers_;
  // State borrowed by workers (shared Env, hook-captured flags) lives on
  // the fixture, not the test body: worker threads — scrub handlers in
  // particular — can still touch it between the end of TestBody and the
  // TearDown Stop calls.
  std::unique_ptr<Env> shared_env_;
  std::atomic<int> maps_started_{0};
  std::atomic<bool> release_maps_{false};
};

// Admission control: over-quota submissions, unknown pools, malformed
// submissions, and queue backpressure are all rejected up front with the
// documented status codes. No workers needed — nothing should dispatch.
TEST_P(JobServiceTest, AdmissionControlRejects) {
  JobServiceOptions options;
  PoolConfig pool;
  pool.name = "limited";
  pool.cpu_slots_quota = 4;
  pool.memory_quota_bytes = 32ull << 20;
  options.pools = {pool};
  options.max_queued_jobs = 2;
  options.default_memory_bytes = 1ull << 20;
  options.min_workers = 1;  // empty cluster: admitted jobs would just queue
  StartService(options);

  std::string id;
  // cpu slots beyond the pool quota can never be admitted.
  JobSubmission over = WordCountSubmission(50, 1, 2);
  over.cpu_slots = 8;
  Status st = service_->Submit(std::move(over), &id);
  EXPECT_EQ(Status::Code::kResourceExhausted, st.code()) << st.ToString();

  // Same for a memory estimate above the pool's memory quota.
  JobSubmission heavy = WordCountSubmission(50, 1, 2);
  heavy.memory_bytes = 64ull << 20;
  st = service_->Submit(std::move(heavy), &id);
  EXPECT_EQ(Status::Code::kResourceExhausted, st.code()) << st.ToString();

  // Unknown pool.
  JobSubmission wrong_pool = WordCountSubmission(50, 1, 2);
  wrong_pool.pool = "nope";
  st = service_->Submit(std::move(wrong_pool), &id);
  EXPECT_EQ(Status::Code::kNotFound, st.code()) << st.ToString();

  // Malformed: no splits.
  JobSubmission empty;
  empty.job_name = "wordcount";
  st = service_->Submit(std::move(empty), &id);
  EXPECT_EQ(Status::Code::kInvalidArgument, st.code()) << st.ToString();

  // Backpressure: the queue cap is 2; the third well-formed submission is
  // rejected with ResourceExhausted.
  ASSERT_TRUE(service_->Submit(WordCountSubmission(50, 1, 2), &id).ok());
  ASSERT_TRUE(service_->Submit(WordCountSubmission(50, 2, 2), &id).ok());
  st = service_->Submit(WordCountSubmission(50, 3, 2), &id);
  EXPECT_EQ(Status::Code::kResourceExhausted, st.code()) << st.ToString();
}

// Fair-share dispatch: pool "a" (weight 2) and pool "b" (weight 1) drain a
// backlog in the deterministic stride order a b a a b a a b a — cost in
// 2:1 proportion — while each pool's own jobs dispatch strictly FIFO.
TEST_P(JobServiceTest, WeightedFairShareAndFifoWithinPool) {
  JobServiceOptions options;
  PoolConfig pool_a, pool_b;
  pool_a.name = "a";
  pool_a.weight = 2.0;
  pool_b.name = "b";
  pool_b.weight = 1.0;
  options.pools = {pool_a, pool_b};
  options.default_cpu_slots = 1;
  options.max_concurrent_jobs = 1;  // serialize: dispatch order == run order
  options.min_workers = 1;
  StartService(options);

  // Build the backlog before any worker exists, so every job is queued when
  // the scheduler first gets capacity.
  std::vector<std::string> a_jobs, b_jobs;
  for (int i = 0; i < 6; ++i) {
    JobSubmission sub = WordCountSubmission(80, 10 + i, 2);
    sub.pool = "a";
    std::string id;
    ASSERT_TRUE(service_->Submit(std::move(sub), &id).ok());
    a_jobs.push_back(id);
  }
  for (int i = 0; i < 3; ++i) {
    JobSubmission sub = WordCountSubmission(80, 20 + i, 2);
    sub.pool = "b";
    std::string id;
    ASSERT_TRUE(service_->Submit(std::move(sub), &id).ok());
    b_jobs.push_back(id);
  }

  StartWorkers(2);
  for (const std::string& id : a_jobs) {
    Status st = service_->Wait(id);
    ASSERT_TRUE(st.ok()) << st.ToString();
  }
  for (const std::string& id : b_jobs) {
    Status st = service_->Wait(id);
    ASSERT_TRUE(st.ok()) << st.ToString();
  }

  auto seq_of = [&](const std::string& id) {
    net::JobStatusWire row;
    EXPECT_TRUE(service_->GetJob(id, &row).ok());
    return row.dispatch_seq;
  };
  // Stride order with pass ties broken by pool name:
  //   a1 b1 a2 a3 b2 a4 a5 b3 a6
  EXPECT_EQ(1u, seq_of(a_jobs[0]));
  EXPECT_EQ(2u, seq_of(b_jobs[0]));
  EXPECT_EQ(3u, seq_of(a_jobs[1]));
  EXPECT_EQ(4u, seq_of(a_jobs[2]));
  EXPECT_EQ(5u, seq_of(b_jobs[1]));
  EXPECT_EQ(6u, seq_of(a_jobs[3]));
  EXPECT_EQ(7u, seq_of(a_jobs[4]));
  EXPECT_EQ(8u, seq_of(b_jobs[2]));
  EXPECT_EQ(9u, seq_of(a_jobs[5]));
  // FIFO within each pool is implied by the exact sequence above, but
  // assert it directly for clarity.
  for (size_t i = 1; i < a_jobs.size(); ++i) {
    EXPECT_LT(seq_of(a_jobs[i - 1]), seq_of(a_jobs[i]));
  }
  for (size_t i = 1; i < b_jobs.size(); ++i) {
    EXPECT_LT(seq_of(b_jobs[i - 1]), seq_of(b_jobs[i]));
  }

  // Fairness accounting shows both pools did work.
  const auto usage = service_->PoolUsageSnapshot();
  ASSERT_EQ(2u, usage.size());
  EXPECT_EQ(6u, usage[0].jobs_completed);
  EXPECT_EQ(3u, usage[1].jobs_completed);
  EXPECT_GT(usage[0].busy_slot_nanos, 0u);
  EXPECT_GT(usage[1].busy_slot_nanos, 0u);
}

// Aborting a queued job dequeues it immediately; the terminal row survives
// in the table and a second abort is InvalidArgument.
TEST_P(JobServiceTest, AbortQueuedJob) {
  JobServiceOptions options;
  options.min_workers = 1;  // no workers: the job stays queued
  StartService(options);

  std::string id;
  ASSERT_TRUE(service_->Submit(WordCountSubmission(50, 5, 2), &id).ok());
  net::JobStatusWire row;
  ASSERT_TRUE(service_->GetJob(id, &row).ok());
  EXPECT_EQ("queued", row.state);
  EXPECT_EQ(1u, row.queue_position);

  ASSERT_TRUE(service_->Abort(id).ok());
  ASSERT_TRUE(service_->GetJob(id, &row).ok());
  EXPECT_EQ("aborted", row.state);
  const Status wait_st = service_->Wait(id);
  EXPECT_FALSE(wait_st.ok());

  const Status again = service_->Abort(id);
  EXPECT_EQ(Status::Code::kInvalidArgument, again.code());
  EXPECT_EQ(Status::Code::kNotFound, service_->Abort("missing").code());
}

// Aborting a running job: the flag plus the kCancelJob broadcast unwind the
// driver without exhausting retries, and the terminal kScrubJob broadcast
// garbage-collects every file in the job's id scope off the workers.
TEST_P(JobServiceTest, AbortRunningJobScrubsWorkerFiles) {
  JobServiceOptions options;
  options.min_workers = 2;
  StartService(options);

  shared_env_ = NewMemEnv();
  // Hold every map in the test hook until the abort lands, so the job is
  // deterministically mid-flight when Abort runs.
  for (int i = 0; i < 2; ++i) {
    WorkerOptions wopts;
    wopts.name = "w" + std::to_string(i);
    wopts.slots = 2;
    wopts.heartbeat_period_nanos = 50ull * 1000 * 1000;
    wopts.env = shared_env_.get();
    workers_.push_back(std::make_unique<Worker>(transport_.get(), wopts));
    workers_.back()->on_map_start = [this](int, uint32_t) {
      maps_started_.fetch_add(1);
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (!release_maps_.load() &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    };
    ASSERT_TRUE(workers_.back()->Start(coord_->addr()).ok());
  }
  ASSERT_TRUE(coord_->WaitForWorkers(2, 10ull * 1000 * 1000 * 1000));

  JobSubmission sub = WordCountSubmission(200, 6, 2);
  sub.job_id = "abortme";
  std::string id;
  ASSERT_TRUE(service_->Submit(std::move(sub), &id).ok());
  ASSERT_EQ("abortme", id);

  // Wait until at least one map attempt is on a worker, then abort.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (maps_started_.load() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GT(maps_started_.load(), 0);
  ASSERT_TRUE(service_->Abort(id).ok());
  release_maps_.store(true);

  const Status st = service_->Wait(id);
  EXPECT_FALSE(st.ok());
  net::JobStatusWire row;
  ASSERT_TRUE(service_->GetJob(id, &row).ok());
  EXPECT_EQ("aborted", row.state);

  // The terminal scrub broadcast deletes everything in the job's id scope
  // (including attempt-scoped partial segments) from worker storage.
  const auto scrub_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (;;) {
    std::vector<std::string> names;
    ASSERT_TRUE(shared_env_->ListFiles(&names).ok());
    size_t in_scope = 0;
    for (const std::string& name : names) {
      if (engine::JobIdInScope(name, id)) ++in_scope;
    }
    if (in_scope == 0) break;
    ASSERT_LT(std::chrono::steady_clock::now(), scrub_deadline)
        << in_scope << " files still in scope";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

// Two jobs running concurrently on shared workers must each produce output
// byte-identical (multiset) to their single-process runs — the isolation
// claim of job_id-namespaced segments.
TEST_P(JobServiceTest, ConcurrentJobsMatchSoloRuns) {
  JobServiceOptions options;
  PoolConfig fast, slow;
  fast.name = "fast";
  fast.weight = 2.0;
  slow.name = "slow";
  options.pools = {fast, slow};
  options.max_concurrent_jobs = 4;
  StartService(options);
  StartWorkers(3);

  const std::vector<KV> wc_input = TextInput(3000, 11);
  CloudConfig cc;
  cc.num_records = 1500;
  cc.seed = 7;
  const std::vector<KV> tj_input = CloudGenerator(cc).Generate();

  JobSubmission wc;
  wc.pool = "fast";
  wc.job_name = "wordcount";
  wc.params = {{"reduces", "4"}, {"combiner", "1"}};
  wc.splits = Chunk(wc_input, 4);
  JobSubmission tj;
  tj.pool = "slow";
  tj.job_name = "theta_join";
  tj.params = {{"reduces", "4"},
               {"grid_rows", "2"},
               {"grid_cols", "2"}};
  tj.splits = Chunk(tj_input, 4);

  std::string wc_id, tj_id;
  ASSERT_TRUE(service_->Submit(std::move(wc), &wc_id).ok());
  ASSERT_TRUE(service_->Submit(std::move(tj), &tj_id).ok());

  DistJobResult wc_result, tj_result;
  Status st = service_->Wait(wc_id, &wc_result);
  ASSERT_TRUE(st.ok()) << st.ToString();
  st = service_->Wait(tj_id, &tj_result);
  ASSERT_TRUE(st.ok()) << st.ToString();

  const std::vector<KV> wc_solo = SingleProcessOutput(
      "wordcount", {{"reduces", "4"}, {"combiner", "1"}}, wc_input, 4);
  const std::vector<KV> tj_solo = SingleProcessOutput(
      "theta_join",
      {{"reduces", "4"}, {"grid_rows", "2"}, {"grid_cols", "2"}}, tj_input,
      4);
  EXPECT_EQ(testing::Canonicalize(wc_solo),
            testing::Canonicalize(wc_result.FlatOutput()));
  EXPECT_EQ(testing::Canonicalize(tj_solo),
            testing::Canonicalize(tj_result.FlatOutput()));

  // The job table's hash is the same multiset hash of the same output.
  net::JobStatusWire row;
  ASSERT_TRUE(service_->GetJob(wc_id, &row).ok());
  EXPECT_EQ(OutputMultisetHash(wc_solo), row.output_hash);
  ASSERT_TRUE(service_->GetJob(tj_id, &row).ok());
  EXPECT_EQ(OutputMultisetHash(tj_solo), row.output_hash);
  EXPECT_EQ(tj_solo.size(), row.output_records);
}

// The wire plane: submit, poll, list, and abort through kSubmitJob frames
// over a real dialed connection, with NotFound/InvalidArgument crossing the
// wire intact. The job table is the one place a job's progress is reported:
// the finished row reads the same from the wire, GetJob, ListJobs and the
// /jobs page, with one map per split, every reduce, and no map re-run.
TEST_P(JobServiceTest, WireLifecycle) {
  JobServiceOptions options;
  StartService(options);
  service_->AttachStatusEndpoint();
  ASSERT_TRUE(coord_->StartStatusServer("").ok());
  StartWorkers(2);
  ASSERT_TRUE(service_->Serve("").ok());

  JobServiceClient client(transport_.get(), service_->serve_addr());

  constexpr uint64_t kMaps = 3;
  constexpr uint64_t kReduces = 2;
  net::SubmitJobMsg msg;
  msg.job_name = "wordcount";
  msg.params = {{"reduces", "2"}, {"combiner", "1"}};
  const std::vector<std::vector<KV>> splits = Chunk(TextInput(400, 3), kMaps);
  ASSERT_EQ(kMaps, splits.size());
  msg.splits.resize(splits.size());
  for (size_t m = 0; m < splits.size(); ++m) {
    net::EncodeKVList(splits[m], &msg.splits[m]);
  }
  std::string id;
  Status st = client.Submit(msg, &id);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_FALSE(id.empty());

  net::JobStatusWire row;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (;;) {
    st = client.GetStatus(id, &row);
    ASSERT_TRUE(st.ok()) << st.ToString();
    if (row.state == "succeeded" || row.state == "failed" ||
        row.state == "aborted") {
      break;
    }
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const std::vector<KV> solo = SingleProcessOutput(
      "wordcount", {{"reduces", "2"}, {"combiner", "1"}},
      TextInput(400, 3), kMaps);
  auto expect_finished = [&](const net::JobStatusWire& r) {
    EXPECT_EQ(id, r.job_id);
    EXPECT_EQ("succeeded", r.state);
    EXPECT_EQ(kMaps, r.maps_total);
    EXPECT_EQ(kMaps, r.maps_done);
    EXPECT_EQ(kReduces, r.reduces_total);
    EXPECT_EQ(kReduces, r.reduces_done);
    EXPECT_EQ(0u, r.map_reruns);
    EXPECT_EQ(OutputMultisetHash(solo), r.output_hash);
    EXPECT_EQ(solo.size(), r.output_records);
  };
  expect_finished(row);

  std::vector<net::JobStatusWire> rows;
  ASSERT_TRUE(client.List(&rows).ok());
  ASSERT_EQ(1u, rows.size());
  expect_finished(rows[0]);
  ASSERT_TRUE(service_->GetJob(id, &row).ok());
  expect_finished(row);
  rows = service_->ListJobs();
  ASSERT_EQ(1u, rows.size());
  expect_finished(rows[0]);
  std::string body;
  ASSERT_TRUE(
      net::HttpGet(transport_.get(), coord_->status_addr(), "/jobs", &body)
          .ok());
  EXPECT_NE(body.find("\"state\":\"succeeded\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"maps_total\":3,\"maps_done\":3,"
                      "\"reduces_total\":2,\"reduces_done\":2,"
                      "\"map_reruns\":0,"),
            std::string::npos)
      << body;

  // Errors cross the wire with their codes intact.
  EXPECT_EQ(Status::Code::kNotFound,
            client.GetStatus("missing", &row).code());
  EXPECT_EQ(Status::Code::kInvalidArgument, client.Abort(id).code());

  net::SubmitJobMsg bad;
  bad.job_name = "wordcount";  // no splits
  EXPECT_EQ(Status::Code::kInvalidArgument, client.Submit(bad, &id).code());
}

// RunDistributedJob is now a shim over an ephemeral service; the legacy
// call signature and output contract are unchanged.
TEST_P(JobServiceTest, LegacyShimMatchesSolo) {
  StartWorkers(2);
  const std::vector<KV> input = TextInput(1500, 23);
  engine::DistJobOptions dist;
  dist.job_name = "wordcount";
  dist.params = {{"reduces", "3"}, {"combiner", "1"}};
  dist.splits = Chunk(input, 3);
  DistJobResult result;
  const Status st = engine::RunDistributedJob(coord_.get(), dist, &result);
  ASSERT_TRUE(st.ok()) << st.ToString();
  const std::vector<KV> solo = SingleProcessOutput(
      "wordcount", {{"reduces", "3"}, {"combiner", "1"}}, input, 3);
  EXPECT_EQ(testing::Canonicalize(solo),
            testing::Canonicalize(result.FlatOutput()));
}

INSTANTIATE_TEST_SUITE_P(Transports, JobServiceTest,
                         ::testing::Values("loopback", "tcp"));

}  // namespace
}  // namespace antimr
