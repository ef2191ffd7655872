// E8-service: the multi-tenant job service under a heavy mixed workload.
// Two pools share one daemonized cluster: "small" (weight 3) floods the
// queue with 24 tiny wordcounts while "big" (weight 1) submits 3 huge
// theta-joins. The whole backlog lands before the scheduler drains it, so
// the stride scheduler's fair-share split — not arrival order — decides who
// runs when. Reported per pool: p50/p99 job latency (finish - submit) and
// the fairness error (L1 distance between the pools' busy-slot-time shares
// and their weight shares, halved so 0 = perfect and 1 = total starvation).
// Every job's output multiset hash must equal its single-process run: the
// isolation gate — concurrent tenants may never bleed into each other's
// output. Results land in BENCH_e8.json, rows stamped with the transport.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "datagen/cloud.h"
#include "datagen/random_text.h"
#include "engine/coordinator.h"
#include "engine/job_registry.h"
#include "engine/job_service.h"
#include "engine/worker.h"
#include "net/transport.h"
#include "net/wire.h"
#include "workloads/registry.h"

using namespace antimr;         // NOLINT
using namespace antimr::bench;  // NOLINT

namespace {

constexpr int kWorkers = 4;
constexpr int kSmallJobs = 24;
constexpr int kBigJobs = 3;
constexpr int kMaxConcurrent = 8;

/// One tenant job: identity, pool, registered-job config, and the solo
/// reference hash every distributed run must reproduce.
struct JobDesc {
  std::string id;
  std::string pool;
  std::string job_name;
  net::JobParams params;
  std::vector<KV> records;
  int maps = 0;
  uint32_t cpu_slots = 1;
  uint64_t solo_hash = 0;
};

uint64_t SoloHash(const JobDesc& job) {
  JobSpec spec;
  ANTIMR_CHECK_OK(engine::BuildRegisteredJob(job.job_name, job.params, &spec));
  RunOptions run;
  run.collect_output = true;
  JobResult result;
  ANTIMR_CHECK_OK(RunJob(spec, MakeSplits(job.records, job.maps), run,
                         &result));
  return engine::OutputMultisetHash(result.FlatOutput());
}

std::vector<JobDesc> BuildFleet() {
  std::vector<JobDesc> fleet;
  for (int i = 0; i < kSmallJobs; ++i) {
    JobDesc job;
    job.id = "small_" + std::to_string(i);
    job.pool = "small";
    job.job_name = "wordcount";
    job.params = {{"reduces", "2"}, {"combiner", "1"}};
    RandomTextConfig text;
    text.num_lines = 2000;
    text.seed = 100 + static_cast<uint64_t>(i);
    job.records = RandomTextGenerator(text).Generate();
    job.maps = 4;
    job.cpu_slots = 1;
    fleet.push_back(std::move(job));
  }
  for (int i = 0; i < kBigJobs; ++i) {
    JobDesc job;
    job.id = "big_" + std::to_string(i);
    job.pool = "big";
    job.job_name = "theta_join";
    job.params = {{"reduces", "4"},
                  {"grid_rows", "4"},
                  {"grid_cols", "4"},
                  {"anti_combine", "eager"}};
    CloudConfig cloud;
    cloud.num_records = 20000;
    cloud.seed = 200 + static_cast<uint64_t>(i);
    job.records = CloudGenerator(cloud).Generate();
    job.maps = 6;
    job.cpu_slots = 2;
    fleet.push_back(std::move(job));
  }
  for (JobDesc& job : fleet) job.solo_hash = SoloHash(job);
  return fleet;
}

struct FleetRun {
  std::vector<net::JobStatusWire> rows;
  std::vector<engine::JobService::PoolUsage> usage;
  int peak_running = 0;
};

/// Stand up coordinator + workers + service on `transport_kind`, submit the
/// whole fleet at once, and poll the job table until every job is terminal.
FleetRun RunFleet(const std::string& transport_kind,
                  const std::vector<JobDesc>& fleet) {
  std::unique_ptr<net::Transport> transport =
      transport_kind == "tcp" ? net::NewTcpTransport()
                              : net::NewLoopbackTransport();
  engine::Coordinator coord(transport.get());
  ANTIMR_CHECK_OK(coord.Start(""));
  std::vector<std::unique_ptr<engine::Worker>> workers;
  for (int i = 0; i < kWorkers; ++i) {
    engine::WorkerOptions options;
    options.name = "w" + std::to_string(i);
    options.slots = 2;
    workers.push_back(
        std::make_unique<engine::Worker>(transport.get(), options));
    ANTIMR_CHECK_OK(workers.back()->Start(coord.addr()));
  }
  if (!coord.WaitForWorkers(kWorkers, 10ull * 1000 * 1000 * 1000)) {
    std::fprintf(stderr, "workers never registered\n");
    std::abort();
  }

  engine::JobServiceOptions options;
  engine::PoolConfig small, big;
  small.name = "small";
  small.weight = 3.0;
  small.cpu_slots_quota = 12;
  big.name = "big";
  big.weight = 1.0;
  big.cpu_slots_quota = 8;
  options.pools = {small, big};
  options.max_concurrent_jobs = kMaxConcurrent;
  options.max_queued_jobs = kSmallJobs + kBigJobs;
  options.default_cpu_slots = 1;
  engine::JobService service(&coord, options);

  for (const JobDesc& job : fleet) {
    engine::JobSubmission sub;
    sub.pool = job.pool;
    sub.job_name = job.job_name;
    sub.params = job.params;
    sub.splits = SplitRecords(job.records, job.maps);
    sub.job_id = job.id;
    sub.cpu_slots = job.cpu_slots;
    std::string id;
    ANTIMR_CHECK_OK(service.Submit(std::move(sub), &id));
  }

  FleetRun run;
  for (;;) {
    const std::vector<net::JobStatusWire> rows = service.ListJobs();
    int running = 0, terminal = 0;
    for (const net::JobStatusWire& row : rows) {
      if (row.state == "running") ++running;
      if (row.state == "succeeded" || row.state == "failed" ||
          row.state == "aborted") {
        ++terminal;
      }
    }
    run.peak_running = std::max(run.peak_running, running);
    if (terminal == static_cast<int>(fleet.size())) {
      run.rows = rows;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  run.usage = service.PoolUsageSnapshot();

  service.Stop();
  coord.Stop();
  for (auto& worker : workers) worker->Stop();
  return run;
}

uint64_t Percentile(std::vector<uint64_t> sorted, double p) {
  if (sorted.empty()) return 0;
  std::sort(sorted.begin(), sorted.end());
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  return sorted[static_cast<size_t>(rank + 0.5)];
}

}  // namespace

int main() {
  Header("E8-service: multi-tenant fair-share scheduling",
         "job service PR",
         "24 small wordcounts (pool small, w=3) + 3 huge theta-joins "
         "(pool big, w=1) on one daemonized cluster");
  workloads::RegisterStandardJobs();

  std::printf("building fleet + solo reference hashes...\n");
  const std::vector<JobDesc> fleet = BuildFleet();
  std::map<std::string, const JobDesc*> by_id;
  for (const JobDesc& job : fleet) by_id[job.id] = &job;

  JsonSection job_rows, pool_rows, summary_rows;
  job_rows.name = "jobs";
  pool_rows.name = "pools";
  summary_rows.name = "summary";
  bool all_ok = true;

  for (const std::string transport : {"loopback", "tcp"}) {
    const FleetRun run = RunFleet(transport, fleet);

    // Per-job rows: isolation check + latency sample.
    std::map<std::string, std::vector<uint64_t>> latencies;
    bool hashes_ok = true;
    for (const net::JobStatusWire& row : run.rows) {
      const JobDesc* job = by_id.at(row.job_id);
      const bool ok =
          row.state == "succeeded" && row.output_hash == job->solo_hash;
      hashes_ok = hashes_ok && ok;
      const uint64_t latency = row.finish_nanos - row.submit_nanos;
      const uint64_t queue_delay = row.start_nanos - row.submit_nanos;
      latencies[row.pool].push_back(latency);
      char buf[512];
      std::snprintf(
          buf, sizeof(buf),
          "{\"name\": \"%s\", \"pool\": \"%s\", \"transport\": \"%s\", "
          "\"cpu_slots\": %u, \"latency_nanos\": %llu, "
          "\"queue_nanos\": %llu, \"dispatch_seq\": %llu, "
          "\"hash_ok\": %s}",
          row.job_id.c_str(), row.pool.c_str(), transport.c_str(),
          row.cpu_slots, static_cast<unsigned long long>(latency),
          static_cast<unsigned long long>(queue_delay),
          static_cast<unsigned long long>(row.dispatch_seq),
          ok ? "true" : "false");
      job_rows.rows.push_back(buf);
    }

    // Fairness: compare each pool's share of busy slot-time against its
    // share of the weights. 0 = shares match weights exactly.
    double total_busy = 0, total_weight = 0;
    for (const auto& usage : run.usage) {
      total_busy += static_cast<double>(usage.busy_slot_nanos);
      total_weight += usage.weight;
    }
    double fairness_error = 0;
    std::printf("\n[%s] per-pool results\n", transport.c_str());
    std::printf("  %-8s %6s %6s %12s %12s %10s %10s\n", "pool", "w", "jobs",
                "p50", "p99", "busy%", "weight%");
    for (const auto& usage : run.usage) {
      const double busy_share =
          total_busy == 0
              ? 0
              : static_cast<double>(usage.busy_slot_nanos) / total_busy;
      const double weight_share =
          total_weight == 0 ? 0 : usage.weight / total_weight;
      fairness_error += 0.5 * std::abs(busy_share - weight_share);
      const std::vector<uint64_t>& lat = latencies[usage.pool];
      const uint64_t p50 = Percentile(lat, 50), p99 = Percentile(lat, 99);
      std::printf("  %-8s %6.1f %6llu %12s %12s %9.1f%% %9.1f%%\n",
                  usage.pool.c_str(), usage.weight,
                  static_cast<unsigned long long>(usage.jobs_completed),
                  FormatNanos(p50).c_str(), FormatNanos(p99).c_str(),
                  100 * busy_share, 100 * weight_share);
      char buf[512];
      std::snprintf(
          buf, sizeof(buf),
          "{\"pool\": \"%s\", \"transport\": \"%s\", \"weight\": %.2f, "
          "\"jobs_completed\": %llu, \"busy_slot_nanos\": %llu, "
          "\"busy_share\": %.4f, \"weight_share\": %.4f, "
          "\"p50_latency_nanos\": %llu, \"p99_latency_nanos\": %llu}",
          usage.pool.c_str(), transport.c_str(), usage.weight,
          static_cast<unsigned long long>(usage.jobs_completed),
          static_cast<unsigned long long>(usage.busy_slot_nanos), busy_share,
          weight_share, static_cast<unsigned long long>(p50),
          static_cast<unsigned long long>(p99));
      pool_rows.rows.push_back(buf);
    }
    std::printf("  fairness error %.3f, peak concurrent jobs %d, "
                "output hashes vs solo: %s\n",
                fairness_error, run.peak_running,
                hashes_ok ? "all match" : "MISMATCH");
    all_ok = all_ok && hashes_ok && run.peak_running >= kMaxConcurrent;

    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "{\"transport\": \"%s\", \"workers\": %d, \"jobs\": %d, "
        "\"max_concurrent_jobs\": %d, \"peak_running\": %d, "
        "\"fairness_error\": %.4f, \"hashes_ok\": %s}",
        transport.c_str(), kWorkers,
        static_cast<int>(fleet.size()), kMaxConcurrent, run.peak_running,
        fairness_error, hashes_ok ? "true" : "false");
    summary_rows.rows.push_back(buf);
  }

  std::printf("\n");
  WriteJsonSections("BENCH_e8.json", "bench_e8_job_service",
                    {std::move(job_rows), std::move(pool_rows),
                     std::move(summary_rows)});
  std::printf("acceptance (>= %d concurrent jobs, every hash identical to "
              "solo run): %s\n",
              kMaxConcurrent, all_ok ? "PASS" : "FAIL");
  return all_ok ? 0 : 1;
}
