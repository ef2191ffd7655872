// E5-dist — the coordinator/worker engine under real multi-worker shuffles.
// Two questions the single-process benches can't answer:
//
//  1. Scaling: wordcount and theta-join across 1/2/4 workers, on the
//     in-memory loopback transport and on real TCP sockets. Wire bytes are
//     *measured* at the frame layer (every control frame and every shuffle
//     chunk crosses it), not inferred from segment sizes.
//  2. Strategy interaction: does Anti-Combining's shuffle-volume story
//     survive the move to a networked shuffle? EagerSH/LazySH/AdaptiveSH vs
//     Original on a 2-worker cluster — the transferred-bytes ordering must
//     match the single-process reproduction of Figure 9.
//
// Results land in BENCH_e5.json, each row stamped with its transport.
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "datagen/cloud.h"
#include "datagen/random_text.h"
#include "engine/coordinator.h"
#include "engine/worker.h"
#include "net/frame.h"
#include "net/transport.h"
#include "workloads/registry.h"
#include "workloads/theta_join.h"

using namespace antimr;         // NOLINT
using namespace antimr::bench;  // NOLINT

namespace {

struct DistMeasurement {
  JobMetrics metrics;
  uint64_t wire_bytes_sent = 0;
  uint64_t wire_bytes_received = 0;
  uint64_t wall_nanos = 0;
};

/// Bring up a fresh cluster (coordinator + `workers` in-process Worker
/// objects on one transport), run the job, tear everything down.
DistMeasurement RunCluster(const std::string& transport_kind, int workers,
                           const std::string& job_name,
                           const net::JobParams& params,
                           const std::vector<std::vector<KV>>& splits) {
  std::unique_ptr<net::Transport> transport =
      transport_kind == "tcp" ? net::NewTcpTransport()
                              : net::NewLoopbackTransport();
  engine::Coordinator coord(transport.get());
  ANTIMR_CHECK_OK(coord.Start(""));
  std::vector<std::unique_ptr<engine::Worker>> fleet;
  for (int i = 0; i < workers; ++i) {
    engine::WorkerOptions options;
    options.name = "bench_w" + std::to_string(i);
    options.slots = 2;
    fleet.push_back(
        std::make_unique<engine::Worker>(transport.get(), options));
    ANTIMR_CHECK_OK(fleet.back()->Start(coord.addr()));
  }
  ANTIMR_CHECK_OK(coord.WaitForWorkers(workers, 10ull * 1000 * 1000 * 1000)
                      ? Status::OK()
                      : Status::IOError("worker quorum timeout"));

  engine::DistJobOptions options;
  options.job_name = job_name;
  options.params = params;
  options.splits = splits;
  options.collect_outputs = false;
  // The paper testbed's shared gigabit switch, as in the other benches.
  options.network_mb_per_s = PaperHardware().network_mb_per_s;

  const net::WireCounters before = net::SnapshotWireCounters();
  const uint64_t t0 = NowNanos();
  engine::DistJobResult result;
  ANTIMR_CHECK_OK(engine::RunDistributedJob(&coord, options, &result));
  const uint64_t wall = NowNanos() - t0;
  const net::WireCounters after = net::SnapshotWireCounters();

  coord.Stop();
  for (auto& worker : fleet) worker->Stop();

  DistMeasurement m;
  m.metrics = result.metrics;
  m.wire_bytes_sent = after.bytes_sent - before.bytes_sent;
  m.wire_bytes_received = after.bytes_received - before.bytes_received;
  m.wall_nanos = wall;
  return m;
}

std::string RowExtra(const std::string& transport, int workers,
                     const DistMeasurement& m) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "\"transport\": \"%s\", \"workers\": %d, "
                "\"wire_bytes_sent\": %llu, \"wire_bytes_received\": %llu",
                transport.c_str(), workers,
                static_cast<unsigned long long>(m.wire_bytes_sent),
                static_cast<unsigned long long>(m.wire_bytes_received));
  return buf;
}

}  // namespace

int main() {
  workloads::RegisterStandardJobs();
  Header("E5-dist: coordinator/worker engine over a networked shuffle",
         "engine extension; shuffle volumes per paper Section 7",
         "scaling across workers and transports; strategies on the wire");

  RandomTextConfig rc;
  rc.num_lines = 20000;
  rc.seed = 42;
  const std::vector<KV> text = RandomTextGenerator(rc).Generate();

  CloudConfig cc;
  cc.num_records = 4000;
  cc.seed = 42;
  const std::vector<KV> cloud = CloudGenerator(cc).Generate();
  int grid_rows = 0, grid_cols = 0;
  workloads::SizeGridForMemory(cc.num_records, 1000, &grid_rows, &grid_cols);

  struct Workload {
    const char* label;
    const char* job_name;
    const std::vector<KV>* input;
    net::JobParams base_params;
  };
  const std::vector<Workload> workloads = {
      {"wordcount", "wordcount", &text, {{"reduces", "8"}}},
      {"theta_join",
       "theta_join",
       &cloud,
       {{"reduces", "8"},
        {"grid_rows", std::to_string(grid_rows)},
        {"grid_cols", std::to_string(grid_cols)}}},
  };

  std::vector<JsonRow> rows;

  std::printf("--- scaling: AdaptiveSH, 8 maps, loopback vs tcp ---\n");
  std::printf("%-12s %-9s %8s %12s %14s %14s\n", "workload", "transport",
              "workers", "wall", "wire sent", "wire recv");
  for (const Workload& w : workloads) {
    const auto splits = SplitRecords(*w.input, 8);
    net::JobParams params = w.base_params;
    params.emplace_back("anti_combine", "adaptive");
    for (const std::string transport : {"loopback", "tcp"}) {
      for (const int workers : {1, 2, 4}) {
        const DistMeasurement m =
            RunCluster(transport, workers, w.job_name, params, splits);
        std::printf("%-12s %-9s %8d %12s %14s %14s\n", w.label,
                    transport.c_str(), workers,
                    FormatNanos(m.wall_nanos).c_str(),
                    FormatBytes(m.wire_bytes_sent).c_str(),
                    FormatBytes(m.wire_bytes_received).c_str());
        JsonRow row;
        row.name = std::string(w.label) + "/" + transport + "/w" +
                   std::to_string(workers) + "/AdaptiveSH";
        row.metrics = m.metrics;
        row.metrics.wall_nanos = m.wall_nanos;
        row.extra = RowExtra(transport, workers, m);
        rows.push_back(std::move(row));
      }
    }
  }

  std::printf("\n--- strategies on the wire: 2 workers, loopback ---\n");
  std::printf("%-12s %-11s %12s %14s %14s\n", "workload", "strategy", "wall",
              "shuffle", "wire sent");
  for (const Workload& w : workloads) {
    const auto splits = SplitRecords(*w.input, 8);
    for (const std::string strategy :
         {"original", "eager", "lazy", "adaptive"}) {
      net::JobParams params = w.base_params;
      if (strategy != "original") {
        params.emplace_back("anti_combine", strategy);
      }
      const DistMeasurement m =
          RunCluster("loopback", 2, w.job_name, params, splits);
      std::printf("%-12s %-11s %12s %14s %14s\n", w.label, strategy.c_str(),
                  FormatNanos(m.wall_nanos).c_str(),
                  FormatBytes(m.metrics.shuffle_bytes).c_str(),
                  FormatBytes(m.wire_bytes_sent).c_str());
      JsonRow row;
      row.name = std::string(w.label) + "/loopback/w2/" + strategy;
      row.metrics = m.metrics;
      row.metrics.wall_nanos = m.wall_nanos;
      row.extra = RowExtra("loopback", 2, m);
      rows.push_back(std::move(row));
    }
  }

  PaperNote(
      "The networked shuffle preserves the single-process story: EagerSH "
      "trades CPU for smaller transfers, LazySH resends inputs, AdaptiveSH "
      "tracks the better of the two — now visible in measured wire bytes, "
      "with control-plane framing as the only overhead.");
  WriteJsonReport("BENCH_e5.json", "bench_e5_distributed", rows);
  return 0;
}
