// E6-obs — what does cluster-wide observability cost? The tentpole claim is
// that trace propagation (per-task span capture, chunk serialization, wire
// shipping, coordinator merge) and metrics federation (full registry
// snapshots on every heartbeat) are cheap enough to leave on: tracing on vs
// off, on the loopback transport and on real TCP sockets, must stay within
// 5% of each other on wall time.
//
// Each measurement brings up a fresh 2-worker cluster, runs the same
// wordcount, and tears everything down; the traced runs additionally merge
// the shipped chunks into the full cluster trace (the cost an operator
// actually pays for a --cluster-trace run). Wall time is best-of-N to damp
// scheduler noise. Results land in BENCH_e6.json with the transport,
// worker-count, and tracing labels stamped into every row.
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "datagen/random_text.h"
#include "engine/coordinator.h"
#include "engine/worker.h"
#include "net/frame.h"
#include "net/transport.h"
#include "obs/trace.h"
#include "workloads/registry.h"

using namespace antimr;         // NOLINT
using namespace antimr::bench;  // NOLINT

namespace {

struct ObsMeasurement {
  JobMetrics metrics;
  uint64_t wall_nanos = 0;          ///< best of kRepeats runs
  uint64_t wire_bytes_sent = 0;     ///< last run
  uint64_t trace_events = 0;        ///< merged events (traced runs only)
  uint64_t trace_json_bytes = 0;    ///< rendered trace size (traced runs)
};

constexpr int kRepeats = 3;

/// One cluster lifetime: start coordinator + 2 workers, run wordcount,
/// stop. With `tracing`, the run is captured end to end and merged into the
/// cluster trace afterwards — the complete --cluster-trace code path.
ObsMeasurement RunOnce(const std::string& transport_kind, bool tracing,
                       const std::vector<std::vector<KV>>& splits) {
  std::unique_ptr<net::Transport> transport =
      transport_kind == "tcp" ? net::NewTcpTransport()
                              : net::NewLoopbackTransport();
  engine::Coordinator coord(transport.get());
  ANTIMR_CHECK_OK(coord.Start(""));
  std::vector<std::unique_ptr<engine::Worker>> fleet;
  for (int i = 0; i < 2; ++i) {
    engine::WorkerOptions options;
    options.name = "bench_w" + std::to_string(i);
    options.slots = 2;
    fleet.push_back(
        std::make_unique<engine::Worker>(transport.get(), options));
    ANTIMR_CHECK_OK(fleet.back()->Start(coord.addr()));
  }
  ANTIMR_CHECK_OK(coord.WaitForWorkers(2, 10ull * 1000 * 1000 * 1000)
                      ? Status::OK()
                      : Status::IOError("worker quorum timeout"));

  engine::DistJobOptions options;
  options.job_name = "wordcount";
  options.params = {{"reduces", "8"}, {"anti_combine", "adaptive"}};
  options.splits = splits;
  options.collect_outputs = false;
  options.network_mb_per_s = PaperHardware().network_mb_per_s;

  if (tracing && obs::kTraceCompiled) obs::Tracer::Global().Start();
  const net::WireCounters before = net::SnapshotWireCounters();
  const uint64_t t0 = NowNanos();
  engine::DistJobResult result;
  ANTIMR_CHECK_OK(engine::RunDistributedJob(&coord, options, &result));

  ObsMeasurement m;
  if (tracing && obs::kTraceCompiled) {
    // The merge is part of what a --cluster-trace run pays; keep it inside
    // the measured window.
    const std::string json = coord.ClusterTraceJson();
    m.trace_json_bytes = json.size();
    m.trace_events = 0;
    for (size_t pos = json.find("\"ph\""); pos != std::string::npos;
         pos = json.find("\"ph\"", pos + 4)) {
      ++m.trace_events;
    }
  }
  m.wall_nanos = NowNanos() - t0;
  const net::WireCounters after = net::SnapshotWireCounters();
  if (tracing && obs::kTraceCompiled) {
    obs::Tracer::Global().Stop();
    obs::Tracer::Global().Clear();
  }

  coord.Stop();
  for (auto& worker : fleet) worker->Stop();

  m.metrics = result.metrics;
  m.wire_bytes_sent = after.bytes_sent - before.bytes_sent;
  return m;
}

ObsMeasurement RunBest(const std::string& transport_kind, bool tracing,
                       const std::vector<std::vector<KV>>& splits) {
  ObsMeasurement best;
  for (int i = 0; i < kRepeats; ++i) {
    ObsMeasurement m = RunOnce(transport_kind, tracing, splits);
    if (i == 0 || m.wall_nanos < best.wall_nanos) best = std::move(m);
  }
  return best;
}

std::string RowExtra(const std::string& transport, bool tracing,
                     const ObsMeasurement& m) {
  char buf[224];
  std::snprintf(
      buf, sizeof(buf),
      "\"transport\": \"%s\", \"workers\": 2, \"tracing\": %s, "
      "\"wire_bytes_sent\": %llu, \"trace_events\": %llu, "
      "\"trace_json_bytes\": %llu",
      transport.c_str(), tracing ? "true" : "false",
      static_cast<unsigned long long>(m.wire_bytes_sent),
      static_cast<unsigned long long>(m.trace_events),
      static_cast<unsigned long long>(m.trace_json_bytes));
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  bool perf_gate = true;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--no-perf-gate") == 0) perf_gate = false;
  }

  workloads::RegisterStandardJobs();
  Header("E6-obs: cluster observability overhead",
         "observability extension; acceptance: <5% wall overhead",
         "tracing on vs off, loopback vs tcp, 2-worker wordcount");

  RandomTextConfig rc;
  rc.num_lines = 20000;
  rc.seed = 42;
  const auto splits = SplitRecords(RandomTextGenerator(rc).Generate(), 8);

  if (!obs::kTraceCompiled) {
    std::printf("note: built with ANTIMR_TRACE=OFF — traced rows run "
                "without capture and the gate is vacuous\n\n");
  }

  std::vector<JsonRow> rows;
  bool gate_ok = true;
  std::printf("%-9s %-9s %12s %14s %12s %10s\n", "transport", "tracing",
              "wall", "wire sent", "trace evts", "overhead");
  for (const std::string transport : {"loopback", "tcp"}) {
    const ObsMeasurement off = RunBest(transport, /*tracing=*/false, splits);
    const ObsMeasurement on = RunBest(transport, /*tracing=*/true, splits);
    const double overhead =
        off.wall_nanos == 0
            ? 0.0
            : 100.0 * (static_cast<double>(on.wall_nanos) -
                       static_cast<double>(off.wall_nanos)) /
                  static_cast<double>(off.wall_nanos);
    if (overhead >= 5.0) gate_ok = false;
    std::printf("%-9s %-9s %12s %14s %12s %9s\n", transport.c_str(), "off",
                FormatNanos(off.wall_nanos).c_str(),
                FormatBytes(off.wire_bytes_sent).c_str(), "-", "-");
    std::printf("%-9s %-9s %12s %14s %12llu %+9.2f%%\n", transport.c_str(),
                "on", FormatNanos(on.wall_nanos).c_str(),
                FormatBytes(on.wire_bytes_sent).c_str(),
                static_cast<unsigned long long>(on.trace_events), overhead);

    for (const bool tracing : {false, true}) {
      const ObsMeasurement& m = tracing ? on : off;
      JsonRow row;
      row.name = std::string("wordcount/") + transport + "/w2/" +
                 (tracing ? "trace_on" : "trace_off");
      row.metrics = m.metrics;
      row.metrics.wall_nanos = m.wall_nanos;
      row.extra = RowExtra(transport, tracing, m);
      rows.push_back(std::move(row));
    }
  }

  PaperNote(
      "Span capture is one uncontended lock per event, chunks ride frames "
      "that already flow (TaskResult, heartbeats), and the merge is a "
      "per-lane sort — so turning the full cluster trace on costs low "
      "single-digit percent, cheap enough to leave on for every run.");
  WriteJsonReport("BENCH_e6.json", "bench_e6_observability", rows);

  std::printf("observability overhead gate (<5%% wall): %s%s\n",
              gate_ok ? "PASS" : "FAIL", perf_gate ? "" : " (not gating)");
  return perf_gate && !gate_ok ? 1 : 0;
}
