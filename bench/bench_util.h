// Shared harness for the paper-reproduction benches. Each bench binary
// regenerates one table or figure from Section 7 of "Anti-Combining for
// MapReduce" (SIGMOD 2014), printing the measured rows next to the paper's
// reference numbers. Absolute values differ (the substrate is a simulator,
// the data synthetic and scaled down); the *shape* — who wins and by
// roughly what factor — is the reproduction target.
#ifndef ANTIMR_BENCH_BENCH_UTIL_H_
#define ANTIMR_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <string>
#include <vector>

#include "antimr.h"

namespace antimr {
namespace bench {

/// The four strategies compared throughout Section 7.
enum class Strategy { kOriginal, kEagerSH, kLazySH, kAdaptiveSH };

inline const char* StrategyName(Strategy s) {
  switch (s) {
    case Strategy::kOriginal:
      return "Original";
    case Strategy::kEagerSH:
      return "EagerSH";
    case Strategy::kLazySH:
      return "LazySH";
    case Strategy::kAdaptiveSH:
      return "AdaptiveSH";
  }
  return "?";
}

inline anticombine::AntiCombineOptions StrategyOptions(Strategy s) {
  switch (s) {
    case Strategy::kEagerSH:
      return anticombine::AntiCombineOptions::EagerOnly();
    case Strategy::kLazySH:
      return anticombine::AntiCombineOptions::LazyOnly();
    default:
      return anticombine::AntiCombineOptions::Unrestricted();
  }
}

/// The paper's testbed, scaled: 7.2K SATA disks and a shared gigabit
/// switch. Benches that report *runtime* enable this so wall time reflects
/// data volume, as it did on the real cluster.
inline SimulatedHardware PaperHardware() {
  SimulatedHardware hw;
  hw.disk_mb_per_s = 60;
  hw.network_mb_per_s = 15;
  return hw;
}

/// Run `spec` under a strategy (kOriginal = untransformed).
inline JobMetrics RunStrategy(const JobSpec& spec, Strategy strategy,
                              const std::vector<InputSplit>& splits,
                              anticombine::AntiCombineOptions options =
                                  anticombine::AntiCombineOptions(),
                              SimulatedHardware hardware = {}) {
  JobSpec to_run = spec;
  if (strategy != Strategy::kOriginal) {
    anticombine::AntiCombineOptions o = StrategyOptions(strategy);
    // Carry over the Shared/combiner knobs from the caller's options.
    o.map_phase_combiner = options.map_phase_combiner;
    o.combine_in_shared = options.combine_in_shared;
    o.shared_memory_bytes = options.shared_memory_bytes;
    o.cross_call_window = options.cross_call_window;
    if (strategy == Strategy::kAdaptiveSH) {
      o.lazy_threshold_nanos = options.lazy_threshold_nanos;
      o.per_partition_choice = options.per_partition_choice;
    }
    to_run = anticombine::EnableAntiCombining(to_run, o);
  }
  RunOptions run;
  run.collect_output = false;
  run.hardware = hardware;
  JobResult result;
  ANTIMR_CHECK_OK(RunJob(to_run, splits, run, &result));
  return result.metrics;
}

/// One named measurement destined for a bench's machine-readable report.
struct JsonRow {
  std::string name;
  JobMetrics metrics;
};

/// Report format version stamped into every BENCH_*.json. Bump when the
/// envelope shape changes (v1 was the bare {"rows": [...]} object; v2 added
/// schema_version and the bench name).
constexpr int kReportSchemaVersion = 2;

/// Write `rows` to `path` as a JSON object
/// {"schema_version": N, "bench": "<binary>", "rows": [{"name":..., ...}]},
/// flattening each JobMetrics via ToJson. Lets scripts ingest bench output
/// (wall/cpu/shuffle-phase counters) without scraping the printed tables.
inline void WriteJsonReport(const std::string& path, const std::string& bench,
                            const std::vector<JsonRow>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "WriteJsonReport: cannot open %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\"schema_version\": %d, \"bench\": \"%s\", \"rows\": [\n",
               kReportSchemaVersion, bench.c_str());
  for (size_t i = 0; i < rows.size(); ++i) {
    // Splice "name" into the metrics object: {"name": "...", <counters>}.
    std::fprintf(f, "  {\"name\": \"%s\", %s%s\n", rows[i].name.c_str(),
                 rows[i].metrics.ToJson().substr(1).c_str(),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

inline std::string Ratio(uint64_t base, uint64_t other) {
  if (other == 0) return "-";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2fx", static_cast<double>(base) /
                                               static_cast<double>(other));
  return buf;
}

inline std::string Percent(uint64_t base, uint64_t other) {
  if (base == 0) return "-";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%+.2f%%",
                100.0 * (static_cast<double>(other) -
                         static_cast<double>(base)) /
                    static_cast<double>(base));
  return buf;
}

inline void Header(const char* experiment, const char* paper_ref,
                   const char* description) {
  std::printf("=====================================================\n");
  std::printf("%s  (%s)\n%s\n", experiment, paper_ref, description);
  std::printf("=====================================================\n");
}

inline void PaperNote(const char* note) {
  std::printf("\npaper reference: %s\n\n", note);
}

}  // namespace bench
}  // namespace antimr

#endif  // ANTIMR_BENCH_BENCH_UTIL_H_
