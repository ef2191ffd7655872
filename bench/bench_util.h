// Shared harness for the paper-reproduction benches. Each bench binary
// regenerates one table or figure from Section 7 of "Anti-Combining for
// MapReduce" (SIGMOD 2014), printing the measured rows next to the paper's
// reference numbers. Absolute values differ (the substrate is a simulator,
// the data synthetic and scaled down); the *shape* — who wins and by
// roughly what factor — is the reproduction target.
#ifndef ANTIMR_BENCH_BENCH_UTIL_H_
#define ANTIMR_BENCH_BENCH_UTIL_H_

#include <algorithm>
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
    o.shared_spill_merge_threshold = options.shared_spill_merge_threshold;
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
  /// Extra raw-JSON members spliced into the row object between "name" and
  /// the metrics counters, e.g. "\"transport\": \"tcp\", \"workers\": 4".
  /// The distributed bench stamps its transport and measured wire bytes
  /// here. Empty = no extra members (existing reports are unchanged).
  std::string extra;
};

/// Report format version stamped into every BENCH_*.json. Bump when the
/// envelope shape changes (v1 was the bare {"rows": [...]} object; v2 added
/// schema_version and the bench name).
constexpr int kReportSchemaVersion = 2;

/// A named JSON array of pre-rendered row objects, for benches whose rows
/// are not JobMetrics counters (record-path stats, scan rows, job-service
/// latencies). Every element must be a complete JSON object.
struct JsonSection {
  std::string name;               ///< array key, e.g. "rows" or "scan"
  std::vector<std::string> rows;  ///< rendered JSON objects, one per row
};

/// Write `sections` to `path` under the shared report envelope
/// {"schema_version": N, "bench": "<binary>", "<section>": [...], ...}.
/// The single place the envelope is stamped: every bench that wants its
/// BENCH_*.json mergeable with the trajectory goes through here (directly,
/// or via WriteJsonReport for JobMetrics-shaped rows).
inline void WriteJsonSections(const std::string& path,
                              const std::string& bench,
                              const std::vector<JsonSection>& sections) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "WriteJsonSections: cannot open %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\"schema_version\": %d, \"bench\": \"%s\"",
               kReportSchemaVersion, bench.c_str());
  for (const JsonSection& section : sections) {
    std::fprintf(f, ", \"%s\": [\n", section.name.c_str());
    for (size_t i = 0; i < section.rows.size(); ++i) {
      std::fprintf(f, "  %s%s\n", section.rows[i].c_str(),
                   i + 1 < section.rows.size() ? "," : "");
    }
    std::fprintf(f, "]");
  }
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

/// Write `rows` to `path` as a JSON object
/// {"schema_version": N, "bench": "<binary>", "rows": [{"name":..., ...}]},
/// flattening each JobMetrics via ToJson. Lets scripts ingest bench output
/// (wall/cpu/shuffle-phase counters) without scraping the printed tables.
inline void WriteJsonReport(const std::string& path, const std::string& bench,
                            const std::vector<JsonRow>& rows) {
  JsonSection section;
  section.name = "rows";
  for (const JsonRow& row : rows) {
    // Splice "name" (and any extra members) into the metrics object:
    // {"name": "...", <extra,> <counters>}.
    const std::string json = row.metrics.ToJson();
    const std::string extra = row.extra.empty() ? "" : row.extra + ", ";
    section.rows.push_back("{\"name\": \"" + row.name + "\", " + extra +
                           json.substr(1));
  }
  WriteJsonSections(path, bench, {std::move(section)});
}

/// Cut `records` into `num_splits` contiguous map inputs the way MakeSplits
/// does, so every cluster size and process layout maps the same ranges.
/// Empty input gives one empty split.
inline std::vector<std::vector<KV>> SplitRecords(
    const std::vector<KV>& records, int num_splits) {
  std::vector<std::vector<KV>> splits;
  const size_t per =
      (records.size() + num_splits - 1) / static_cast<size_t>(num_splits);
  for (size_t start = 0; start < records.size(); start += per) {
    const size_t end = std::min(records.size(), start + per);
    splits.emplace_back(records.begin() + static_cast<long>(start),
                        records.begin() + static_cast<long>(end));
  }
  if (splits.empty()) splits.emplace_back();
  return splits;
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
