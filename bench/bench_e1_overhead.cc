// E1 — Section 7.1, "Anti-Combining Overhead Analysis".
// Sort on RandomText emits one Map output record per input record, so
// Anti-Combining cannot share anything: AdaptiveSH must degenerate to
// flagged-plain records, and every cost must stay within a few percent of
// the Original program (the paper measured +0.2% disk, +0.15% transfer,
// +7.8% CPU, +1.7% runtime).
#include "bench_util.h"
#include "datagen/random_text.h"
#include "workloads/sort.h"

using namespace antimr;         // NOLINT
using namespace antimr::bench;  // NOLINT

int main() {
  Header("E1: Anti-Combining overhead on Sort", "paper Section 7.1",
         "AdaptiveSH vs Original when no sharing opportunities exist");

  RandomTextConfig rc;
  rc.num_lines = 60000;
  RandomTextGenerator gen(rc);
  const auto splits = gen.MakeSplits(8);

  workloads::SortConfig sc;
  sc.num_reduce_tasks = 8;
  const JobSpec spec = workloads::MakeSortJob(sc);

  const JobMetrics orig = RunStrategy(spec, Strategy::kOriginal, splits, {},
                                      PaperHardware());
  const JobMetrics anti = RunStrategy(spec, Strategy::kAdaptiveSH, splits, {},
                                      PaperHardware());

  std::printf("%-24s %14s %14s %10s\n", "metric", "Original", "AdaptiveSH",
              "delta");
  auto row = [](const char* name, uint64_t a, uint64_t b) {
    std::printf("%-24s %14llu %14llu %10s\n", name,
                static_cast<unsigned long long>(a),
                static_cast<unsigned long long>(b), Percent(a, b).c_str());
  };
  row("disk read (B)", orig.disk_bytes_read, anti.disk_bytes_read);
  row("disk write (B)", orig.disk_bytes_written, anti.disk_bytes_written);
  row("data transfer (B)", orig.shuffle_bytes, anti.shuffle_bytes);
  row("map output (B)", orig.emitted_bytes, anti.emitted_bytes);
  row("total CPU (ns)", orig.total_cpu_nanos, anti.total_cpu_nanos);
  row("runtime (ns)", orig.wall_nanos, anti.wall_nanos);

  std::printf("\nencoding mix under AdaptiveSH: plain=%llu eager=%llu "
              "lazy=%llu (all records must be flagged-plain)\n",
              static_cast<unsigned long long>(anti.plain_records),
              static_cast<unsigned long long>(anti.eager_records),
              static_cast<unsigned long long>(anti.lazy_records));
  PaperNote("AdaptiveSH cost deltas on Sort/RandomText: +0.2% disk R/W, "
            "+0.15% transfer, +7.8% CPU, +1.7% runtime — i.e., only the "
            "per-record flag bytes and the search for sharing opportunities");

  WriteJsonReport("BENCH_e1.json", "bench_e1_overhead",
                  {{"original", orig}, {"adaptive_sh", anti}});
  return 0;
}
