// E9 — Section 7.7.2, "Page Rank": 5 iterations on a power-law web graph
// (the ClueWeb09 stand-in). Each node's rank contribution is duplicated
// once per out-edge — exactly the sharing EagerSH/LazySH collapse.
// Expected shape: shuffle ~2.7x smaller, disk read/write ~3.5x/3.2x,
// CPU ~2.8x, runtime ~2.4x.
#include "bench_util.h"
#include "datagen/graph.h"
#include "workloads/pagerank.h"

using namespace antimr;         // NOLINT
using namespace antimr::bench;  // NOLINT

int main() {
  Header("E9: PageRank, 5 iterations", "paper Section 7.7.2",
         "Original vs AdaptiveSH on a power-law graph (mean degree ~28)");

  GraphConfig gc;
  gc.num_nodes = 8000;
  gc.mean_out_degree = 28;
  const auto graph = GraphGenerator(gc).Generate();

  workloads::PageRankConfig cfg;
  cfg.num_nodes = gc.num_nodes;
  cfg.num_reduce_tasks = 8;
  const int kIterations = 5;

  engine::ExecutorOptions exec_options;
  exec_options.hardware = PaperHardware();
  engine::Executor executor(exec_options);
  workloads::PageRankRunResult orig, anti;
  ANTIMR_CHECK_OK(workloads::RunPageRank(cfg, graph, kIterations, nullptr,
                                         /*num_map_tasks=*/8, &orig,
                                         &executor));
  anticombine::AntiCombineOptions options;
  ANTIMR_CHECK_OK(workloads::RunPageRank(cfg, graph, kIterations, &options,
                                         /*num_map_tasks=*/8, &anti,
                                         &executor));

  std::printf("%-24s %14s %14s %10s\n", "metric (5-iter totals)", "Original",
              "AdaptiveSH", "factor");
  auto row = [](const char* name, uint64_t a, uint64_t b) {
    std::printf("%-24s %14s %14s %10s\n", name, FormatBytes(a).c_str(),
                FormatBytes(b).c_str(), Ratio(a, b).c_str());
  };
  row("shuffled data", orig.total.shuffle_bytes, anti.total.shuffle_bytes);
  row("disk read", orig.total.disk_bytes_read, anti.total.disk_bytes_read);
  row("disk write", orig.total.disk_bytes_written,
      anti.total.disk_bytes_written);
  std::printf("%-24s %14s %14s %10s\n", "total CPU",
              FormatNanos(orig.total.total_cpu_nanos).c_str(),
              FormatNanos(anti.total.total_cpu_nanos).c_str(),
              Ratio(orig.total.total_cpu_nanos,
                    anti.total.total_cpu_nanos).c_str());
  std::printf("%-24s %14s %14s %10s\n", "runtime",
              FormatNanos(orig.total.wall_nanos).c_str(),
              FormatNanos(anti.total.wall_nanos).c_str(),
              Ratio(orig.total.wall_nanos, anti.total.wall_nanos).c_str());
  std::printf("\nencoding mix: eager=%llu lazy=%llu plain=%llu\n",
              static_cast<unsigned long long>(anti.total.eager_records),
              static_cast<unsigned long long>(anti.total.lazy_records),
              static_cast<unsigned long long>(anti.total.plain_records));

  PaperNote("Section 7.7.2: shuffle reduced 2.7x, disk reads 3.5x, disk "
            "writes 3.2x, total CPU 2.8x, runtime 2.4x");
  return 0;
}
