#include "mr/metrics.h"

#include <algorithm>

#include <gtest/gtest.h>

namespace antimr {
namespace {

TEST(Metrics, AddAccumulatesEverything) {
  JobMetrics a, b;
  a.input_records = 10;
  a.emitted_bytes = 100;
  a.shared_spills = 2;
  a.cpu.map_fn = 1000;
  a.total_cpu_nanos = 5000;
  b.input_records = 5;
  b.emitted_bytes = 50;
  b.shared_spills = 1;
  b.cpu.map_fn = 200;
  b.cpu.reduce_fn = 300;
  b.total_cpu_nanos = 700;
  a.Add(b);
  EXPECT_EQ(a.input_records, 15u);
  EXPECT_EQ(a.emitted_bytes, 150u);
  EXPECT_EQ(a.shared_spills, 3u);
  EXPECT_EQ(a.cpu.map_fn, 1200u);
  EXPECT_EQ(a.cpu.reduce_fn, 300u);
  EXPECT_EQ(a.total_cpu_nanos, 5700u);
}

TEST(Metrics, PhaseTotalSumsAllPhases) {
  PhaseCpu cpu;
  cpu.map_fn = 1;
  cpu.partition_fn = 2;
  cpu.encode = 3;
  cpu.sort = 4;
  cpu.combine = 5;
  cpu.compress = 6;
  cpu.decompress = 7;
  cpu.merge = 8;
  cpu.decode = 9;
  cpu.remap = 10;
  cpu.shared = 11;
  cpu.reduce_fn = 12;
  EXPECT_EQ(cpu.Total(), 78u);
}

TEST(Metrics, FormatBytes) {
  EXPECT_EQ(FormatBytes(0), "0 B");
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(2048), "2.00 KB");
  EXPECT_EQ(FormatBytes(3 * 1024 * 1024), "3.00 MB");
  EXPECT_EQ(FormatBytes(5ULL << 30), "5.00 GB");
}

TEST(Metrics, FormatNanos) {
  EXPECT_EQ(FormatNanos(500), "500 ns");
  EXPECT_EQ(FormatNanos(1500), "1.500 us");
  EXPECT_EQ(FormatNanos(2500000), "2.500 ms");
  EXPECT_EQ(FormatNanos(1250000000ULL), "1.250 s");
}

TEST(Metrics, ToJsonIsWellFormedAndComplete) {
  JobMetrics m;
  m.input_records = 11;
  m.shuffle_bytes = 2048;
  m.cpu.remap = 77;
  m.total_cpu_nanos = 12345;
  const std::string json = m.ToJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"input_records\": 11"), std::string::npos);
  EXPECT_NE(json.find("\"shuffle_bytes\": 2048"), std::string::npos);
  EXPECT_NE(json.find("\"cpu_remap_nanos\": 77"), std::string::npos);
  EXPECT_NE(json.find("\"total_cpu_nanos\": 12345"), std::string::npos);
  // Balanced quoting and no trailing comma.
  EXPECT_EQ(std::count(json.begin(), json.end(), '"') % 2, 0);
  EXPECT_EQ(json.find(",}"), std::string::npos);
}

TEST(Metrics, ToJsonEmitsEveryCounterField) {
  // Walk the authoritative X-macro field lists: a counter added to the
  // struct but missing from ToJson (or vice versa) fails here.
  const std::string json = JobMetrics().ToJson();
#define ANTIMR_EXPECT_FIELD(name)                                    \
  EXPECT_NE(json.find("\"" #name "\": 0"), std::string::npos)        \
      << "ToJson is missing counter " #name;
  ANTIMR_JOB_SUM_FIELDS(ANTIMR_EXPECT_FIELD)
  ANTIMR_JOB_MAX_FIELDS(ANTIMR_EXPECT_FIELD)
#undef ANTIMR_EXPECT_FIELD
#define ANTIMR_EXPECT_PHASE(name)                                        \
  EXPECT_NE(json.find("\"cpu_" #name "_nanos\": 0"), std::string::npos) \
      << "ToJson is missing phase " #name;
  ANTIMR_PHASE_CPU_FIELDS(ANTIMR_EXPECT_PHASE)
#undef ANTIMR_EXPECT_PHASE
  EXPECT_NE(json.find("\"total_cpu_nanos\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"wall_nanos\": 0"), std::string::npos);
}

TEST(Metrics, AddMaxesPeakFields) {
  JobMetrics a, b;
  a.shuffle_peak_buffered_bytes = 100;
  b.shuffle_peak_buffered_bytes = 250;
  a.Add(b);
  EXPECT_EQ(a.shuffle_peak_buffered_bytes, 250u);
  b.shuffle_peak_buffered_bytes = 50;
  a.Add(b);
  EXPECT_EQ(a.shuffle_peak_buffered_bytes, 250u);
}

TEST(Metrics, TopTasksReportRanksByCpuAndNamesTheDominantPhase) {
  std::vector<TaskMetrics> tasks(3);
  tasks[0].is_map = true;
  tasks[0].task_id = 0;
  tasks[0].metrics.total_cpu_nanos = 1000;
  tasks[0].metrics.cpu.map_fn = 900;
  tasks[1].is_map = false;
  tasks[1].task_id = 4;
  tasks[1].metrics.total_cpu_nanos = 9000;
  tasks[1].metrics.cpu.reduce_fn = 6000;
  tasks[2].is_map = true;
  tasks[2].task_id = 2;
  tasks[2].metrics.total_cpu_nanos = 500;
  tasks[2].metrics.cpu.sort = 400;

  const std::string report = TopTasksReport(tasks, 2);
  // Only the two most expensive tasks appear, costliest first.
  EXPECT_NE(report.find("reduce"), std::string::npos);
  EXPECT_NE(report.find("reduce_fn"), std::string::npos);
  EXPECT_NE(report.find("map_fn"), std::string::npos);
  EXPECT_EQ(report.find("sort"), std::string::npos);
  EXPECT_LT(report.find("reduce_fn"), report.find("map_fn"));
  EXPECT_EQ(TopTasksReport({}), "");
}

TEST(Metrics, ToStringMentionsKeyCounters) {
  JobMetrics m;
  m.input_records = 7;
  m.eager_records = 3;
  const std::string s = m.ToString();
  EXPECT_NE(s.find("input"), std::string::npos);
  EXPECT_NE(s.find("eager=3"), std::string::npos);
  EXPECT_NE(s.find("shuffle"), std::string::npos);
}

}  // namespace
}  // namespace antimr
