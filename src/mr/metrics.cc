#include "mr/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "obs/metrics_registry.h"
#include "obs/trace.h"

namespace antimr {

uint64_t PhaseCpu::Total() const {
  uint64_t total = 0;
#define ANTIMR_SUM_FIELD(name) total += name;
  ANTIMR_PHASE_CPU_FIELDS(ANTIMR_SUM_FIELD)
#undef ANTIMR_SUM_FIELD
  return total;
}

void PhaseCpu::Add(const PhaseCpu& rhs) {
#define ANTIMR_ADD_FIELD(name) name += rhs.name;
  ANTIMR_PHASE_CPU_FIELDS(ANTIMR_ADD_FIELD)
#undef ANTIMR_ADD_FIELD
}

void FinishTaskClock(uint64_t start_nanos, JobMetrics* m) {
  const PhaseClock& clock = StopPhaseClock();
  m->task_wall_nanos += clock.last - clock.start;
  m->total_cpu_nanos += ThreadCpuNanos() - clock.cpu_start;
  // Map-side (AntiCombiner) and reduce-side re-executions alike.
  static obs::Counter* const remap_counter =
      obs::MetricsRegistry::Global().GetCounter(
          "antimr_remap_calls_total",
          "LazySH decodes that re-executed the original Map");
  if (m->remap_calls > 0) remap_counter->Inc(m->remap_calls);
  const bool trace = obs::kTraceCompiled && obs::TraceEnabled();
  uint64_t t = start_nanos;
#define ANTIMR_FINISH_PHASE(name)                                          \
  if (const uint64_t n = clock.nanos[static_cast<size_t>(Phase::name)]) { \
    m->cpu.name += n;                                                      \
    if (trace) obs::Tracer::Global().Complete("phase", #name, t, n);      \
    t += n;                                                                \
  }
  ANTIMR_PHASE_CPU_FIELDS(ANTIMR_FINISH_PHASE)
#undef ANTIMR_FINISH_PHASE
}

void JobMetrics::Add(const JobMetrics& other) {
#define ANTIMR_ADD_FIELD(name) name += other.name;
  ANTIMR_JOB_SUM_FIELDS(ANTIMR_ADD_FIELD)
#undef ANTIMR_ADD_FIELD
#define ANTIMR_MAX_FIELD(name) name = std::max(name, other.name);
  ANTIMR_JOB_MAX_FIELDS(ANTIMR_MAX_FIELD)
#undef ANTIMR_MAX_FIELD
  cpu.Add(other.cpu);
}

std::string JobMetrics::ToJson() const {
  std::string out = "{";
  bool first = true;
  auto field = [&](const char* name, uint64_t value) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": %" PRIu64, first ? "" : ", ",
                  name, value);
    out += buf;
    first = false;
  };
#define ANTIMR_JSON_FIELD(name) field(#name, name);
  ANTIMR_JOB_SUM_FIELDS(ANTIMR_JSON_FIELD)
  ANTIMR_JOB_MAX_FIELDS(ANTIMR_JSON_FIELD)
#undef ANTIMR_JSON_FIELD
#define ANTIMR_JSON_FIELD(name) field("cpu_" #name "_nanos", cpu.name);
  ANTIMR_PHASE_CPU_FIELDS(ANTIMR_JSON_FIELD)
#undef ANTIMR_JSON_FIELD
  field("wall_nanos", wall_nanos);
  out += "}";
  return out;
}

std::string FormatBytes(uint64_t bytes) {
  char buf[64];
  const double b = static_cast<double>(bytes);
  if (bytes >= 1ULL << 30) {
    std::snprintf(buf, sizeof(buf), "%.2f GB", b / (1ULL << 30));
  } else if (bytes >= 1ULL << 20) {
    std::snprintf(buf, sizeof(buf), "%.2f MB", b / (1ULL << 20));
  } else if (bytes >= 1ULL << 10) {
    std::snprintf(buf, sizeof(buf), "%.2f KB", b / (1ULL << 10));
  } else {
    std::snprintf(buf, sizeof(buf), "%" PRIu64 " B", bytes);
  }
  return buf;
}

std::string FormatNanos(uint64_t nanos) {
  char buf[64];
  const double n = static_cast<double>(nanos);
  if (nanos >= 1000000000ULL) {
    std::snprintf(buf, sizeof(buf), "%.3f s", n / 1e9);
  } else if (nanos >= 1000000ULL) {
    std::snprintf(buf, sizeof(buf), "%.3f ms", n / 1e6);
  } else if (nanos >= 1000ULL) {
    std::snprintf(buf, sizeof(buf), "%.3f us", n / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%" PRIu64 " ns", nanos);
  }
  return buf;
}

std::string JobMetrics::ToString() const {
  char buf[3072];
  std::snprintf(
      buf, sizeof(buf),
      "input:           %" PRIu64 " records, %s\n"
      "map output:      %" PRIu64 " records, %s\n"
      "emitted:         %" PRIu64 " records, %s"
      " (eager=%" PRIu64 " lazy=%" PRIu64 " plain=%" PRIu64 ")\n"
      "combine:         %" PRIu64 " -> %" PRIu64 " records map-side, %" PRIu64
      " -> %" PRIu64 " in Shared\n"
      "map spills:      %" PRIu64 "\n"
      "shuffle:         %s (%" PRIu64
      " blocks, peak buffered %s, %" PRIu64 " overlapped fetches,"
      " fetch wait %s)\n"
      "reduce input:    %" PRIu64 " records in %" PRIu64 " groups\n"
      "shared:          %" PRIu64 " inserts, %" PRIu64 " spills (%s), %" PRIu64
      " remap calls\n"
      "output:          %" PRIu64 " records, %s\n"
      "disk:            read %s, written %s\n"
      "task time:       %s (phases), %s thread cpu   wall: %s\n",
      input_records, FormatBytes(input_bytes).c_str(), map_output_records,
      FormatBytes(map_output_bytes).c_str(), emitted_records,
      FormatBytes(emitted_bytes).c_str(), eager_records, lazy_records,
      plain_records, combine_input_records, combine_output_records,
      shared_combine_input_records, shared_combine_output_records, map_spills,
      FormatBytes(shuffle_bytes).c_str(), shuffle_blocks,
      FormatBytes(shuffle_peak_buffered_bytes).c_str(),
      shuffle_overlapped_fetches,
      FormatNanos(shuffle_fetch_wait_nanos).c_str(), reduce_input_records,
      reduce_groups,
      shared_insertions, shared_spills, FormatBytes(shared_spill_bytes).c_str(),
      remap_calls, output_records, FormatBytes(output_bytes).c_str(),
      FormatBytes(disk_bytes_read).c_str(),
      FormatBytes(disk_bytes_written).c_str(),
      FormatNanos(cpu.Total()).c_str(), FormatNanos(total_cpu_nanos).c_str(),
      FormatNanos(wall_nanos).c_str());
  return buf;
}

namespace {

// Name + value of the phase with the largest CPU share in `cpu`.
void DominantPhase(const PhaseCpu& cpu, const char** name, uint64_t* nanos) {
  *name = "-";
  *nanos = 0;
#define ANTIMR_PICK_FIELD(field)  \
  if (cpu.field > *nanos) {       \
    *nanos = cpu.field;           \
    *name = #field;               \
  }
  ANTIMR_PHASE_CPU_FIELDS(ANTIMR_PICK_FIELD)
#undef ANTIMR_PICK_FIELD
}

}  // namespace

std::string TopTasksReport(const std::vector<TaskMetrics>& tasks,
                           size_t top_n) {
  if (tasks.empty() || top_n == 0) return "";
  std::vector<const TaskMetrics*> sorted;
  sorted.reserve(tasks.size());
  for (const TaskMetrics& t : tasks) sorted.push_back(&t);
  std::sort(sorted.begin(), sorted.end(),
            [](const TaskMetrics* a, const TaskMetrics* b) {
              return a->metrics.total_cpu_nanos > b->metrics.total_cpu_nanos;
            });
  if (sorted.size() > top_n) sorted.resize(top_n);

  std::string out;
  char buf[192];
  std::snprintf(buf, sizeof(buf), "top %zu tasks by cpu (of %zu):\n",
                sorted.size(), tasks.size());
  out.append(buf);
  for (const TaskMetrics* t : sorted) {
    const char* phase_name = nullptr;
    uint64_t phase_nanos = 0;
    DominantPhase(t->metrics.cpu, &phase_name, &phase_nanos);
    const uint64_t phase_total = t->metrics.cpu.Total();
    const double share =
        phase_total == 0 ? 0.0
                         : 100.0 * static_cast<double>(phase_nanos) /
                               static_cast<double>(phase_total);
    std::snprintf(buf, sizeof(buf),
                  "  %-6s %4d  cpu %-12s dominant %-12s %-12s (%4.1f%%)\n",
                  t->is_map ? "map" : "reduce", t->task_id,
                  FormatNanos(t->metrics.total_cpu_nanos).c_str(), phase_name,
                  FormatNanos(phase_nanos).c_str(), share);
    out.append(buf);
  }
  return out;
}

}  // namespace antimr
