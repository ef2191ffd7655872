// Span recording for the benchmark's traced runs. The benchmark times each
// layer from outside the program: wrappers (wrappers.h) open a span around
// every call they forward into a layer, so no program file is instrumented.
//
// Two kinds of record come out of a span:
//  * Tallies: per-thread call counts and *self* times (duration minus the
//    child spans nested in it on the same thread). Every wrapped call
//    updates them; they are cheap enough for per-record calls.
//  * Stored spans: coarse intervals (job, task, file operation) kept in
//    memory with start, end, parent and job id, and written at the end of
//    the run as Chrome trace-event JSON.
//
// Self times are exclusive by construction: a span's duration is charged
// once, to the innermost open span on its thread, so the self times of one
// thread always sum to the duration of its outermost spans (Tally::root_ns).
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum Kind : int {
  // workloads layer: the user functions of the untransformed program.
  kUserMap,
  kUserPartition,
  kUserReduce,
  // anticombine layer: the transformed program's mapper and reducer.
  kAcMap,
  kAcReduce,
  // io layer: file operations on the benchmark-owned Env.
  kIoWrite,
  kIoRead,
  kLayerKinds,
  // Framework calls made from inside an anticombine span (emits into the
  // map output buffer or the reduce output, pulls from the merged shuffle
  // input). They keep framework work out of the anticombine self time; their
  // own self time is part of the mr remainder, not of any layer.
  kMrEmit = kLayerKinds,
  kMrNext,
  kNumKinds
};

/// Counters summed over threads. Times are nanoseconds of wall time on the
/// recording thread.
struct Tally {
  uint64_t calls[kNumKinds] = {};
  uint64_t self_ns[kNumKinds] = {};
  uint64_t root_ns = 0;       ///< total duration of outermost spans
  uint64_t remap_calls = 0;   ///< user Map calls inside anticombine.reduce
  uint64_t io_write_bytes = 0;
  uint64_t io_read_bytes = 0;
  uint64_t io_files = 0;      ///< files created

  /// Sum of self times over the layer kinds (excludes the mr kinds).
  uint64_t LayerSelfNs() const;
  /// Sum of self times over every kind; equals root_ns.
  uint64_t AllSelfNs() const;
  Tally& operator+=(const Tally& other);
  Tally operator-(const Tally& before) const;
};

struct StoredSpan {
  std::string name;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = none
  uint32_t job = 0;     ///< 0 = outside any job
  uint32_t tid = 0;     ///< benchmark-assigned thread index
};

uint64_t NowNs();

/// Spans record only while enabled; disabled spans cost one relaxed load.
void SetEnabled(bool on);
bool Enabled();

/// The job every span recorded from now on belongs to, and its span id
/// (the parent of task spans). The benchmark runs one job at a time.
void SetCurrentJob(uint32_t job, uint64_t job_span_id);

/// Fresh span id (never 0).
uint64_t NewSpanId();

/// Snapshot of the tallies of every thread that has recorded a span.
Tally SnapshotTally();

/// Every stored span so far, in no particular order.
std::vector<StoredSpan> StoredSpans();

/// Store one finished span recorded on the calling thread.
void StoreSpan(const std::string& name, uint64_t start_ns, uint64_t end_ns,
               uint64_t id, uint64_t parent, uint32_t job);

/// Add bytes or file creations to the calling thread's io tally (only
/// while enabled).
void CountIo(uint64_t write_bytes, uint64_t read_bytes, uint64_t files);

/// \brief Tallied span around one wrapped call. When `store` is set the span
/// is also kept as a StoredSpan, parented to the thread's current task span.
class ScopedSpan {
 public:
  explicit ScopedSpan(Kind kind, bool store = false);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_ = false;
};

/// \brief Stored span covering one task on one thread: the life of the
/// outer wrapper the task's factory call creates. Not tallied: the framework
/// work between wrapped calls stays in the mr remainder.
class TaskSpan {
 public:
  void Begin(const char* name);
  void End();

 private:
  const char* name_ = nullptr;
  uint64_t start_ns_ = 0;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  uint32_t job_ = 0;
  bool open_ = false;
};

/// Write `spans` as Chrome trace-event JSON (Perfetto opens it). `meta`
/// entries land in the file's otherData object.
bool WriteChromeTrace(
    const std::string& path, const std::vector<StoredSpan>& spans,
    const std::vector<std::pair<std::string, std::string>>& meta);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
