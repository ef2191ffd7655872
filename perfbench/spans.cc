#include "spans.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>

namespace perfbench {

namespace {

constexpr int kMaxDepth = 32;

// Counters of one thread. Only the owning thread writes them; readers sum
// them between jobs, so relaxed atomics suffice.
struct AtomicTally {
  std::atomic<uint64_t> calls[kNumKinds] = {};
  std::atomic<uint64_t> self_ns[kNumKinds] = {};
  std::atomic<uint64_t> root_ns{0};
  std::atomic<uint64_t> remap_calls{0};
  std::atomic<uint64_t> io_write_bytes{0};
  std::atomic<uint64_t> io_read_bytes{0};
  std::atomic<uint64_t> io_files{0};
};

void Bump(std::atomic<uint64_t>& counter, uint64_t delta) {
  counter.store(counter.load(std::memory_order_relaxed) + delta,
                std::memory_order_relaxed);
}

struct Frame {
  Kind kind;
  bool store;
  uint64_t start_ns;
  uint64_t child_ns;
};

struct ThreadState {
  uint32_t tid = 0;
  AtomicTally tally;
  Frame stack[kMaxDepth] = {};
  int depth = 0;
  int overflow = 0;  // pushes past kMaxDepth, popped without recording
  uint64_t task_span = 0;  // id of the open TaskSpan on this thread

  std::mutex spans_mu;  // guards spans (read by the main thread)
  std::vector<StoredSpan> spans;
};

std::atomic<bool> g_enabled{false};
std::atomic<uint32_t> g_job{0};
std::atomic<uint64_t> g_job_span{0};
std::atomic<uint64_t> g_next_span_id{1};

std::mutex g_threads_mu;
// Owned here, not by the thread, so tallies outlive pool threads; never
// destroyed, so a thread still running at exit can keep recording.
std::vector<std::unique_ptr<ThreadState>>& Threads() {
  static auto* threads = new std::vector<std::unique_ptr<ThreadState>>();
  return *threads;
}

ThreadState* ThisThread() {
  thread_local ThreadState* state = nullptr;
  if (state == nullptr) {
    std::lock_guard<std::mutex> lock(g_threads_mu);
    Threads().push_back(std::make_unique<ThreadState>());
    state = Threads().back().get();
    state->tid = static_cast<uint32_t>(Threads().size());
  }
  return state;
}

const char* KindName(int kind) {
  static const char* const kNames[kNumKinds] = {
      "workloads.map", "workloads.partition", "workloads.reduce",
      "anticombine.map", "anticombine.reduce", "io.write", "io.read",
      "mr.emit", "mr.next"};
  return kNames[kind];
}

void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out->append(buf);
    } else {
      out->push_back(c);
    }
  }
  out->push_back('"');
}

}  // namespace

uint64_t Tally::LayerSelfNs() const {
  uint64_t sum = 0;
  for (int k = 0; k < kLayerKinds; ++k) sum += self_ns[k];
  return sum;
}

uint64_t Tally::AllSelfNs() const {
  uint64_t sum = 0;
  for (int k = 0; k < kNumKinds; ++k) sum += self_ns[k];
  return sum;
}

namespace {

// Apply `op` to every counter of `a` and its counterpart in `b`.
template <typename Op>
void Combine(Tally* a, const Tally& b, Op op) {
  for (int k = 0; k < kNumKinds; ++k) {
    op(a->calls[k], b.calls[k]);
    op(a->self_ns[k], b.self_ns[k]);
  }
  op(a->root_ns, b.root_ns);
  op(a->remap_calls, b.remap_calls);
  op(a->io_write_bytes, b.io_write_bytes);
  op(a->io_read_bytes, b.io_read_bytes);
  op(a->io_files, b.io_files);
}

}  // namespace

Tally& Tally::operator+=(const Tally& other) {
  Combine(this, other, [](uint64_t& x, uint64_t y) { x += y; });
  return *this;
}

Tally Tally::operator-(const Tally& before) const {
  Tally d = *this;
  Combine(&d, before, [](uint64_t& x, uint64_t y) { x -= y; });
  return d;
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void SetEnabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

void SetCurrentJob(uint32_t job, uint64_t job_span_id) {
  g_job.store(job, std::memory_order_relaxed);
  g_job_span.store(job_span_id, std::memory_order_relaxed);
}

uint64_t NewSpanId() {
  return g_next_span_id.fetch_add(1, std::memory_order_relaxed);
}

Tally SnapshotTally() {
  Tally t;
  std::lock_guard<std::mutex> lock(g_threads_mu);
  for (const auto& th : Threads()) {
    const AtomicTally& a = th->tally;
    for (int k = 0; k < kNumKinds; ++k) {
      t.calls[k] += a.calls[k].load(std::memory_order_relaxed);
      t.self_ns[k] += a.self_ns[k].load(std::memory_order_relaxed);
    }
    t.root_ns += a.root_ns.load(std::memory_order_relaxed);
    t.remap_calls += a.remap_calls.load(std::memory_order_relaxed);
    t.io_write_bytes += a.io_write_bytes.load(std::memory_order_relaxed);
    t.io_read_bytes += a.io_read_bytes.load(std::memory_order_relaxed);
    t.io_files += a.io_files.load(std::memory_order_relaxed);
  }
  return t;
}

std::vector<StoredSpan> StoredSpans() {
  std::vector<StoredSpan> all;
  std::lock_guard<std::mutex> lock(g_threads_mu);
  for (const auto& th : Threads()) {
    std::lock_guard<std::mutex> spans_lock(th->spans_mu);
    all.insert(all.end(), th->spans.begin(), th->spans.end());
  }
  return all;
}

void StoreSpan(const std::string& name, uint64_t start_ns, uint64_t end_ns,
               uint64_t id, uint64_t parent, uint32_t job) {
  ThreadState* th = ThisThread();
  std::lock_guard<std::mutex> lock(th->spans_mu);
  th->spans.push_back({name, start_ns, end_ns, id, parent, job, th->tid});
}

void CountIo(uint64_t write_bytes, uint64_t read_bytes, uint64_t files) {
  if (!Enabled()) return;
  AtomicTally& a = ThisThread()->tally;
  Bump(a.io_write_bytes, write_bytes);
  Bump(a.io_read_bytes, read_bytes);
  Bump(a.io_files, files);
}

ScopedSpan::ScopedSpan(Kind kind, bool store) {
  if (!Enabled()) return;
  active_ = true;
  ThreadState* th = ThisThread();
  if (th->depth == kMaxDepth) {
    ++th->overflow;
    return;
  }
  if (kind == kUserMap && th->depth > 0 &&
      th->stack[th->depth - 1].kind == kAcReduce) {
    Bump(th->tally.remap_calls, 1);
  }
  th->stack[th->depth++] = Frame{kind, store, NowNs(), 0};
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  ThreadState* th = ThisThread();
  if (th->overflow > 0) {
    --th->overflow;
    return;
  }
  const uint64_t end = NowNs();
  const Frame f = th->stack[--th->depth];
  const uint64_t dur = end - f.start_ns;
  Bump(th->tally.calls[f.kind], 1);
  Bump(th->tally.self_ns[f.kind], dur - f.child_ns);
  if (th->depth > 0) {
    th->stack[th->depth - 1].child_ns += dur;
  } else {
    Bump(th->tally.root_ns, dur);
  }
  if (f.store) {
    StoreSpan(KindName(f.kind), f.start_ns, end, NewSpanId(), th->task_span,
              g_job.load(std::memory_order_relaxed));
  }
}

void TaskSpan::Begin(const char* name) {
  if (!Enabled()) return;
  name_ = name;
  id_ = NewSpanId();
  parent_ = g_job_span.load(std::memory_order_relaxed);
  job_ = g_job.load(std::memory_order_relaxed);
  start_ns_ = NowNs();
  open_ = true;
  ThisThread()->task_span = id_;
}

void TaskSpan::End() {
  if (!open_) return;
  open_ = false;
  ThisThread()->task_span = 0;
  StoreSpan(name_, start_ns_, NowNs(), id_, parent_, job_);
}

bool WriteChromeTrace(
    const std::string& path, const std::vector<StoredSpan>& spans,
    const std::vector<std::pair<std::string, std::string>>& meta) {
  uint64_t origin = UINT64_MAX;
  for (const StoredSpan& s : spans) origin = std::min(origin, s.start_ns);
  std::string out = "{\"displayTimeUnit\":\"ms\",\"otherData\":{";
  for (size_t i = 0; i < meta.size(); ++i) {
    if (i > 0) out += ",";
    AppendJsonString(&out, meta[i].first);
    out += ":";
    AppendJsonString(&out, meta[i].second);
  }
  out += "},\"traceEvents\":[";
  char buf[256];
  for (size_t i = 0; i < spans.size(); ++i) {
    const StoredSpan& s = spans[i];
    if (i > 0) out += ",\n";
    out += "{\"name\":";
    AppendJsonString(&out, s.name);
    const std::string cat = s.name.substr(0, s.name.find_first_of("._"));
    out += ",\"cat\":";
    AppendJsonString(&out, cat);
    std::snprintf(buf, sizeof(buf),
                  ",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"span\":%llu,\"parent\":%llu,"
                  "\"job\":%u}}",
                  s.tid, (s.start_ns - origin) / 1e3,
                  (s.end_ns - s.start_ns) / 1e3,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent), s.job);
    out += buf;
  }
  out += "]}\n";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace perfbench
