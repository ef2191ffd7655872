#include "obs/trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "common/coding.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/stopwatch.h"

namespace antimr {
namespace obs {

namespace internal {
std::atomic<bool> g_trace_enabled{false};
}  // namespace internal

TraceArgs& TraceArgs::Add(const char* key, uint64_t value) {
  if (!body_.empty()) body_.append(", ");
  body_.push_back('"');
  body_.append(key);
  body_.append("\": ");
  body_.append(std::to_string(value));
  return *this;
}

TraceArgs& TraceArgs::Add(const char* key, int64_t value) {
  if (!body_.empty()) body_.append(", ");
  body_.push_back('"');
  body_.append(key);
  body_.append("\": ");
  body_.append(std::to_string(value));
  return *this;
}

TraceArgs& TraceArgs::Add(const char* key, const std::string& value) {
  if (!body_.empty()) body_.append(", ");
  body_.push_back('"');
  body_.append(key);
  body_.append("\": ");
  AppendJsonString(&body_, value);
  return *this;
}

struct TraceEvent {
  char ph;            // B E X i C b e s f
  const char* cat;    // static string; may be "" for C events
  std::string name;
  uint64_t ts_nanos;
  uint64_t dur_nanos;  // X only
  uint64_t id;         // b/e/s/f only
  int64_t value;       // C only
  std::string args;    // pre-rendered args body, no braces
};

struct Tracer::ThreadBuffer {
  std::mutex mu;
  int tid;
  std::string name;
  std::vector<TraceEvent> events;
};

Tracer& Tracer::Global() {
  static Tracer* t = new Tracer();  // leaked: worker threads may outlive main
  return *t;
}

Tracer::ThreadBuffer* Tracer::BufferForThisThread() {
  thread_local ThreadBuffer* buf = nullptr;
  if (buf == nullptr) {
    auto* b = new ThreadBuffer();
    b->tid = LogThreadId();
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(b);
    buf = b;
  }
  return buf;
}

void Tracer::Start() {
  internal::g_trace_enabled.store(true, std::memory_order_relaxed);
}

void Tracer::Stop() {
  internal::g_trace_enabled.store(false, std::memory_order_relaxed);
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (ThreadBuffer* b : buffers_) {
    std::lock_guard<std::mutex> bl(b->mu);
    b->events.clear();
  }
}

void Tracer::Begin(const char* cat, std::string name) {
  ThreadBuffer* b = BufferForThisThread();
  const uint64_t now = NowNanos();
  std::lock_guard<std::mutex> lock(b->mu);
  b->events.push_back({'B', cat, std::move(name), now, 0, 0, 0, {}});
}

void Tracer::End() {
  ThreadBuffer* b = BufferForThisThread();
  const uint64_t now = NowNanos();
  std::lock_guard<std::mutex> lock(b->mu);
  b->events.push_back({'E', "", {}, now, 0, 0, 0, {}});
}

void Tracer::Complete(const char* cat, std::string name, uint64_t ts_nanos,
                      uint64_t dur_nanos, TraceArgs args) {
  ThreadBuffer* b = BufferForThisThread();
  std::lock_guard<std::mutex> lock(b->mu);
  b->events.push_back({'X', cat, std::move(name), ts_nanos, dur_nanos, 0, 0,
                       args.json_body()});
}

void Tracer::Instant(const char* cat, std::string name, TraceArgs args) {
  ThreadBuffer* b = BufferForThisThread();
  const uint64_t now = NowNanos();
  std::lock_guard<std::mutex> lock(b->mu);
  b->events.push_back(
      {'i', cat, std::move(name), now, 0, 0, 0, args.json_body()});
}

void Tracer::CounterValue(std::string name, int64_t value) {
  ThreadBuffer* b = BufferForThisThread();
  const uint64_t now = NowNanos();
  std::lock_guard<std::mutex> lock(b->mu);
  b->events.push_back({'C', "", std::move(name), now, 0, 0, value, {}});
}

void Tracer::AsyncBegin(const char* cat, std::string name, uint64_t id,
                        uint64_t ts_nanos) {
  ThreadBuffer* b = BufferForThisThread();
  std::lock_guard<std::mutex> lock(b->mu);
  b->events.push_back({'b', cat, std::move(name), ts_nanos, 0, id, 0, {}});
}

void Tracer::AsyncEnd(const char* cat, std::string name, uint64_t id,
                      uint64_t ts_nanos) {
  ThreadBuffer* b = BufferForThisThread();
  std::lock_guard<std::mutex> lock(b->mu);
  b->events.push_back({'e', cat, std::move(name), ts_nanos, 0, id, 0, {}});
}

void Tracer::FlowStart(const char* cat, std::string name, uint64_t id) {
  ThreadBuffer* b = BufferForThisThread();
  const uint64_t now = NowNanos();
  std::lock_guard<std::mutex> lock(b->mu);
  b->events.push_back({'s', cat, std::move(name), now, 0, id, 0, {}});
}

void Tracer::FlowEnd(const char* cat, std::string name, uint64_t id) {
  ThreadBuffer* b = BufferForThisThread();
  const uint64_t now = NowNanos();
  std::lock_guard<std::mutex> lock(b->mu);
  b->events.push_back({'f', cat, std::move(name), now, 0, id, 0, {}});
}

namespace {

// Chunk wire format (concatenable sequence of lane blocks):
//   varint32 tid | length-prefixed lane name | varint64 event count |
//   per event: u8 ph | LP cat | LP name | varint64 ts | varint64 dur |
//              varint64 id | varint64 zigzag(value) | LP args
void EncodeLaneBlock(int tid, const std::string& name,
                     const std::vector<TraceEvent>& events, std::string* out) {
  PutVarint32(out, static_cast<uint32_t>(tid));
  PutLengthPrefixed(out, name);
  PutVarint64(out, events.size());
  for (const TraceEvent& ev : events) {
    out->push_back(ev.ph);
    PutLengthPrefixed(out, Slice(ev.cat == nullptr ? "" : ev.cat));
    PutLengthPrefixed(out, ev.name);
    PutVarint64(out, ev.ts_nanos);
    PutVarint64(out, ev.dur_nanos);
    PutVarint64(out, ev.id);
    PutVarint64(out, ZigZagEncode(ev.value));
    PutLengthPrefixed(out, ev.args);
  }
}

}  // namespace

void Tracer::DrainThisThread(std::string* out) {
  ThreadBuffer* b = BufferForThisThread();
  std::vector<TraceEvent> events;
  std::string name;
  {
    std::lock_guard<std::mutex> lock(b->mu);
    if (b->events.empty()) return;
    events.swap(b->events);
    name = b->name;
  }
  EncodeLaneBlock(b->tid, name, events, out);
}

void Tracer::DrainAll(std::string* out) {
  std::lock_guard<std::mutex> lock(mu_);
  for (ThreadBuffer* b : buffers_) {
    std::vector<TraceEvent> events;
    std::string name;
    {
      std::lock_guard<std::mutex> bl(b->mu);
      if (b->events.empty()) continue;
      events.swap(b->events);
      name = b->name;
    }
    EncodeLaneBlock(b->tid, name, events, out);
  }
}

void Tracer::SetCurrentThreadName(std::string name) {
  ThreadBuffer* b = BufferForThisThread();
  std::lock_guard<std::mutex> lock(b->mu);
  b->name = std::move(name);
}

size_t Tracer::event_count() {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (ThreadBuffer* b : buffers_) {
    std::lock_guard<std::mutex> bl(b->mu);
    n += b->events.size();
  }
  return n;
}

void AppendTraceEventJson(std::string* out, int pid, int tid,
                          const TraceEventView& ev) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "{\"ph\": \"%c\", \"pid\": %d, \"tid\": %d, \"ts\": %.3f",
                ev.ph, pid, tid, static_cast<double>(ev.ts_nanos) / 1000.0);
  out->append(buf);
  if (ev.ph == 'X') {
    std::snprintf(buf, sizeof(buf), ", \"dur\": %.3f",
                  static_cast<double>(ev.dur_nanos) / 1000.0);
    out->append(buf);
  }
  if (ev.ph != 'E') {
    out->append(", \"name\": ");
    AppendJsonString(out, ev.name);
  }
  if (!ev.cat.empty()) {
    out->append(", \"cat\": ");
    AppendJsonString(out, ev.cat);
  }
  if (ev.ph == 'i') {
    out->append(", \"s\": \"t\"");  // thread-scoped instant
  }
  if (ev.ph == 'b' || ev.ph == 'e' || ev.ph == 's' || ev.ph == 'f') {
    std::snprintf(buf, sizeof(buf), ", \"id\": \"0x%" PRIx64 "\"", ev.id);
    out->append(buf);
  }
  if (ev.ph == 'f') {
    // Bind the arrow head to the enclosing slice's end, the convention
    // chrome://tracing renders most reliably.
    out->append(", \"bp\": \"e\"");
  }
  if (ev.ph == 'C') {
    std::snprintf(buf, sizeof(buf), ", \"args\": {\"value\": %" PRId64 "}",
                  ev.value);
    out->append(buf);
  } else if (!ev.args.empty()) {
    out->append(", \"args\": {");
    out->append(ev.args);
    out->append("}");
  }
  out->append("}");
}

void AppendTraceMetaJson(std::string* out, int pid, int tid, const char* what,
                         const std::string& name) {
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                "{\"ph\": \"M\", \"pid\": %d, \"tid\": %d, \"name\": "
                "\"%s\", \"args\": {\"name\": ",
                pid, tid, what);
  out->append(buf);
  AppendJsonString(out, name);
  out->append("}}");
}

std::string Tracer::ToJson() {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  out.reserve(1 << 16);
  out.append("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  bool first = true;
  auto emit = [&out, &first](const std::string& line) {
    if (!first) out.append(",\n");
    first = false;
    out.append(line);
  };
  {
    std::string line;
    AppendTraceMetaJson(&line, 1, 0, "process_name", "antimr");
    emit(line);
  }
  for (ThreadBuffer* b : buffers_) {
    std::lock_guard<std::mutex> bl(b->mu);
    if (!b->name.empty()) {
      std::string line;
      AppendTraceMetaJson(&line, 1, b->tid, "thread_name", b->name);
      emit(line);
    }
    // Synthesized X events (per-task phase breakdowns) and async stage
    // events carry explicit, earlier timestamps; restore per-lane timestamp
    // order so validators and viewers see monotonic ts per tid. Stable:
    // B-before-E ordering at equal ts is preserved.
    std::vector<TraceEvent> sorted = b->events;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const TraceEvent& a, const TraceEvent& e) {
                       return a.ts_nanos < e.ts_nanos;
                     });
    for (const TraceEvent& ev : sorted) {
      TraceEventView view;
      view.ph = ev.ph;
      view.cat = ev.cat == nullptr ? "" : ev.cat;
      view.name = ev.name;
      view.ts_nanos = ev.ts_nanos;
      view.dur_nanos = ev.dur_nanos;
      view.id = ev.id;
      view.value = ev.value;
      view.args = ev.args;
      std::string line;
      AppendTraceEventJson(&line, 1, b->tid, view);
      emit(line);
    }
  }
  out.append("\n]}\n");
  return out;
}

Status Tracer::WriteJson(const std::string& path) {
  const std::string json = ToJson();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IOError("cannot open trace file: " + path);
  }
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const int close_rc = std::fclose(f);
  if (written != json.size() || close_rc != 0) {
    return Status::IOError("short write to trace file: " + path);
  }
  return Status::OK();
}

}  // namespace obs
}  // namespace antimr
