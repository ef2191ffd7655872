#include "obs/metrics_registry.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "common/json.h"

namespace antimr {
namespace obs {

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* r = new MetricsRegistry();
  return *r;
}

MetricsRegistry::Entry* MetricsRegistry::GetEntry(const std::string& name,
                                                  const std::string& help,
                                                  Kind kind) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = metrics_.find(name);
  if (it == metrics_.end()) {
    Entry e;
    e.kind = kind;
    e.help = help;
    switch (kind) {
      case Kind::kCounter:
        e.counter = std::make_unique<Counter>();
        break;
      case Kind::kGauge:
        e.gauge = std::make_unique<Gauge>();
        break;
      case Kind::kHistogram:
        e.histogram = std::make_unique<Histogram>();
        break;
    }
    it = metrics_.emplace(name, std::move(e)).first;
  } else if (it->second.kind != kind) {
    std::fprintf(stderr, "metric %s re-registered as a different kind\n",
                 name.c_str());
    std::abort();
  }
  return &it->second;
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& help) {
  return GetEntry(name, help, Kind::kCounter)->counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& help) {
  return GetEntry(name, help, Kind::kGauge)->gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::string& help) {
  return GetEntry(name, help, Kind::kHistogram)->histogram.get();
}

void MetricsRegistry::VisitEntries(
    const std::function<void(const std::string& name, const Counter* counter,
                             const Gauge* gauge, const Histogram* histogram)>&
        fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, e] : metrics_) {
    fn(name, e.counter.get(), e.gauge.get(), e.histogram.get());
  }
}

std::string MetricsRegistry::ToPrometheusText() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  out.reserve(1 << 14);
  char buf[128];
  for (const auto& [name, e] : metrics_) {
    if (!e.help.empty()) {
      out.append("# HELP ").append(name).append(" ").append(e.help);
      out.push_back('\n');
    }
    out.append("# TYPE ").append(name);
    switch (e.kind) {
      case Kind::kCounter: {
        out.append(" counter\n").append(name);
        std::snprintf(buf, sizeof(buf), " %" PRIu64 "\n", e.counter->value());
        out.append(buf);
        break;
      }
      case Kind::kGauge: {
        out.append(" gauge\n").append(name);
        std::snprintf(buf, sizeof(buf), " %" PRId64 "\n", e.gauge->value());
        out.append(buf);
        break;
      }
      case Kind::kHistogram: {
        out.append(" histogram\n");
        const Histogram& h = *e.histogram;
        uint64_t cumulative = 0;
        for (int i = 0; i < Histogram::kNumBuckets - 1; ++i) {
          cumulative += h.bucket_count(i);
          // Keep the exposition readable: skip leading all-zero buckets but
          // always emit buckets once counts start (cumulative counts must
          // not restart from a gap), plus the first bucket so an empty
          // histogram still shows its shape.
          if (cumulative == 0 && i != 0) continue;
          out.append(name);
          std::snprintf(buf, sizeof(buf),
                        "_bucket{le=\"%" PRIu64 "\"} %" PRIu64 "\n",
                        Histogram::BucketBound(i), cumulative);
          out.append(buf);
        }
        cumulative += h.bucket_count(Histogram::kNumBuckets - 1);
        out.append(name);
        std::snprintf(buf, sizeof(buf), "_bucket{le=\"+Inf\"} %" PRIu64 "\n",
                      cumulative);
        out.append(buf);
        out.append(name);
        std::snprintf(buf, sizeof(buf), "_sum %" PRIu64 "\n", h.sum());
        out.append(buf);
        out.append(name);
        std::snprintf(buf, sizeof(buf), "_count %" PRIu64 "\n", h.count());
        out.append(buf);
        break;
      }
    }
  }
  return out;
}

std::string MetricsRegistry::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  out.reserve(1 << 14);
  out.append("{\n");
  char buf[128];
  bool first = true;
  for (const auto& [name, e] : metrics_) {
    if (!first) out.append(",\n");
    first = false;
    out.append("  ");
    AppendJsonString(&out, name);
    out.append(": ");
    switch (e.kind) {
      case Kind::kCounter: {
        std::snprintf(buf, sizeof(buf),
                      "{\"type\": \"counter\", \"value\": %" PRIu64 "}",
                      e.counter->value());
        out.append(buf);
        break;
      }
      case Kind::kGauge: {
        std::snprintf(buf, sizeof(buf),
                      "{\"type\": \"gauge\", \"value\": %" PRId64 "}",
                      e.gauge->value());
        out.append(buf);
        break;
      }
      case Kind::kHistogram: {
        const Histogram& h = *e.histogram;
        std::snprintf(buf, sizeof(buf),
                      "{\"type\": \"histogram\", \"count\": %" PRIu64
                      ", \"sum\": %" PRIu64 ", \"buckets\": [",
                      h.count(), h.sum());
        out.append(buf);
        bool first_bucket = true;
        for (int i = 0; i < Histogram::kNumBuckets; ++i) {
          const uint64_t n = h.bucket_count(i);
          if (n == 0) continue;
          if (!first_bucket) out.append(", ");
          first_bucket = false;
          if (i == Histogram::kNumBuckets - 1) {
            std::snprintf(buf, sizeof(buf),
                          "{\"le\": \"+Inf\", \"count\": %" PRIu64 "}", n);
          } else {
            std::snprintf(buf, sizeof(buf),
                          "{\"le\": %" PRIu64 ", \"count\": %" PRIu64 "}",
                          Histogram::BucketBound(i), n);
          }
          out.append(buf);
        }
        out.append("]}");
        break;
      }
    }
  }
  out.append("\n}\n");
  return out;
}

}  // namespace obs
}  // namespace antimr
