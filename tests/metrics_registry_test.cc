#include "obs/metrics_registry.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

namespace antimr {
namespace obs {
namespace {

TEST(MetricsRegistry, InstrumentPointersAreStable) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("requests", "total requests");
  EXPECT_EQ(c, reg.GetCounter("requests", "total requests"));
  Gauge* g = reg.GetGauge("depth", "queue depth");
  EXPECT_EQ(g, reg.GetGauge("depth", "queue depth"));
  Histogram* h = reg.GetHistogram("latency", "latency nanos");
  EXPECT_EQ(h, reg.GetHistogram("latency", "latency nanos"));
}

TEST(MetricsRegistry, ConcurrentIncrementsAreLossFree) {
  MetricsRegistry reg;
  Counter* counter = reg.GetCounter("hits", "");
  Gauge* gauge = reg.GetGauge("level", "");
  Histogram* hist = reg.GetHistogram("sizes", "");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        counter->Inc();
        gauge->Add(1);
        gauge->Sub(1);
        hist->Observe(static_cast<uint64_t>(t) * kPerThread + i);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter->value(), uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(gauge->value(), 0);
  EXPECT_EQ(hist->count(), uint64_t{kThreads} * kPerThread);
  uint64_t bucket_total = 0;
  for (int i = 0; i < Histogram::kNumBuckets; ++i) {
    bucket_total += hist->bucket_count(i);
  }
  EXPECT_EQ(bucket_total, hist->count());
}

TEST(MetricsRegistry, HistogramBucketing) {
  // Bucket i holds v with 2^(i-1) < v <= 2^i; 0 and 1 share bucket 0.
  EXPECT_EQ(Histogram::BucketIndex(0), 0);
  EXPECT_EQ(Histogram::BucketIndex(1), 0);
  EXPECT_EQ(Histogram::BucketIndex(2), 1);
  EXPECT_EQ(Histogram::BucketIndex(3), 2);
  EXPECT_EQ(Histogram::BucketIndex(4), 2);
  EXPECT_EQ(Histogram::BucketIndex(5), 3);
  EXPECT_EQ(Histogram::BucketIndex(1024), 10);
  EXPECT_EQ(Histogram::BucketIndex(1025), 11);
  EXPECT_EQ(Histogram::BucketIndex(uint64_t{1} << 63), 63);
  EXPECT_EQ(Histogram::BucketIndex((uint64_t{1} << 63) + 1),
            Histogram::kNumBuckets - 1);
  EXPECT_EQ(Histogram::BucketIndex(~uint64_t{0}), Histogram::kNumBuckets - 1);
  EXPECT_EQ(Histogram::BucketBound(10), 1024u);

  Histogram h;
  h.Observe(1);
  h.Observe(3);
  h.Observe(3);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(2), 2u);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 7u);
}

TEST(MetricsRegistry, PrometheusFormat) {
  MetricsRegistry reg;
  reg.GetCounter("antimr_hits_total", "hit count")->Inc(3);
  reg.GetGauge("antimr_depth", "queue depth")->Set(-2);
  Histogram* h = reg.GetHistogram("antimr_bytes", "bytes per op");
  h->Observe(1);
  h->Observe(3);

  const std::string text = reg.ToPrometheusText();
  EXPECT_NE(text.find("# HELP antimr_hits_total hit count"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE antimr_hits_total counter"), std::string::npos);
  EXPECT_NE(text.find("antimr_hits_total 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE antimr_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("antimr_depth -2\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE antimr_bytes histogram"), std::string::npos);
  // Cumulative buckets: le="1" sees one sample, le="2" still one, le="4"
  // both, and so do every later bound and +Inf.
  EXPECT_NE(text.find("antimr_bytes_bucket{le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("antimr_bytes_bucket{le=\"2\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("antimr_bytes_bucket{le=\"4\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("antimr_bytes_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("antimr_bytes_sum 4\n"), std::string::npos);
  EXPECT_NE(text.find("antimr_bytes_count 2\n"), std::string::npos);
  // Metric names come out sorted, so scrapes diff cleanly run to run.
  EXPECT_LT(text.find("antimr_bytes"), text.find("antimr_depth"));
  EXPECT_LT(text.find("antimr_depth"), text.find("antimr_hits_total"));
}

TEST(MetricsRegistry, JsonFormat) {
  MetricsRegistry reg;
  reg.GetCounter("c", "")->Inc(7);
  reg.GetGauge("g", "")->Set(5);
  Histogram* h = reg.GetHistogram("h", "");
  h->Observe(100);

  const std::string json = reg.ToJson();
  EXPECT_NE(json.find("\"c\": {\"type\": \"counter\", \"value\": 7}"),
            std::string::npos);
  EXPECT_NE(json.find("\"g\": {\"type\": \"gauge\", \"value\": 5}"),
            std::string::npos);
  EXPECT_NE(
      json.find("\"h\": {\"type\": \"histogram\", \"count\": 1, \"sum\": 100, "
                "\"buckets\": [{\"le\": 128, \"count\": 1}]}"),
      std::string::npos);
}

TEST(MetricsRegistry, JsonEscapesNames) {
  MetricsRegistry reg;
  reg.GetCounter("a\"b\\c\nd\te\x01", "")->Inc(1);
  const std::string json = reg.ToJson();
  EXPECT_NE(json.find("\"a\\\"b\\\\c\\nd\\te\\u0001\": {\"type\": "
                      "\"counter\", \"value\": 1}"),
            std::string::npos)
      << json;
  EXPECT_EQ(json.find('\t'), std::string::npos);
  EXPECT_EQ(json.find('\x01'), std::string::npos);
}

TEST(MetricsRegistry, GlobalRegistryExposesPoolGauges) {
  // The TaskPool instrumentation registers its gauges in the global
  // registry at construction; any job run in this process (other tests, or
  // the pool built here) leaves them visible to a scrape.
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.GetGauge("antimr_pool_queue_depth", "tasks queued, not yet started");
  const std::string text = reg.ToPrometheusText();
  EXPECT_NE(text.find("# TYPE antimr_pool_queue_depth gauge"),
            std::string::npos);
}

}  // namespace
}  // namespace obs
}  // namespace antimr
