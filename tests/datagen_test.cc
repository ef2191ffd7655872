#include <algorithm>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "datagen/cloud.h"
#include "datagen/graph.h"
#include "datagen/qlog.h"
#include "datagen/random_text.h"

namespace antimr {
namespace {

TEST(QLog, Deterministic) {
  QLogConfig cfg;
  cfg.num_records = 500;
  EXPECT_EQ(QLogGenerator(cfg).Generate(), QLogGenerator(cfg).Generate());
}

TEST(QLog, MeanLengthNearPaper) {
  QLogConfig cfg;
  cfg.num_distinct = 5000;
  QLogGenerator gen(cfg);
  // The paper's QLog averages 19.07 characters per query.
  EXPECT_NEAR(gen.MeanQueryLength(), 19.0, 5.0);
}

TEST(QLog, PopularityIsSkewed) {
  QLogConfig cfg;
  cfg.num_records = 20000;
  cfg.num_distinct = 2000;
  QLogGenerator gen(cfg);
  std::map<std::string, int> counts;
  for (const KV& kv : gen.Generate()) counts[kv.value]++;
  int max_count = 0;
  for (const auto& [q, c] : counts) max_count = std::max(max_count, c);
  // Zipf head should be far above the mean (10 per distinct query).
  EXPECT_GT(max_count, 100);
}

TEST(QLog, FeaturesAppendWhenEnabled) {
  QLogConfig cfg;
  cfg.num_records = 10;
  cfg.include_features = true;
  for (const KV& kv : QLogGenerator(cfg).Generate()) {
    EXPECT_NE(kv.value.find('\t'), std::string::npos);
  }
}

TEST(QLog, SplitsCoverAllRecords) {
  QLogConfig cfg;
  cfg.num_records = 1003;
  QLogGenerator gen(cfg);
  auto splits = gen.MakeSplits(7);
  size_t total = 0;
  for (const auto& split : splits) {
    auto source = split.open();
    RecordRef ref;
    while (source->NextRef(&ref)) ++total;
  }
  EXPECT_EQ(total, 1003u);
}

TEST(Graph, DegreeDistribution) {
  GraphConfig cfg;
  cfg.num_nodes = 3000;
  cfg.mean_out_degree = 28.0;
  GraphGenerator gen(cfg);
  auto records = gen.Generate();
  ASSERT_EQ(records.size(), 3000u);
  uint64_t total_edges = 0;
  uint64_t max_degree = 0;
  for (const KV& kv : records) {
    uint64_t degree = 0;
    for (char c : kv.value) {
      if (c == ' ') ++degree;  // tokens after the rank
    }
    total_edges += degree;
    max_degree = std::max(max_degree, degree);
  }
  const double mean = static_cast<double>(total_edges) / 3000.0;
  EXPECT_GT(mean, 10.0);
  EXPECT_LT(mean, 60.0);
  // Power law: some node far above the mean.
  EXPECT_GT(max_degree, static_cast<uint64_t>(mean * 5));
}

TEST(Graph, NodeIdsSortNumerically) {
  EXPECT_LT(GraphGenerator::NodeId(9), GraphGenerator::NodeId(10));
  EXPECT_LT(GraphGenerator::NodeId(99), GraphGenerator::NodeId(100000));
}

TEST(Cloud, RecordsHave28Attributes) {
  CloudConfig cfg;
  cfg.num_records = 50;
  for (const KV& kv : CloudGenerator(cfg).Generate()) {
    int commas = 0;
    for (char c : kv.value) {
      if (c == ',') ++commas;
    }
    EXPECT_EQ(commas, 27) << kv.value;
  }
}

TEST(Cloud, ParseReportRoundTrip) {
  CloudConfig cfg;
  cfg.num_records = 200;
  for (const KV& kv : CloudGenerator(cfg).Generate()) {
    CloudReport report;
    ASSERT_TRUE(CloudGenerator::ParseReport(kv.value, &report));
    EXPECT_GE(report.date, 0);
    EXPECT_LT(report.date, cfg.num_days);
    EXPECT_GE(report.longitude, -180);
    EXPECT_LT(report.longitude, 180);
    EXPECT_GE(report.latitude, -90);
    EXPECT_LE(report.latitude, 90);
  }
}

TEST(Cloud, ParseRejectsGarbage) {
  CloudReport report;
  EXPECT_FALSE(CloudGenerator::ParseReport(Slice("not,numbers"), &report));
  EXPECT_FALSE(CloudGenerator::ParseReport(Slice(""), &report));
  EXPECT_FALSE(CloudGenerator::ParseReport(Slice("1,2"), &report));
  EXPECT_TRUE(CloudGenerator::ParseReport(Slice("1,-2,3"), &report));
  EXPECT_EQ(report.longitude, -2);
}

TEST(RandomText, VocabularyBounded) {
  RandomTextConfig cfg;
  cfg.num_lines = 500;
  cfg.vocabulary_words = 100;
  RandomTextGenerator gen(cfg);
  std::set<std::string> words;
  for (const KV& kv : gen.Generate()) {
    size_t start = 0;
    for (size_t i = 0; i <= kv.value.size(); ++i) {
      if (i == kv.value.size() || kv.value[i] == ' ') {
        if (i > start) words.insert(kv.value.substr(start, i - start));
        start = i + 1;
      }
    }
  }
  EXPECT_LE(words.size(), 100u);
  EXPECT_GT(words.size(), 50u);
}

TEST(RandomText, KeysAreUniqueAndOrdered) {
  RandomTextConfig cfg;
  cfg.num_lines = 100;
  auto records = RandomTextGenerator(cfg).Generate();
  for (size_t i = 1; i < records.size(); ++i) {
    EXPECT_LT(records[i - 1].key, records[i].key);
  }
}

}  // namespace
}  // namespace antimr
