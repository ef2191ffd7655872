#include "workloads/theta_join.h"

#include <algorithm>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <set>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "datagen/cloud.h"
#include "test_util.h"

namespace antimr {
namespace {

using testing::Canonicalize;
using testing::MustRun;
using workloads::MakeThetaJoinJob;
using workloads::ThetaJoinConfig;

// Reference nested-loop join for validation.
std::vector<KV> ReferenceJoin(const std::vector<KV>& input, int band) {
  std::vector<CloudReport> reports;
  for (const KV& kv : input) {
    CloudReport r;
    EXPECT_TRUE(CloudGenerator::ParseReport(kv.value, &r));
    reports.push_back(r);
  }
  std::vector<KV> out;
  for (const CloudReport& s : reports) {
    for (const CloudReport& t : reports) {
      if (s.date == t.date && s.longitude == t.longitude &&
          std::abs(s.latitude - t.latitude) <= band) {
        out.push_back({std::to_string(s.date),
                       std::to_string(s.longitude) + "," +
                           std::to_string(s.latitude) + "," +
                           std::to_string(t.latitude)});
      }
    }
  }
  return out;
}

std::vector<KV> SmallCloud(uint64_t n, uint64_t seed = 42) {
  CloudConfig cfg;
  cfg.num_records = n;
  cfg.num_days = 3;
  cfg.num_longitudes = 4;
  cfg.seed = seed;
  return CloudGenerator(cfg).Generate();
}

TEST(ThetaJoin, MatchesReferenceJoin) {
  const auto input = SmallCloud(120);
  ThetaJoinConfig cfg;
  cfg.grid_rows = 4;
  cfg.grid_cols = 4;
  cfg.num_reduce_tasks = 3;
  auto expected = Canonicalize(ReferenceJoin(input, cfg.latitude_band));
  auto actual =
      Canonicalize(MustRun(MakeThetaJoinJob(cfg), MakeSplits(input, 3)));
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].key, actual[i].key);
    EXPECT_EQ(expected[i].value, actual[i].value);
  }
}

TEST(ThetaJoin, EachPairJoinedExactlyOnceAcrossGrids) {
  const auto input = SmallCloud(80, 7);
  auto expected = Canonicalize(ReferenceJoin(input, 10));
  for (auto [rows, cols] : {std::pair{1, 1}, {2, 3}, {5, 5}, {8, 2}}) {
    ThetaJoinConfig cfg;
    cfg.grid_rows = rows;
    cfg.grid_cols = cols;
    cfg.num_reduce_tasks = 4;
    auto actual =
        Canonicalize(MustRun(MakeThetaJoinJob(cfg), MakeSplits(input, 2)));
    EXPECT_EQ(expected.size(), actual.size())
        << "grid " << rows << "x" << cols;
  }
}

TEST(ThetaJoin, ReplicationFactorIsRowsPlusCols) {
  const auto input = SmallCloud(100);
  ThetaJoinConfig cfg;
  cfg.grid_rows = 6;
  cfg.grid_cols = 4;
  cfg.num_reduce_tasks = 4;
  JobMetrics m;
  MustRun(MakeThetaJoinJob(cfg), MakeSplits(input, 2), &m);
  EXPECT_EQ(m.map_output_records,
            m.input_records * static_cast<uint64_t>(cfg.grid_rows +
                                                    cfg.grid_cols));
}

TEST(ThetaJoin, AntiCombiningEquivalence) {
  const auto input = SmallCloud(100);
  ThetaJoinConfig cfg;
  cfg.grid_rows = 4;
  cfg.grid_cols = 4;
  cfg.num_reduce_tasks = 3;
  testing::ExpectEquivalent(MakeThetaJoinJob(cfg), MakeSplits(input, 3),
                            anticombine::AntiCombineOptions());
}

TEST(ThetaJoin, AntiCombiningPicksLazyAndShrinksOutput) {
  const auto input = SmallCloud(200);
  ThetaJoinConfig cfg;
  cfg.grid_rows = 6;
  cfg.grid_cols = 6;
  cfg.num_reduce_tasks = 4;
  JobMetrics orig_m, anti_m;
  testing::ExpectEquivalent(MakeThetaJoinJob(cfg), MakeSplits(input, 2),
                            anticombine::AntiCombineOptions(), &orig_m,
                            &anti_m);
  // The paper's Section 7.7.3: AdaptiveSH chose LazySH for all records and
  // cut map output ~9.5x.
  EXPECT_GT(anti_m.lazy_records, 0u);
  EXPECT_EQ(anti_m.eager_records, 0u);
  EXPECT_LT(anti_m.emitted_bytes * 2, orig_m.emitted_bytes);
}

TEST(ThetaJoin, BandPredicateHonored) {
  const auto input = SmallCloud(150);
  ThetaJoinConfig cfg;
  cfg.latitude_band = 0;  // strict equality on latitude
  cfg.grid_rows = 3;
  cfg.grid_cols = 3;
  cfg.num_reduce_tasks = 2;
  auto out = MustRun(MakeThetaJoinJob(cfg), MakeSplits(input, 2));
  for (const KV& kv : out) {
    // value = "lon,latS,latT" -> latS must equal latT
    const size_t c1 = kv.value.find(',');
    const size_t c2 = kv.value.find(',', c1 + 1);
    EXPECT_EQ(kv.value.substr(c1 + 1, c2 - c1 - 1),
              kv.value.substr(c2 + 1));
  }
  auto expected = ReferenceJoin(input, 0);
  EXPECT_EQ(out.size(), expected.size());
}

std::string PrintfRegionKey(int region) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "g%06d", region);
  return buf;
}

TEST(ThetaJoin, RegionKeyMatchesPrintf) {
  for (int region : {0, 9, 10, 999999, 1000000, INT_MAX}) {
    char buf[workloads::kMaxRegionKeyBytes];
    const size_t len = workloads::FormatRegionKey(region, buf);
    EXPECT_EQ(std::string(buf, len), PrintfRegionKey(region)) << region;
  }
}

// The theta-join mapper as it was written with snprintf: the reference the
// digit-loop formatter must reproduce byte for byte.
class PrintfThetaJoinMapper : public Mapper {
 public:
  explicit PrintfThetaJoinMapper(const ThetaJoinConfig& config)
      : config_(config) {}

  void Map(const Slice& key, const Slice& value, MapContext* ctx) override {
    const uint64_t h1 = Hash64(key, config_.salt);
    const uint64_t h2 = Hash64(value, h1);
    const int row =
        static_cast<int>(h2 % static_cast<uint64_t>(config_.grid_rows));
    const int col = static_cast<int>((h2 >> 32) %
                                     static_cast<uint64_t>(config_.grid_cols));
    const std::string s_value = "S," + value.ToString();
    const std::string t_value = "T," + value.ToString();
    for (int c = 0; c < config_.grid_cols; ++c) {
      ctx->Emit(PrintfRegionKey(row * config_.grid_cols + c), s_value);
    }
    for (int r = 0; r < config_.grid_rows; ++r) {
      ctx->Emit(PrintfRegionKey(r * config_.grid_cols + col), t_value);
    }
  }

 private:
  ThetaJoinConfig config_;
};

class VectorMapContext : public MapContext {
 public:
  void Emit(const Slice& key, const Slice& value) override {
    out.push_back({key.ToString(), value.ToString()});
  }
  std::vector<KV> out;
};

TEST(ThetaJoin, MapperEmitsThePrintfReferenceKeys) {
  const auto input = SmallCloud(150);
  ThetaJoinConfig cfg;
  cfg.grid_rows = 34;  // the paper's grid
  cfg.grid_cols = 34;
  cfg.num_reduce_tasks = 4;
  const JobSpec job = MakeThetaJoinJob(cfg);
  JobSpec reference = job;
  reference.mapper_factory = [cfg]() {
    return std::make_unique<PrintfThetaJoinMapper>(cfg);
  };

  VectorMapContext emitted, expected;
  const std::unique_ptr<Mapper> mapper = job.mapper_factory();
  const std::unique_ptr<Mapper> printf_mapper = reference.mapper_factory();
  for (const KV& kv : input) {
    mapper->Map(kv.key, kv.value, &emitted);
    printf_mapper->Map(kv.key, kv.value, &expected);
  }
  ASSERT_EQ(emitted.out.size(), input.size() * 68);
  EXPECT_EQ(emitted.out, expected.out);

  JobMetrics m, reference_m;
  const auto out = MustRun(job, MakeSplits(input, 2), &m);
  const auto reference_out = MustRun(reference, MakeSplits(input, 2),
                                     &reference_m);
  EXPECT_EQ(Canonicalize(out), Canonicalize(reference_out));
  EXPECT_EQ(m.shuffle_bytes, reference_m.shuffle_bytes);
  EXPECT_EQ(m.map_output_bytes, reference_m.map_output_bytes);
}

TEST(ThetaJoin, SizeGridForMemory) {
  int rows, cols;
  workloads::SizeGridForMemory(1000, 100, &rows, &cols);
  EXPECT_EQ(rows, cols);
  EXPECT_EQ(rows, 20);  // 2*1000/100
  workloads::SizeGridForMemory(10, 1000, &rows, &cols);
  EXPECT_EQ(rows, 1);
  workloads::SizeGridForMemory(0, 0, &rows, &cols);
  EXPECT_GE(rows, 1);
}

}  // namespace
}  // namespace antimr
