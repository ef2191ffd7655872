#include "workloads/theta_join.h"

#include <cmath>
#include <cstdlib>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "datagen/cloud.h"

namespace antimr {
namespace workloads {

size_t FormatRegionKey(int region, char* buf) {
  // Digits least significant first, then copied out behind the padding.
  char digits[10];
  size_t n = 0;
  uint32_t v = static_cast<uint32_t>(region);
  do {
    digits[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  size_t len = 0;
  buf[len++] = 'g';
  for (size_t pad = n; pad < 6; ++pad) buf[len++] = '0';
  while (n > 0) buf[len++] = digits[--n];
  return len;
}

namespace {

class ThetaJoinMapper : public Mapper {
 public:
  explicit ThetaJoinMapper(const ThetaJoinConfig& config) : config_(config) {}

  void Map(const Slice& key, const Slice& value, MapContext* ctx) override {
    // Deterministic "random" matrix position: hash of the record. LazySH can
    // re-execute this Map on the reducer and obtain identical assignments.
    const uint64_t h1 = Hash64(key, config_.salt);
    const uint64_t h2 = Hash64(value, h1);
    const int row = static_cast<int>(h2 % static_cast<uint64_t>(config_.grid_rows));
    const int col = static_cast<int>((h2 >> 32) %
                                     static_cast<uint64_t>(config_.grid_cols));

    s_value_.assign("S,");
    s_value_.append(value.data(), value.size());
    t_value_.assign("T,");
    t_value_.append(value.data(), value.size());

    // S-side: every region in this row; T-side: every region in this column.
    // Each key is formatted into one stack buffer, which Emit copies.
    char region_key[kMaxRegionKeyBytes];
    for (int c = 0; c < config_.grid_cols; ++c) {
      ctx->Emit(Slice(region_key,
                      FormatRegionKey(row * config_.grid_cols + c, region_key)),
                s_value_);
    }
    for (int r = 0; r < config_.grid_rows; ++r) {
      ctx->Emit(Slice(region_key,
                      FormatRegionKey(r * config_.grid_cols + col, region_key)),
                t_value_);
    }
  }

 private:
  ThetaJoinConfig config_;
  std::string s_value_;  // scratch reused across Map calls
  std::string t_value_;
};

class ThetaJoinReducer : public Reducer {
 public:
  explicit ThetaJoinReducer(int latitude_band) : band_(latitude_band) {}

  void Reduce(const Slice& key, ValueIterator* values,
              ReduceContext* ctx) override {
    (void)key;
    // In-memory join of one region (the memory-aware guarantee of
    // 1-Bucket-Theta): hash S on the equality columns, probe with T, then
    // apply the latitude band predicate.
    std::unordered_map<uint64_t, std::vector<CloudReport>> s_by_eq;
    std::vector<CloudReport> t_records;
    Slice value;
    while (values->Next(&value)) {
      if (value.size() < 2) continue;
      CloudReport report;
      if (!CloudGenerator::ParseReport(
              Slice(value.data() + 2, value.size() - 2), &report)) {
        continue;
      }
      if (value[0] == 'S') {
        s_by_eq[EqKey(report)].push_back(report);
      } else {
        t_records.push_back(report);
      }
    }
    std::string out;
    for (const CloudReport& t : t_records) {
      auto it = s_by_eq.find(EqKey(t));
      if (it == s_by_eq.end()) continue;
      for (const CloudReport& s : it->second) {
        if (std::abs(s.latitude - t.latitude) > band_) continue;
        out = std::to_string(s.longitude) + "," +
              std::to_string(s.latitude) + "," + std::to_string(t.latitude);
        ctx->Emit(std::to_string(s.date), out);
      }
    }
  }

 private:
  static uint64_t EqKey(const CloudReport& r) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(r.date)) << 32) |
           static_cast<uint32_t>(r.longitude + 360);
  }

  int band_;
};

}  // namespace

JobSpec MakeThetaJoinJob(const ThetaJoinConfig& config) {
  JobSpec spec;
  spec.name = "theta_join";
  spec.mapper_factory = [config]() {
    return std::make_unique<ThetaJoinMapper>(config);
  };
  const int band = config.latitude_band;
  spec.reducer_factory = [band]() {
    return std::make_unique<ThetaJoinReducer>(band);
  };
  // No Combiner: the join does not admit one (paper Section 7.7.3).
  spec.num_reduce_tasks = config.num_reduce_tasks;
  spec.map_output_codec = config.codec;
  spec.map_buffer_bytes = config.map_buffer_bytes;
  return spec;
}

void SizeGridForMemory(uint64_t input_records, uint64_t region_memory_records,
                       int* rows, int* cols) {
  // A square g x g grid receives ~2n/g records per region (n/g as S plus
  // n/g as T); solve for the smallest g that fits the budget.
  uint64_t g = 1;
  if (region_memory_records > 0) {
    g = (2 * input_records + region_memory_records - 1) /
        region_memory_records;
  }
  if (g < 1) g = 1;
  *rows = static_cast<int>(g);
  *cols = static_cast<int>(g);
}

}  // namespace workloads
}  // namespace antimr
