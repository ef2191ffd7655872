#include "datagen/cloud.h"

#include <cstdio>
#include <cstdlib>

#include "common/random.h"
#include "datagen/format.h"

namespace antimr {

std::vector<KV> CloudGenerator::Generate() const {
  Random rng(config_.seed);
  std::vector<KV> records;
  records.reserve(config_.num_records);
  // Reused field buffers: formatting 28 columns with operator+ made several
  // temporaries per record.
  std::string key;
  std::string value;
  for (uint64_t i = 0; i < config_.num_records; ++i) {
    const int date = static_cast<int>(rng.Uniform(config_.num_days));
    const int longitude =
        static_cast<int>(rng.Uniform(config_.num_longitudes)) * 10 - 180;
    const int latitude = static_cast<int>(rng.Uniform(181)) - 90;
    value.clear();
    AppendDecimal(&value, int64_t{date});
    value.push_back(',');
    AppendDecimal(&value, int64_t{longitude});
    value.push_back(',');
    AppendDecimal(&value, int64_t{latitude});
    // 25 filler attributes to match the data set's 28-column width.
    for (int a = 0; a < 25; ++a) {
      value.push_back(',');
      AppendDecimal(&value, uint64_t{rng.Uniform(1000)});
    }
    key.clear();
    key.push_back('r');
    AppendDecimal(&key, i);
    records.emplace_back(key, value);
  }
  return records;
}

std::vector<InputSplit> CloudGenerator::MakeSplits(int num_splits) const {
  return ::antimr::MakeSplits(Generate(), num_splits);
}

bool CloudGenerator::ParseReport(const Slice& value, CloudReport* report) {
  // The three join attributes are the first three comma-separated fields.
  // Manual parse: the slice may view into a larger, non-NUL-terminated
  // buffer, so strtol-style parsing is off limits.
  int fields[3];
  const char* p = value.data();
  const char* end = p + value.size();
  for (int f = 0; f < 3; ++f) {
    bool negative = false;
    if (p < end && *p == '-') {
      negative = true;
      ++p;
    }
    if (p >= end || *p < '0' || *p > '9') return false;
    long v = 0;
    while (p < end && *p >= '0' && *p <= '9') {
      v = v * 10 + (*p - '0');
      ++p;
    }
    fields[f] = static_cast<int>(negative ? -v : v);
    if (f < 2) {
      if (p >= end || *p != ',') return false;
      ++p;
    }
  }
  report->date = fields[0];
  report->longitude = fields[1];
  report->latitude = fields[2];
  return true;
}

}  // namespace antimr
