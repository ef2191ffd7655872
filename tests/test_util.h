// Shared helpers for the test suite.
#ifndef ANTIMR_TESTS_TEST_UTIL_H_
#define ANTIMR_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "antimr.h"

namespace antimr {
namespace testing {

/// Sort records by (key, value) so multiset comparisons are order-free.
inline std::vector<KV> Canonicalize(std::vector<KV> records) {
  std::sort(records.begin(), records.end(), [](const KV& a, const KV& b) {
    if (a.key != b.key) return a.key < b.key;
    return a.value < b.value;
  });
  return records;
}

/// Run a job and return its flattened output; fails the test on error.
inline std::vector<KV> MustRun(const JobSpec& spec,
                               const std::vector<InputSplit>& splits,
                               JobMetrics* metrics = nullptr) {
  JobResult result;
  Status st = RunJob(spec, splits, &result);
  EXPECT_TRUE(st.ok()) << st.ToString();
  if (metrics != nullptr) *metrics = result.metrics;
  return result.FlatOutput();
}

/// Assert that the Anti-Combining-transformed job produces exactly the same
/// output multiset as the original program — the paper's core correctness
/// claim for the syntactic transformation.
inline void ExpectEquivalent(const JobSpec& original,
                             const std::vector<InputSplit>& splits,
                             const anticombine::AntiCombineOptions& options,
                             JobMetrics* original_metrics = nullptr,
                             JobMetrics* anti_metrics = nullptr) {
  const std::vector<KV> expected =
      Canonicalize(MustRun(original, splits, original_metrics));
  const JobSpec transformed =
      anticombine::EnableAntiCombining(original, options);
  const std::vector<KV> actual =
      Canonicalize(MustRun(transformed, splits, anti_metrics));
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(expected[i].key, actual[i].key) << "at record " << i;
    ASSERT_EQ(expected[i].value, actual[i].value)
        << "at record " << i << " key=" << expected[i].key;
  }
}

/// Scripted mapper for LazySH re-execution: input value "a:v1 b:v2 ..."
/// emits (a, v1), (b, v2), ... Every record is emitted from one buffer that
/// is overwritten as soon as Emit returns, so a sink that kept views
/// instead of copying at Emit would read the overwrite.
class ScriptedMapper : public Mapper {
 public:
  void Map(const Slice&, const Slice& value, MapContext* ctx) override {
    const std::string text(value.data(), value.size());
    size_t start = 0;
    while (start < text.size()) {
      size_t end = text.find(' ', start);
      if (end == std::string::npos) end = text.size();
      const size_t colon = text.find(':', start);
      if (colon < end) {
        const size_t key_len = colon - start;
        const size_t value_len = end - colon - 1;
        ASSERT_LE(key_len + value_len, sizeof(buf_));
        std::memcpy(buf_, text.data() + start, key_len);
        std::memcpy(buf_ + key_len, text.data() + colon + 1, value_len);
        ctx->Emit(Slice(buf_, key_len), Slice(buf_ + key_len, value_len));
        std::memset(buf_, '#', sizeof(buf_));
      }
      start = end + 1;
    }
  }

 private:
  char buf_[64];
};

/// Partition = the key's first character as a digit.
class DigitPartitioner : public Partitioner {
 public:
  int Partition(const Slice& key, int num_partitions) const override {
    return (key.empty() ? 0 : key[0] - '0') % num_partitions;
  }
};

}  // namespace testing
}  // namespace antimr

#endif  // ANTIMR_TESTS_TEST_UTIL_H_
