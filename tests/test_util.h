// Shared helpers for the test suite.
#ifndef ANTIMR_TESTS_TEST_UTIL_H_
#define ANTIMR_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "antimr.h"
#include "common/hash.h"
#include "common/random.h"
#include "mr/reduce_task.h"

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

/// \brief KVStream over a borrowed vector of KV records.
class KVVectorStream : public KVStream {
 public:
  explicit KVVectorStream(const std::vector<KV>* records)
      : records_(records) {}

  bool Valid() const override { return pos_ < records_->size(); }
  Slice key() const override { return (*records_)[pos_].key; }
  Slice value() const override { return (*records_)[pos_].value; }
  Status Next() override {
    ++pos_;
    return Status::OK();
  }

 private:
  const std::vector<KV>* records_;
  size_t pos_ = 0;
};

/// An OutputSink that appends every record to *out as an owning KV.
inline OutputSink CollectingSink(std::vector<KV>* out) {
  return OutputSink([out](const Slice& key, const Slice& value) {
    out->emplace_back(key.ToString(), value.ToString());
    return Status::OK();
  });
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

/// Order-free digest of the map segment files (runs and merged segments)
/// that `env` holds: each file's name and stored bytes. Pins the bytes a
/// job's map tasks wrote; run the job with a fixed RunOptions::job_id and
/// cleanup_intermediates = false so the files stay behind.
struct SegmentDigest {
  size_t files = 0;
  uint64_t hash = 0;
};

inline SegmentDigest MapSegmentDigest(Env* env) {
  std::vector<std::string> names;
  EXPECT_TRUE(env->ListFiles(&names).ok());
  std::sort(names.begin(), names.end());
  SegmentDigest digest;
  for (const std::string& name : names) {
    if (name.find("/map_") == std::string::npos) continue;
    std::string bytes;
    EXPECT_TRUE(ReadFileToString(env, name, &bytes).ok()) << name;
    digest.hash = Hash64(bytes, HashMix64(digest.hash ^ Hash64(name)));
    ++digest.files;
  }
  return digest;
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

// A configurable synthetic program for property sweeps: Map's fan-out, key
// spread, and value sharing are all tunable, and Reduce is a deterministic
// order-insensitive digest, so equivalence checks are exact.

struct SyntheticShape {
  int fan_out;          // output records per input record
  int key_spread;       // distinct keys ~ key_spread
  bool shared_values;   // all outputs of one Map call share one value
  bool with_combiner;
};

class SyntheticMapper : public Mapper {
 public:
  explicit SyntheticMapper(SyntheticShape shape) : shape_(shape) {}

  void Map(const Slice& key, const Slice& value, MapContext* ctx) override {
    const uint64_t h = Hash64(key) ^ Hash64(value);
    for (int i = 0; i < shape_.fan_out; ++i) {
      const uint64_t k = (h + static_cast<uint64_t>(i) * 7919) %
                         static_cast<uint64_t>(shape_.key_spread);
      const std::string out_key = "k" + std::to_string(k);
      const std::string out_value =
          shape_.shared_values
              ? "v" + std::to_string(h % 1000)
              : "v" + std::to_string(h % 1000) + "_" + std::to_string(i);
      ctx->Emit(out_key, out_value);
    }
  }

 private:
  SyntheticShape shape_;
};

// Order-insensitive digest: XOR of value hashes plus a count.
class DigestReducer : public Reducer {
 public:
  void Reduce(const Slice& key, ValueIterator* values,
              ReduceContext* ctx) override {
    uint64_t digest = 0;
    uint64_t count = 0;
    Slice v;
    while (values->Next(&v)) {
      digest ^= HashMix64(Hash64(v));
      ++count;
    }
    ctx->Emit(key, std::to_string(count) + ":" + std::to_string(digest));
  }
};

// A combiner compatible with DigestReducer: DigestReducer is XOR-based, so a
// safe combiner must preserve the value multiset. This combiner just
// forwards values (a legal no-op combiner), which still exercises the
// AntiCombiner decode/re-encode path.
class ForwardingCombiner : public Reducer {
 public:
  void Reduce(const Slice& key, ValueIterator* values,
              ReduceContext* ctx) override {
    Slice v;
    while (values->Next(&v)) ctx->Emit(key, v);
  }
};

inline JobSpec SyntheticJob(const SyntheticShape& shape, int reduce_tasks) {
  JobSpec spec;
  spec.name = "synthetic";
  spec.mapper_factory = [shape]() {
    return std::make_unique<SyntheticMapper>(shape);
  };
  spec.reducer_factory = []() { return std::make_unique<DigestReducer>(); };
  if (shape.with_combiner) {
    spec.combiner_factory = []() {
      return std::make_unique<ForwardingCombiner>();
    };
  }
  spec.num_reduce_tasks = reduce_tasks;
  return spec;
}

inline std::vector<KV> SyntheticInput(int n, uint64_t seed) {
  Random rng(seed);
  std::vector<KV> input;
  input.reserve(n);
  for (int i = 0; i < n; ++i) {
    input.push_back({"in" + std::to_string(rng.Uniform(100000)),
                     "payload" + std::to_string(rng.Uniform(1000))});
  }
  return input;
}

}  // namespace testing
}  // namespace antimr

#endif  // ANTIMR_TESTS_TEST_UTIL_H_
