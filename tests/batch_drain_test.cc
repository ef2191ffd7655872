// Allocation-count regression tests for the vectorized batch path. The
// point of NextBatch is amortization: draining a segment (or a merge) in
// batches must never heap-allocate more than the record-at-a-time loop it
// replaces. alloc_counter.h replaces global operator new for this binary —
// it must stay included from exactly this one translation unit.
#include "alloc_counter.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "io/merger.h"
#include "io/run_file.h"

namespace antimr {
namespace {

using Records = std::vector<std::pair<std::string, std::string>>;

Records SortedRecords(size_t n) {
  Records records;
  records.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "key%06zu", i);
    records.emplace_back(key, std::string(24, 'a' + (i % 26)));
  }
  return records;
}

class BatchDrainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = NewMemEnv();
    records_ = SortedRecords(5000);
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(env_->NewWritableFile("seg", &file).ok());
    BlockRunWriter writer(std::move(file), GetCodec(CodecType::kNone),
                          {8 * 1024});
    for (const auto& [k, v] : records_) {
      ASSERT_TRUE(writer.Add(k, v).ok());
    }
    ASSERT_TRUE(writer.Finish().ok());
  }

  std::unique_ptr<BlockRunReader> OpenSegment() {
    std::unique_ptr<SequentialFile> file;
    EXPECT_TRUE(env_->NewSequentialFile("seg", &file).ok());
    auto reader = std::make_unique<BlockRunReader>(
        std::move(file), GetCodec(CodecType::kNone), BlockRunReader::Options());
    EXPECT_TRUE(reader->Open().ok());
    return reader;
  }

  /// Allocations for a full record-at-a-time drain of a fresh reader.
  uint64_t RecordDrainAllocs(size_t* count_out) {
    std::unique_ptr<BlockRunReader> reader = OpenSegment();
    size_t count = 0;
    const uint64_t before = test_alloc::AllocationCount();
    while (reader->Valid()) {
      count += 1;
      EXPECT_TRUE(reader->Next().ok());
    }
    const uint64_t after = test_alloc::AllocationCount();
    *count_out = count;
    return after - before;
  }

  /// Allocations for a full batched drain of a fresh reader. The batch is
  /// reused across calls, as the real drain loops reuse theirs: its capacity
  /// growth is a one-time cost, paid in the warm-up run.
  uint64_t BatchDrainAllocs(size_t* count_out) {
    std::unique_ptr<BlockRunReader> reader = OpenSegment();
    BatchOptions opts;
    size_t count = 0;
    const uint64_t before = test_alloc::AllocationCount();
    while (true) {
      EXPECT_TRUE(reader->NextBatch(&batch_, opts).ok());
      if (batch_.empty()) break;
      count += batch_.size();
    }
    const uint64_t after = test_alloc::AllocationCount();
    *count_out = count;
    return after - before;
  }

  std::unique_ptr<Env> env_;
  Records records_;
  RecordBatch batch_;
};

TEST_F(BatchDrainTest, BatchedSegmentDrainAllocatesNoMoreThanRecordDrain) {
  // Warm both paths once: first-use growth (decode scratch, batch capacity)
  // is not what this test polices.
  size_t n = 0;
  (void)RecordDrainAllocs(&n);
  ASSERT_EQ(n, records_.size());
  (void)BatchDrainAllocs(&n);
  ASSERT_EQ(n, records_.size());

  const uint64_t record_allocs = RecordDrainAllocs(&n);
  ASSERT_EQ(n, records_.size());
  const uint64_t batch_allocs = BatchDrainAllocs(&n);
  ASSERT_EQ(n, records_.size());

  EXPECT_LE(batch_allocs, record_allocs)
      << "batched drain allocates more than the per-record path it replaces";
}

TEST_F(BatchDrainTest, BatchedMergeDrainAllocatesNoMoreThanRecordDrain) {
  // Three-way merge over borrowed vectors: the streams themselves never
  // allocate, so the diff isolates the merge loops.
  Records a, b, c;
  for (size_t i = 0; i < records_.size(); ++i) {
    (i % 3 == 0 ? a : i % 3 == 1 ? b : c).push_back(records_[i]);
  }
  auto make_merge = [&]() {
    std::vector<std::unique_ptr<KVStream>> inputs;
    inputs.push_back(std::make_unique<VectorStream>(&a));
    inputs.push_back(std::make_unique<VectorStream>(&b));
    inputs.push_back(std::make_unique<VectorStream>(&c));
    return std::make_unique<MergingStream>(std::move(inputs),
                                           BytewiseCompare);
  };

  auto record_drain = [&](size_t* count) {
    auto merged = make_merge();
    const uint64_t before = test_alloc::AllocationCount();
    *count = 0;
    while (merged->Valid()) {
      *count += 1;
      EXPECT_TRUE(merged->Next().ok());
    }
    return test_alloc::AllocationCount() - before;
  };
  RecordBatch batch;  // reused: capacity growth is paid in the warm-up run
  auto batch_drain = [&](size_t* count) {
    auto merged = make_merge();
    BatchOptions opts;
    const uint64_t before = test_alloc::AllocationCount();
    *count = 0;
    while (true) {
      EXPECT_TRUE(merged->NextBatch(&batch, opts).ok());
      if (batch.empty()) break;
      *count += batch.size();
    }
    return test_alloc::AllocationCount() - before;
  };

  size_t n = 0;
  (void)record_drain(&n);
  ASSERT_EQ(n, records_.size());
  (void)batch_drain(&n);
  ASSERT_EQ(n, records_.size());

  const uint64_t record_allocs = record_drain(&n);
  ASSERT_EQ(n, records_.size());
  const uint64_t batch_allocs = batch_drain(&n);
  ASSERT_EQ(n, records_.size());
  EXPECT_LE(batch_allocs, record_allocs);
}

}  // namespace
}  // namespace antimr
