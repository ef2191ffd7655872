// The core correctness property of the paper: enabling Anti-Combining on ANY
// MapReduce program — any threshold T, Combiner flag C, codec, buffer size,
// parallelism, or grouping comparator — must not change the program's output.
// Plus targeted tests of the encoding decisions and metrics.
#include <map>
#include <memory>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "common/random.h"
#include "datagen/qlog.h"
#include "datagen/random_text.h"
#include "test_util.h"
#include "workloads/query_suggestion.h"
#include "workloads/sort.h"
#include "workloads/wordcount.h"

namespace antimr {
namespace {

using anticombine::AntiCombineOptions;
using anticombine::EnableAntiCombining;
using testing::Canonicalize;
using testing::DigestReducer;
using testing::ExpectEquivalent;
using testing::MustRun;
using testing::SyntheticInput;
using testing::SyntheticJob;
using testing::SyntheticShape;

// ---------------------------------------------------------------------------
// Parameterized equivalence sweep.

struct SweepParam {
  SyntheticShape shape;
  int reduce_tasks;
  int map_tasks;
  uint64_t threshold;
  bool map_phase_combiner;
  size_t map_buffer;
  CodecType codec;
};

class EquivalenceSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(EquivalenceSweep, TransformedOutputMatchesOriginal) {
  const SweepParam& p = GetParam();
  JobSpec original = SyntheticJob(p.shape, p.reduce_tasks);
  original.map_buffer_bytes = p.map_buffer;
  original.map_output_codec = p.codec;
  AntiCombineOptions options;
  options.lazy_threshold_nanos = p.threshold;
  options.map_phase_combiner = p.map_phase_combiner;
  auto input = SyntheticInput(600, /*seed=*/7);
  ExpectEquivalent(original, MakeSplits(std::move(input), p.map_tasks),
                   options);
}

constexpr uint64_t kInf = AntiCombineOptions::kInfiniteT;

INSTANTIATE_TEST_SUITE_P(
    Shapes, EquivalenceSweep,
    ::testing::Values(
        // fan-out 1 (sort-like): the degenerate overhead case
        SweepParam{{1, 1000, false, false}, 4, 3, kInf, true,
                   1 << 20, CodecType::kNone},
        // wide fan-out with shared values: EagerSH territory
        SweepParam{{8, 50, true, false}, 4, 3, kInf, true, 1 << 20,
                   CodecType::kNone},
        // wide fan-out with distinct values: LazySH territory
        SweepParam{{8, 50, false, false}, 4, 3, kInf, true, 1 << 20,
                   CodecType::kNone},
        // eager-only (T = 0)
        SweepParam{{8, 50, false, false}, 4, 3, 0, true, 1 << 20,
                   CodecType::kNone},
        // single reduce task: everything shares a partition
        SweepParam{{6, 30, true, false}, 1, 2, kInf, true, 1 << 20,
                   CodecType::kNone},
        // many reduce tasks: little co-partitioning
        SweepParam{{6, 1000, true, false}, 16, 4, kInf, true, 1 << 20,
                   CodecType::kNone},
        // tiny map buffer: spills everywhere
        SweepParam{{8, 50, true, false}, 4, 3, kInf, true, 8 * 1024,
                   CodecType::kNone},
        // with combiner, map-phase combining on (C = 1)
        SweepParam{{8, 50, true, true}, 4, 3, kInf, true, 1 << 20,
                   CodecType::kNone},
        // with combiner, map-phase combining off (C = 0)
        SweepParam{{8, 50, true, true}, 4, 3, kInf, false, 1 << 20,
                   CodecType::kNone},
        // with combiner + spills: combiner applied per spill
        SweepParam{{8, 50, true, true}, 4, 3, kInf, true, 8 * 1024,
                   CodecType::kNone},
        // compression stacked on top of Anti-Combining
        SweepParam{{8, 50, true, false}, 4, 3, kInf, true, 1 << 20,
                   CodecType::kGzip},
        SweepParam{{8, 50, false, false}, 4, 3, kInf, true, 1 << 20,
                   CodecType::kSnappyLike}));

// ---------------------------------------------------------------------------
// Equivalence on the real workloads.

TEST(AntiCombining, QuerySuggestionEquivalence) {
  QLogConfig qc;
  qc.num_records = 2000;
  qc.num_distinct = 500;
  QLogGenerator gen(qc);
  for (auto scheme : {workloads::QuerySuggestionConfig::Scheme::kHash,
                      workloads::QuerySuggestionConfig::Scheme::kPrefix1,
                      workloads::QuerySuggestionConfig::Scheme::kPrefix5}) {
    workloads::QuerySuggestionConfig cfg;
    cfg.scheme = scheme;
    cfg.num_reduce_tasks = 4;
    ExpectEquivalent(workloads::MakeQuerySuggestionJob(cfg),
                     gen.MakeSplits(3), AntiCombineOptions());
  }
}

TEST(AntiCombining, QuerySuggestionWithCombinerEquivalence) {
  QLogConfig qc;
  qc.num_records = 1500;
  qc.num_distinct = 300;
  QLogGenerator gen(qc);
  workloads::QuerySuggestionConfig cfg;
  cfg.with_combiner = true;
  cfg.num_reduce_tasks = 4;
  for (bool c_flag : {true, false}) {
    AntiCombineOptions options;
    options.map_phase_combiner = c_flag;
    ExpectEquivalent(workloads::MakeQuerySuggestionJob(cfg),
                     gen.MakeSplits(3), options);
  }
}

TEST(AntiCombining, WordCountEquivalence) {
  RandomTextConfig rc;
  rc.num_lines = 400;
  rc.vocabulary_words = 80;
  RandomTextGenerator gen(rc);
  workloads::WordCountConfig wc;
  wc.num_reduce_tasks = 4;
  ExpectEquivalent(workloads::MakeWordCountJob(wc), gen.MakeSplits(3),
                   AntiCombineOptions());
}

// ---------------------------------------------------------------------------
// Behavioural checks on the adaptive decisions.

TEST(AntiCombining, SharedValuesChooseEagerAtThresholdZero) {
  JobSpec original = SyntheticJob({8, 50, true, false}, 4);
  JobSpec transformed =
      EnableAntiCombining(original, AntiCombineOptions::EagerOnly());
  JobMetrics m;
  MustRun(transformed, MakeSplits(SyntheticInput(300, 3), 2), &m);
  EXPECT_EQ(m.lazy_records, 0u) << "T = 0 must forbid LazySH";
  EXPECT_GT(m.eager_records, 0u);
}

TEST(AntiCombining, DistinctValuesChooseLazyWhenUnrestricted) {
  JobSpec original = SyntheticJob({8, 50, false, false}, 2);
  JobSpec transformed =
      EnableAntiCombining(original, AntiCombineOptions::Unrestricted());
  JobMetrics m;
  MustRun(transformed, MakeSplits(SyntheticInput(300, 3), 2), &m);
  EXPECT_GT(m.lazy_records, 0u)
      << "distinct values in a wide fan-out should pick LazySH";
}

TEST(AntiCombining, NonDeterministicJobDisablesLazy) {
  JobSpec original = SyntheticJob({8, 50, false, false}, 2);
  original.deterministic = false;
  JobSpec transformed =
      EnableAntiCombining(original, AntiCombineOptions::Unrestricted());
  JobMetrics m;
  MustRun(transformed, MakeSplits(SyntheticInput(300, 3), 2), &m);
  EXPECT_EQ(m.lazy_records, 0u);
  EXPECT_EQ(m.remap_calls, 0u);
}

TEST(AntiCombining, FanOutOneDegeneratesToFlaggedPlain) {
  JobSpec original = SyntheticJob({1, 100000, false, false}, 4);
  JobSpec transformed =
      EnableAntiCombining(original, AntiCombineOptions::Unrestricted());
  JobMetrics orig_m, anti_m;
  ExpectEquivalent(original, MakeSplits(SyntheticInput(500, 5), 2),
                   AntiCombineOptions::Unrestricted(), &orig_m, &anti_m);
  EXPECT_EQ(anti_m.eager_records, 0u);
  EXPECT_EQ(anti_m.lazy_records, 0u);
  EXPECT_EQ(anti_m.plain_records, anti_m.emitted_records);
  // Overhead is the 2-byte flag+count per record, nothing more.
  EXPECT_EQ(anti_m.emitted_bytes,
            orig_m.emitted_bytes + 2 * orig_m.emitted_records);
}

TEST(AntiCombining, EagerReducesEmittedBytesWhenValuesShared) {
  JobSpec original = SyntheticJob({16, 20, true, false}, 2);
  JobMetrics orig_m, anti_m;
  ExpectEquivalent(original, MakeSplits(SyntheticInput(400, 11), 2),
                   AntiCombineOptions::EagerOnly(), &orig_m, &anti_m);
  EXPECT_LT(anti_m.emitted_bytes, orig_m.emitted_bytes);
  EXPECT_LT(anti_m.emitted_records, orig_m.emitted_records);
}

TEST(AntiCombining, LazyShuffleIsSmallerThanEagerForDistinctValues) {
  JobSpec original = SyntheticJob({16, 500, false, false}, 2);
  auto splits = MakeSplits(SyntheticInput(400, 13), 2);
  JobMetrics eager_m, lazy_m;
  MustRun(EnableAntiCombining(original, AntiCombineOptions::EagerOnly()),
          splits, &eager_m);
  MustRun(EnableAntiCombining(original, AntiCombineOptions::Unrestricted()),
          splits, &lazy_m);
  EXPECT_LT(lazy_m.emitted_bytes, eager_m.emitted_bytes);
}

TEST(AntiCombining, RemapCallsHappenOnlyForLazyRecords) {
  JobSpec original = SyntheticJob({8, 50, false, false}, 2);
  JobMetrics m;
  MustRun(EnableAntiCombining(original, AntiCombineOptions::Unrestricted()),
          MakeSplits(SyntheticInput(200, 17), 2), &m);
  EXPECT_EQ(m.remap_calls, m.lazy_records);
}

TEST(AntiCombining, SharedSpillsWhenMemoryTight) {
  JobSpec original = SyntheticJob({16, 40, true, false}, 2);
  AntiCombineOptions options;
  options.shared_memory_bytes = 2048;  // force Shared to spill
  JobMetrics orig_m, anti_m;
  ExpectEquivalent(original, MakeSplits(SyntheticInput(800, 19), 2), options,
                   &orig_m, &anti_m);
  EXPECT_GT(anti_m.shared_spills, 0u);
}

// The local disk ledger of a Query-Suggestion Prefix-5 job whose Shared
// spills and whose maps never spill (so no map-side merge): every byte
// written is a shuffle segment or a Shared spill, and each is read back
// exactly once.
TEST(AntiCombining, DiskLedgerIsShuffleBytesPlusSharedSpills) {
  QLogConfig qc;
  qc.num_records = 4000;
  qc.num_distinct = 1000;
  workloads::QuerySuggestionConfig cfg;
  cfg.scheme = workloads::QuerySuggestionConfig::Scheme::kPrefix5;
  cfg.num_reduce_tasks = 4;
  AntiCombineOptions options;
  options.shared_memory_bytes = 64 * 1024;
  JobMetrics m;
  MustRun(EnableAntiCombining(workloads::MakeQuerySuggestionJob(cfg), options),
          QLogGenerator(qc).MakeSplits(4), &m);
  ASSERT_GT(m.shared_spills, 0u) << "Shared never spilled";
  ASSERT_EQ(m.map_spills, 0u) << "a map spilled; its runs join the ledger";
  ASSERT_EQ(m.shared_spill_merges, 0u)
      << "a spill merge's segment joins the ledger";
  EXPECT_EQ(m.disk_bytes_written, m.shuffle_bytes + m.shared_spill_bytes);
  EXPECT_EQ(m.disk_bytes_read, m.disk_bytes_written);
}

TEST(AntiCombining, SecondarySortGroupingComparator) {
  // Fixed-width keys "gg|ss": sort on the full key, group and partition on
  // the first two characters (a grouping comparator must be consistent with
  // the sort order, as in Hadoop).
  class SecondaryMapper : public Mapper {
   public:
    void Map(const Slice& key, const Slice& value, MapContext* ctx) override {
      const uint64_t h = Hash64(key) ^ Hash64(value);
      for (int i = 0; i < 6; ++i) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "%02d|%02d",
                      static_cast<int>((h + static_cast<uint64_t>(i)) % 20),
                      static_cast<int>((h >> 8) % 100));
        ctx->Emit(Slice(buf, 5), "v" + std::to_string(h % 50));
      }
    }
  };
  class PrimaryPartitioner : public Partitioner {
   public:
    int Partition(const Slice& key, int num_partitions) const override {
      return static_cast<int>(Hash64(key.data(), 2) %
                              static_cast<uint64_t>(num_partitions));
    }
  };
  JobSpec original = SyntheticJob({1, 1, true, false}, 3);
  original.mapper_factory = []() { return std::make_unique<SecondaryMapper>(); };
  original.partitioner = std::make_shared<PrimaryPartitioner>();
  original.grouping_cmp = [](const Slice& a, const Slice& b) {
    return Slice(a.data(), 2).compare(Slice(b.data(), 2));
  };
  ExpectEquivalent(original, MakeSplits(SyntheticInput(300, 23), 2),
                   AntiCombineOptions());
}

// ---------------------------------------------------------------------------
// Cross-call window extension (paper Section 9 future work).

TEST(AntiCombining, CrossCallWindowEquivalence) {
  for (int window : {2, 8, 64}) {
    for (bool shared_values : {true, false}) {
      JobSpec original = SyntheticJob({6, 40, shared_values, false}, 4);
      AntiCombineOptions options;
      options.cross_call_window = window;
      ExpectEquivalent(original, MakeSplits(SyntheticInput(400, 37), 3),
                       options);
    }
  }
}

TEST(AntiCombining, CrossCallWindowWithSpillsAndCombiner) {
  JobSpec original = SyntheticJob({8, 50, true, true}, 4);
  original.map_buffer_bytes = 8 * 1024;
  AntiCombineOptions options;
  options.cross_call_window = 16;
  ExpectEquivalent(original, MakeSplits(SyntheticInput(500, 41), 3), options);
}

TEST(AntiCombining, CrossCallWindowEagerOnly) {
  JobSpec original = SyntheticJob({8, 50, true, false}, 4);
  AntiCombineOptions options;
  options.cross_call_window = 8;
  options.lazy_threshold_nanos = 0;
  JobMetrics orig_m, anti_m;
  ExpectEquivalent(original, MakeSplits(SyntheticInput(400, 43), 2), options,
                   &orig_m, &anti_m);
  EXPECT_EQ(anti_m.lazy_records, 0u);
}

TEST(AntiCombining, CrossCallWindowIncreasesSharing) {
  // WordCount-shaped mapper: every output value is identical, so value
  // groups can span Map calls and a larger window strictly increases
  // collapsing.
  class OnesMapper : public Mapper {
   public:
    void Map(const Slice& key, const Slice& value, MapContext* ctx) override {
      const uint64_t h = Hash64(key) ^ Hash64(value);
      for (int i = 0; i < 4; ++i) {
        ctx->Emit("w" + std::to_string((h + static_cast<uint64_t>(i)) % 200),
                  "1");
      }
    }
  };
  JobSpec original;
  original.name = "ones";
  original.mapper_factory = []() { return std::make_unique<OnesMapper>(); };
  original.reducer_factory = []() { return std::make_unique<DigestReducer>(); };
  original.num_reduce_tasks = 4;
  const auto splits = MakeSplits(SyntheticInput(600, 47), 2);

  uint64_t previous = UINT64_MAX;
  for (int window : {1, 8, 64}) {
    AntiCombineOptions options;
    options.cross_call_window = window;
    options.lazy_threshold_nanos = 0;  // isolate the Eager effect
    JobMetrics m;
    MustRun(EnableAntiCombining(original, options), splits, &m);
    EXPECT_LT(m.emitted_records, previous) << "window=" << window;
    previous = m.emitted_records;
  }
}

TEST(AntiCombining, MapperEmittingNothingIsFine) {
  JobSpec original = SyntheticJob({1, 10, false, false}, 2);
  original.mapper_factory = []() {
    class NullMapper : public Mapper {
      void Map(const Slice&, const Slice&, MapContext*) override {}
    };
    return std::make_unique<NullMapper>();
  };
  ExpectEquivalent(original, MakeSplits(SyntheticInput(50, 29), 2),
                   AntiCombineOptions());
}

TEST(AntiCombining, DuplicateOutputRecordsSurviveEncoding) {
  // Map emits the exact same (key, value) pair several times; the value
  // multiset must survive EagerSH's grouping.
  JobSpec original = SyntheticJob({1, 10, false, false}, 2);
  original.mapper_factory = []() {
    class DupMapper : public Mapper {
      void Map(const Slice& key, const Slice& value,
               MapContext* ctx) override {
        for (int i = 0; i < 4; ++i) ctx->Emit(key, value);
        ctx->Emit(key, "other");
      }
    };
    return std::make_unique<DupMapper>();
  };
  ExpectEquivalent(original, MakeSplits(SyntheticInput(100, 31), 2),
                   AntiCombineOptions());
}

}  // namespace
}  // namespace antimr
