#include "mr/in_mapper_combining.h"

#include <map>

#include <gtest/gtest.h>

#include "datagen/random_text.h"
#include "test_util.h"
#include "workloads/wordcount.h"

namespace antimr {
namespace {

using testing::Canonicalize;
using testing::MustRun;

std::map<std::string, std::string> RunToMap(const JobSpec& spec,
                                            const std::vector<InputSplit>& s) {
  std::map<std::string, std::string> out;
  for (const KV& kv : MustRun(spec, s)) out[kv.key] = kv.value;
  return out;
}

TEST(InMapperCombining, PreservesWordCountResults) {
  RandomTextConfig rc;
  rc.num_lines = 500;
  rc.vocabulary_words = 60;
  RandomTextGenerator gen(rc);
  workloads::WordCountConfig cfg;
  cfg.with_combiner = true;
  const JobSpec base = workloads::MakeWordCountJob(cfg);
  EXPECT_EQ(RunToMap(base, gen.MakeSplits(3)),
            RunToMap(ApplyInMapperCombining(base), gen.MakeSplits(3)));
}

TEST(InMapperCombining, ShrinksEmittedRecords) {
  RandomTextConfig rc;
  rc.num_lines = 1000;
  rc.vocabulary_words = 100;
  RandomTextGenerator gen(rc);
  workloads::WordCountConfig cfg;
  cfg.with_combiner = false;
  JobMetrics plain, in_mapper;
  MustRun(workloads::MakeWordCountJob(cfg), gen.MakeSplits(2), &plain);
  cfg.with_combiner = true;
  MustRun(ApplyInMapperCombining(workloads::MakeWordCountJob(cfg)),
          gen.MakeSplits(2), &in_mapper);
  // Aggregation happens before the shuffle pipeline entirely.
  EXPECT_LT(in_mapper.emitted_records * 10, plain.emitted_records);
}

TEST(InMapperCombining, FlushesOnMemoryBudget) {
  RandomTextConfig rc;
  rc.num_lines = 800;
  rc.vocabulary_words = 400;
  RandomTextGenerator gen(rc);
  workloads::WordCountConfig cfg;
  cfg.with_combiner = true;
  const JobSpec base = workloads::MakeWordCountJob(cfg);
  // A tiny budget forces many intra-task flushes; results must not change.
  EXPECT_EQ(RunToMap(ApplyInMapperCombining(base, /*memory_budget=*/512),
                     gen.MakeSplits(2)),
            RunToMap(ApplyInMapperCombining(base), gen.MakeSplits(2)));
}

// The default 4 MiB budget never flushes inside a Map call. At 512 B the
// table flushes from whichever Map call overflows it, so that call's
// emissions depend on earlier calls: a LazySH re-execution of it on a
// reducer would emit nothing. The rewritten spec is non-deterministic, so
// the transform must fall back to EagerSH under every strategy.
TEST(InMapperCombining, ComposesWithAntiCombining) {
  RandomTextConfig rc;
  rc.num_lines = 400;
  rc.vocabulary_words = 80;
  RandomTextGenerator gen(rc);
  workloads::WordCountConfig cfg;
  cfg.with_combiner = true;
  const JobSpec base = workloads::MakeWordCountJob(cfg);
  const std::pair<const char*, anticombine::AntiCombineOptions> strategies[] =
      {{"lazy", anticombine::AntiCombineOptions::LazyOnly()},
       {"unrestricted", anticombine::AntiCombineOptions::Unrestricted()},
       {"eager", anticombine::AntiCombineOptions::EagerOnly()}};
  for (const size_t budget : {size_t{4} << 20, size_t{512}}) {
    const JobSpec wrapped = ApplyInMapperCombining(base, budget);
    for (const auto& [name, options] : strategies) {
      SCOPED_TRACE(std::string(name) + " budget=" + std::to_string(budget));
      testing::ExpectEquivalent(wrapped, gen.MakeSplits(3), options);
    }
  }
}

TEST(PerTaskMetrics, CollectedOnRequest) {
  RandomTextConfig rc;
  rc.num_lines = 200;
  RandomTextGenerator gen(rc);
  workloads::WordCountConfig cfg;
  RunOptions options;
  options.collect_task_metrics = true;
  JobResult result;
  ASSERT_TRUE(RunJob(workloads::MakeWordCountJob(cfg), gen.MakeSplits(3),
                     options, &result)
                  .ok());
  int maps = 0, reduces = 0;
  uint64_t task_inputs = 0;
  for (const TaskMetrics& t : result.task_metrics) {
    if (t.is_map) {
      ++maps;
      task_inputs += t.metrics.input_records;
    } else {
      ++reduces;
    }
  }
  EXPECT_EQ(maps, 3);
  EXPECT_EQ(reduces, cfg.num_reduce_tasks);
  EXPECT_EQ(task_inputs, result.metrics.input_records);

  // Off by default.
  JobResult plain;
  ASSERT_TRUE(
      RunJob(workloads::MakeWordCountJob(cfg), gen.MakeSplits(3), &plain)
          .ok());
  EXPECT_TRUE(plain.task_metrics.empty());
}

}  // namespace
}  // namespace antimr
