// Failure injection: storage faults at controlled points must surface as
// Status errors from RunJob — never crashes, hangs, or silent data loss.
#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/coordinator.h"
#include "engine/executor.h"
#include "engine/job_plan.h"
#include "engine/job_registry.h"
#include "engine/job_service.h"
#include "engine/worker.h"
#include "datagen/random_text.h"
#include "mr/map_task.h"
#include "mr/reduce_task.h"
#include "net/transport.h"
#include "obs/metrics_registry.h"
#include "test_util.h"
#include "workloads/registry.h"

namespace antimr {
namespace {

/// Env wrapper that fails the sampled operations with index in
/// [fail_at, fail_at + fail_times). The default window is unbounded, i.e.
/// "allow fail_at ops through, then fail forever" — a hard outage. A finite
/// window (fail_times=1 is the interesting case) models a transient flake
/// that a retried task will get past. `fault_code` picks the injected
/// Status: IOError (transient, default) or Corruption (permanent).
class FaultyEnv : public Env {
 public:
  static constexpr int kForever = 1 << 30;

  FaultyEnv(std::unique_ptr<Env> base, int fail_at, int fail_times = kForever,
            Status::Code fault_code = Status::Code::kIOError)
      : base_(std::move(base)),
        fail_at_(fail_at),
        fail_times_(fail_times),
        fault_code_(fault_code) {}

  /// Sample only `op` calls on files whose name ends with `suffix`; every
  /// other operation passes through uncounted. With `op` "Append", each
  /// Append to a file opened for writing is the sampled operation, so a
  /// write error can land in the middle of a file.
  void SampleOnly(std::string op, std::string suffix) {
    only_op_ = std::move(op);
    suffix_ = std::move(suffix);
  }

  /// Sample only operations (of any kind) on files whose name contains
  /// `part`.
  void SampleOnlyContaining(std::string part) { part_ = std::move(part); }

  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* file) override {
    ANTIMR_RETURN_NOT_OK(Tick("NewWritableFile", fname));
    ANTIMR_RETURN_NOT_OK(base_->NewWritableFile(fname, file));
    if (only_op_ == "Append") {
      *file = std::make_unique<AppendSampledFile>(this, fname,
                                                  std::move(*file));
    }
    return Status::OK();
  }
  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* file) override {
    ANTIMR_RETURN_NOT_OK(Tick("NewSequentialFile", fname));
    return base_->NewSequentialFile(fname, file);
  }
  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* file) override {
    ANTIMR_RETURN_NOT_OK(Tick("NewRandomAccessFile", fname));
    return base_->NewRandomAccessFile(fname, file);
  }
  Status GetFileSize(const std::string& fname, uint64_t* size) override {
    return base_->GetFileSize(fname, size);
  }
  Status DeleteFile(const std::string& fname) override {
    return base_->DeleteFile(fname);
  }
  bool FileExists(const std::string& fname) override {
    return base_->FileExists(fname);
  }
  Status ListFiles(std::vector<std::string>* names) override {
    return base_->ListFiles(names);
  }
  IoStats stats() const override { return base_->stats(); }
  void ResetStats() override { base_->ResetStats(); }

  int operations_seen() const { return ops_.load(); }
  int faults_injected() const { return injected_.load(); }

 private:
  /// A writable file whose every Append is a sampled operation.
  class AppendSampledFile : public WritableFile {
   public:
    AppendSampledFile(FaultyEnv* env, std::string fname,
                      std::unique_ptr<WritableFile> base)
        : env_(env), fname_(std::move(fname)), base_(std::move(base)) {}
    Status Append(const Slice& data) override {
      ANTIMR_RETURN_NOT_OK(env_->Tick("Append", fname_));
      return base_->Append(data);
    }
    Status Close() override { return base_->Close(); }

   private:
    FaultyEnv* env_;
    std::string fname_;
    std::unique_ptr<WritableFile> base_;
  };

  Status Tick(const char* op, const std::string& fname) {
    if ((!only_op_.empty() && only_op_ != op) ||
        fname.size() < suffix_.size() ||
        fname.compare(fname.size() - suffix_.size(), suffix_.size(),
                      suffix_) != 0 ||
        fname.find(part_) == std::string::npos) {
      return Status::OK();
    }
    const int index = ops_.fetch_add(1);
    if (index >= fail_at_ && index - fail_at_ < fail_times_) {
      injected_.fetch_add(1);
      const std::string msg = std::string("injected fault in ") + op;
      if (fault_code_ == Status::Code::kCorruption) {
        return Status::Corruption(msg);
      }
      return Status::IOError(msg);
    }
    return Status::OK();
  }

  std::unique_ptr<Env> base_;
  const int fail_at_;
  const int fail_times_;
  const Status::Code fault_code_;
  std::string only_op_;
  std::string suffix_;
  std::string part_;
  std::atomic<int> ops_{0};
  std::atomic<int> injected_{0};
};

class FanoutMapper : public Mapper {
 public:
  void Map(const Slice& key, const Slice& value, MapContext* ctx) override {
    for (int i = 0; i < 4; ++i) {
      ctx->Emit(key.ToString() + std::to_string(i), value);
    }
  }
};

class CountReducer : public Reducer {
 public:
  void Reduce(const Slice& key, ValueIterator* values,
              ReduceContext* ctx) override {
    uint64_t n = 0;
    Slice v;
    while (values->Next(&v)) ++n;
    ctx->Emit(key, std::to_string(n));
  }
};

JobSpec TestJob() {
  JobSpec spec;
  spec.name = "fault_test";
  spec.mapper_factory = []() { return std::make_unique<FanoutMapper>(); };
  spec.reducer_factory = []() { return std::make_unique<CountReducer>(); };
  spec.num_reduce_tasks = 3;
  spec.map_buffer_bytes = 2048;  // force spills so merge paths execute
  return spec;
}

std::vector<KV> TestInput() {
  std::vector<KV> input;
  for (int i = 0; i < 300; ++i) {
    input.push_back({"key" + std::to_string(i % 40), "v" + std::to_string(i)});
  }
  return input;
}

class FaultInjection : public ::testing::Test {
 protected:
  RunOptions MakeOptions(Env* env) const {
    RunOptions options;
    options.env = env;
    return options;
  }

  int CountEnvOps() const {
    FaultyEnv env(NewMemEnv(), /*fail_at=*/FaultyEnv::kForever);
    JobResult result;
    EXPECT_TRUE(RunJob(TestJob(), MakeSplits(TestInput(), 2),
                       MakeOptions(&env), &result)
                    .ok());
    return env.operations_seen();
  }

  /// Two-stage chain in -> first -> mid -> second -> out.
  engine::JobPlan MakeTwoStagePlan() const {
    engine::JobPlan plan;
    plan.name = "fault_chain";
    EXPECT_TRUE(plan.AddInput("in", MakeSplits(TestInput(), 2)).ok());
    engine::Stage first;
    first.name = "first";
    first.spec = TestJob();
    first.inputs = {"in"};
    first.output = "mid";
    plan.AddStage(std::move(first));
    engine::Stage second;
    second.name = "second";
    second.spec = TestJob();
    second.inputs = {"mid"};
    second.output = "out";
    plan.AddStage(std::move(second));
    return plan;
  }
};

TEST_F(FaultInjection, CleanRunEstablishesBaseline) {
  // The job exercises enough I/O that fault sweeps below are meaningful.
  EXPECT_GT(CountEnvOps(), 20);
}

TEST_F(FaultInjection, EveryFaultPointSurfacesAsStatus) {
  const int total_ops = CountEnvOps();
  // Inject a fault at every I/O operation index in turn; RunJob must fail
  // cleanly (no crash, no hang, no OK-with-missing-data). fail_at = N allows
  // N ops through, so the last injectable point is total_ops - 1.
  for (int fail_at = 0; fail_at < total_ops; ++fail_at) {
    FaultyEnv env(NewMemEnv(), fail_at);
    JobResult result;
    const Status st = RunJob(TestJob(), MakeSplits(TestInput(), 2),
                             MakeOptions(&env), &result);
    EXPECT_FALSE(st.ok()) << "fault at op " << fail_at << " was swallowed";
    EXPECT_TRUE(st.IsIOError()) << st.ToString();
  }
}

TEST_F(FaultInjection, JobSucceedsWhenFaultBudgetNotReached) {
  const int total_ops = CountEnvOps();
  FaultyEnv env(NewMemEnv(), total_ops + 100);
  JobResult result;
  EXPECT_TRUE(RunJob(TestJob(), MakeSplits(TestInput(), 2), MakeOptions(&env),
                     &result)
                  .ok());
  EXPECT_EQ(result.metrics.reduce_groups, 40u * 4);
}

// A fault anywhere in a two-stage plan must fail the whole plan cleanly:
// the TaskGraph skips transitive dependents (including the downstream
// stage's tasks reading the dead partition) instead of hanging on them.
TEST_F(FaultInjection, MultiStagePlanFailsCleanly) {
  int total_ops = 0;
  {
    FaultyEnv env(NewMemEnv(), FaultyEnv::kForever);
    engine::ExecutorOptions exec_options;
    exec_options.env = &env;
    engine::Executor executor(exec_options);
    engine::PlanResult result;
    ASSERT_TRUE(executor.Run(MakeTwoStagePlan(), &result).ok());
    total_ops = env.operations_seen();
  }
  ASSERT_GT(total_ops, 20);
  // Sample fault points across the whole plan (every op would be slow here:
  // the plan doubles the single-job op count).
  for (int fail_at = 0; fail_at < total_ops; fail_at += 7) {
    FaultyEnv env(NewMemEnv(), fail_at);
    engine::ExecutorOptions exec_options;
    exec_options.env = &env;
    engine::Executor executor(exec_options);
    engine::PlanResult result;
    const Status st = executor.Run(MakeTwoStagePlan(), &result);
    EXPECT_FALSE(st.ok()) << "fault at op " << fail_at << " was swallowed";
    EXPECT_TRUE(st.IsIOError()) << st.ToString();
    // Default max_task_attempts=1: a failed plan must still release every
    // intermediate dataset (skipped consumers never ran ConsumerDone; the
    // run epilogue has to cover them).
    for (const engine::DatasetInfo& ds : result.datasets) {
      if (ds.external || ds.retained) continue;
      EXPECT_TRUE(ds.released)
          << "dataset " << ds.name << " leaked, fault at op " << fail_at;
    }
  }
}

// The tentpole acceptance test: with retries enabled, a fail-once transient
// fault at ANY sampled I/O op of the two-stage plan must be survived — the
// plan completes and its output is byte-identical to a clean run (the
// LazySH determinism argument: re-executed tasks reproduce their output
// exactly, so retries change file names and timing, never data).
TEST_F(FaultInjection, TransientFaultsRecoverWithRetries) {
  int total_ops = 0;
  std::vector<KV> clean_output;
  {
    FaultyEnv env(NewMemEnv(), FaultyEnv::kForever);
    engine::ExecutorOptions exec_options;
    exec_options.env = &env;
    engine::Executor executor(exec_options);
    engine::PlanResult result;
    ASSERT_TRUE(executor.Run(MakeTwoStagePlan(), &result).ok());
    total_ops = env.operations_seen();
    clean_output = result.FlatOutput("out");
  }
  ASSERT_GT(total_ops, 20);
  ASSERT_FALSE(clean_output.empty());

  obs::Counter* const retries = obs::MetricsRegistry::Global().GetCounter(
      "antimr_task_retries_total",
      "Transient task failures answered with a re-execution");
  for (int fail_at = 0; fail_at < total_ops; fail_at += 7) {
    FaultyEnv env(NewMemEnv(), fail_at, /*fail_times=*/1);
    engine::ExecutorOptions exec_options;
    exec_options.env = &env;
    exec_options.max_task_attempts = 3;
    exec_options.retry_backoff_nanos = 1000;  // keep the sweep fast
    engine::Executor executor(exec_options);
    engine::PlanResult result;
    const uint64_t retries_before = retries->value();
    const Status st = executor.Run(MakeTwoStagePlan(), &result);
    ASSERT_TRUE(st.ok()) << "fault at op " << fail_at
                         << " not survived: " << st.ToString();
    EXPECT_EQ(env.faults_injected(), 1) << "fault at op " << fail_at;
    EXPECT_GE(retries->value() - retries_before, 1u)
        << "fault at op " << fail_at << " recovered without a retry?";
    EXPECT_TRUE(result.FlatOutput("out") == clean_output)
        << "output diverged after retry, fault at op " << fail_at;
  }
}

// Segment compression and block size must be invisible in results, even
// under faults and retries: a run with snappy-compressed, 1 KiB-block
// segments (many blocks per spill and per shuffled segment) must produce
// byte-identical output to the uncompressed clean run, both on a clean pass
// and across a transient-fault sweep with retries.
TEST_F(FaultInjection, CompressedManyBlockOutputMatchesUnderTransientFaults) {
  std::vector<KV> plain_output;
  {
    auto env = NewMemEnv();
    JobResult result;
    ASSERT_TRUE(RunJob(TestJob(), MakeSplits(TestInput(), 2),
                       MakeOptions(env.get()), &result)
                    .ok());
    plain_output = result.FlatOutput();
  }
  ASSERT_FALSE(plain_output.empty());

  JobSpec spec = TestJob();
  spec.map_output_codec = CodecType::kSnappyLike;
  spec.shuffle_block_bytes = 1024;  // many blocks per segment
  RunOptions options = MakeOptions(nullptr);

  int total_ops = 0;
  {
    FaultyEnv env(NewMemEnv(), FaultyEnv::kForever);
    options.env = &env;
    JobResult result;
    ASSERT_TRUE(
        RunJob(spec, MakeSplits(TestInput(), 2), options, &result).ok());
    EXPECT_TRUE(result.FlatOutput() == plain_output)
        << "clean compressed run diverged from the uncompressed run";
    EXPECT_GT(result.metrics.shuffle_blocks,
              static_cast<uint64_t>(2 * spec.num_reduce_tasks))
        << "segments must span several blocks";
    total_ops = env.operations_seen();
  }
  ASSERT_GT(total_ops, 20);

  options.max_task_attempts = 3;
  options.retry_backoff_nanos = 1000;  // keep the sweep fast
  for (int fail_at = 0; fail_at < total_ops; fail_at += 7) {
    FaultyEnv env(NewMemEnv(), fail_at, /*fail_times=*/1);
    options.env = &env;
    JobResult result;
    const Status st =
        RunJob(spec, MakeSplits(TestInput(), 2), options, &result);
    ASSERT_TRUE(st.ok()) << "fault at op " << fail_at
                         << " not survived: " << st.ToString();
    EXPECT_TRUE(result.FlatOutput() == plain_output)
        << "compressed output diverged, fault at op " << fail_at;
  }
}

// A map task with two spills ships each spill's run, so the reduce's fetch
// task pulls several files per map. A transient fault on a
// later run must retry the whole fetch, and the retried fetch must replace
// (not append to) the runs the failed attempt already copied.
TEST_F(FaultInjection, TransientFaultOnSecondRunFetchIsRetried) {
  JobSpec spec = TestJob();
  // Each map's ~600 emitted records fill the buffer once, leaving a smaller
  // tail: two spills, so two runs per partition.
  spec.map_buffer_bytes = 12 * 1024;
  std::vector<KV> clean_output;
  {
    auto env = NewMemEnv();
    JobResult result;
    ASSERT_TRUE(RunJob(spec, MakeSplits(TestInput(), 2),
                       MakeOptions(env.get()), &result)
                    .ok());
    ASSERT_EQ(result.metrics.map_spills, 4u) << "premise: 2 spills per map";
    clean_output = result.FlatOutput();
  }

  obs::Counter* const retries = obs::MetricsRegistry::Global().GetCounter(
      "antimr_task_retries_total",
      "Transient task failures answered with a re-execution");
  // Shipped runs are only ever opened for reading by the shuffle server, so
  // the first read of any map's second run is a fetch.
  FaultyEnv env(NewMemEnv(), /*fail_at=*/0, /*fail_times=*/1);
  env.SampleOnly("NewSequentialFile", "_r1");
  RunOptions options = MakeOptions(&env);
  options.max_task_attempts = 3;
  options.retry_backoff_nanos = 1000;
  JobResult result;
  const uint64_t retries_before = retries->value();
  const Status st = RunJob(spec, MakeSplits(TestInput(), 2), options, &result);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(env.faults_injected(), 1);
  EXPECT_GE(retries->value() - retries_before, 1u);
  EXPECT_EQ(result.FlatOutput(), clean_output);
  EXPECT_EQ(result.metrics.map_spills, 4u);
}

// Permanent faults must NOT be retried: a Corruption error fails the plan
// on the first attempt even with a retry budget left. Retrying corruption
// would just re-read the same bad bytes and mask the bug.
TEST_F(FaultInjection, PermanentFaultsAreNotRetried) {
  obs::Counter* const retries = obs::MetricsRegistry::Global().GetCounter(
      "antimr_task_retries_total",
      "Transient task failures answered with a re-execution");
  FaultyEnv env(NewMemEnv(), /*fail_at=*/5, /*fail_times=*/1,
                Status::Code::kCorruption);
  engine::ExecutorOptions exec_options;
  exec_options.env = &env;
  exec_options.max_task_attempts = 3;
  engine::Executor executor(exec_options);
  engine::PlanResult result;
  const uint64_t retries_before = retries->value();
  const Status st = executor.Run(MakeTwoStagePlan(), &result);
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_EQ(retries->value(), retries_before);
}

// A hard outage (faults from fail_at onward, forever) exhausts the retry
// budget and surfaces the transient error instead of looping.
TEST_F(FaultInjection, HardOutageExhaustsRetryBudget) {
  FaultyEnv env(NewMemEnv(), /*fail_at=*/5);
  engine::ExecutorOptions exec_options;
  exec_options.env = &env;
  exec_options.max_task_attempts = 3;
  exec_options.retry_backoff_nanos = 1000;
  engine::Executor executor(exec_options);
  engine::PlanResult result;
  const Status st = executor.Run(MakeTwoStagePlan(), &result);
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  // The failed task burned its full budget: 3 attempts = 3 injected faults
  // at minimum (dependent tasks may add their own).
  EXPECT_GE(env.faults_injected(), 3);
}

// ---- Anti-combined jobs: Shared spills and record decoding -----------------

constexpr char kSharedSpill[] = "_shared_spill_";

/// An anti-combined SyntheticJob whose reducers spill Shared many times
/// (2 KiB of Shared memory) and merge the spills.
JobSpec SharedSpillingJob() {
  anticombine::AntiCombineOptions options;
  options.shared_memory_bytes = 2048;
  return anticombine::EnableAntiCombining(
      testing::SyntheticJob({16, 40, true, false}, 2), options);
}

std::vector<InputSplit> SharedSpillingInput() {
  return MakeSplits(testing::SyntheticInput(800, 19), 2);
}

/// Fault-free run of SharedSpillingJob on `env`.
JobResult RunSharedSpillingJob(Env* env) {
  RunOptions options;
  options.env = env;
  JobResult result;
  const Status st =
      RunJob(SharedSpillingJob(), SharedSpillingInput(), options, &result);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return result;
}

// The sibling of EveryFaultPointSurfacesAsStatus over a job whose reduce
// tasks spill and merge Shared: every I/O fault, including those on Shared's
// spill files, fails the job with a clean Status instead of killing the
// process.
TEST(AntiCombinedFaults, EveryFaultPointSurfacesAsStatus) {
  int total_ops = 0;
  {
    FaultyEnv env(NewMemEnv(), FaultyEnv::kForever);
    const JobResult clean = RunSharedSpillingJob(&env);
    ASSERT_GT(clean.metrics.shared_spills, 10u) << "premise: Shared spills";
    ASSERT_GT(clean.metrics.shared_spill_merges, 0u)
        << "premise: Shared merges its spills";
    total_ops = env.operations_seen();
  }
  for (int fail_at = 0; fail_at < total_ops; ++fail_at) {
    FaultyEnv env(NewMemEnv(), fail_at);
    RunOptions options;
    options.env = &env;
    JobResult result;
    const Status st =
        RunJob(SharedSpillingJob(), SharedSpillingInput(), options, &result);
    EXPECT_FALSE(st.ok()) << "fault at op " << fail_at << " was swallowed";
    EXPECT_TRUE(st.IsIOError()) << st.ToString();
  }
}

// A transient fault on a Shared spill operation (write or read-back; every
// fifth one is sampled) fails the reduce attempt, and the retry reproduces
// the fault-free output.
TEST(AntiCombinedFaults, SharedSpillFaultIsRetriedToIdenticalOutput) {
  uint64_t clean_hash = 0;
  int spill_ops = 0;
  {
    FaultyEnv env(NewMemEnv(), FaultyEnv::kForever);
    env.SampleOnlyContaining(kSharedSpill);
    clean_hash = engine::OutputMultisetHash(
        RunSharedSpillingJob(&env).FlatOutput());
    spill_ops = env.operations_seen();
  }
  ASSERT_GT(spill_ops, 20) << "premise: Shared spill files are written "
                              "and read back";
  for (int fail_at = 0; fail_at < spill_ops; fail_at += 5) {
    FaultyEnv env(NewMemEnv(), fail_at, /*fail_times=*/1);
    env.SampleOnlyContaining(kSharedSpill);
    RunOptions options;
    options.env = &env;
    options.max_task_attempts = 3;
    options.retry_backoff_nanos = 1000;  // keep the sweep fast
    JobResult result;
    const Status st =
        RunJob(SharedSpillingJob(), SharedSpillingInput(), options, &result);
    ASSERT_TRUE(st.ok()) << "fault at spill op " << fail_at
                         << " not survived: " << st.ToString();
    EXPECT_EQ(env.faults_injected(), 1) << "fault at spill op " << fail_at;
    EXPECT_EQ(engine::OutputMultisetHash(result.FlatOutput()), clean_hash)
        << "output diverged after retry, fault at spill op " << fail_at;
  }
}

/// SequentialFile that flips the last byte of the file it reads.
class LastByteFlippingFile : public SequentialFile {
 public:
  LastByteFlippingFile(std::unique_ptr<SequentialFile> base, uint64_t size)
      : base_(std::move(base)), size_(size) {}

  Status Read(size_t n, Slice* result, char* scratch) override {
    ANTIMR_RETURN_NOT_OK(base_->Read(n, result, scratch));
    if (pos_ < size_ && size_ <= pos_ + result->size()) {
      if (result->data() != scratch) {
        std::memcpy(scratch, result->data(), result->size());
      }
      scratch[size_ - 1 - pos_] ^= 0x20;
      *result = Slice(scratch, result->size());
    }
    pos_ += result->size();
    return Status::OK();
  }
  Status Skip(uint64_t n) override {
    pos_ += n;
    return base_->Skip(n);
  }

 private:
  std::unique_ptr<SequentialFile> base_;
  uint64_t size_;
  uint64_t pos_ = 0;
};

/// MemEnv whose Shared spill files read back with their last byte flipped.
class SpillFlippingEnv : public FaultyEnv {
 public:
  SpillFlippingEnv() : FaultyEnv(NewMemEnv(), kForever) {}

  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* file) override {
    ANTIMR_RETURN_NOT_OK(FaultyEnv::NewSequentialFile(fname, file));
    uint64_t size = 0;
    if (fname.find(kSharedSpill) != std::string::npos &&
        GetFileSize(fname, &size).ok() && size > 0) {
      *file = std::make_unique<LastByteFlippingFile>(std::move(*file), size);
    }
    return Status::OK();
  }
};

// A flipped byte in a Shared spill is caught by the spill's block CRC and
// fails the job with a permanent Corruption that names the spill file; it is
// never read back as wrong output.
TEST(AntiCombinedFaults, FlippedSharedSpillByteIsCorruption) {
  JobSpec spec = SharedSpillingJob();
  spec.shuffle_block_bytes = 512;  // several blocks per spill
  SpillFlippingEnv env;
  RunOptions options;
  options.env = &env;
  options.max_task_attempts = 3;
  options.retry_backoff_nanos = 1000;
  JobResult result;
  const Status st = RunJob(spec, SharedSpillingInput(), options, &result);
  ASSERT_FALSE(st.ok()) << "a corrupt Shared spill was read back as output";
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_NE(st.message().find(kSharedSpill), std::string::npos)
      << st.ToString();
}

// A malformed anti-combining payload (a bad flag byte, a truncated LazySH
// record) fails the AntiCombiner's combine pass and the AntiReducer's task
// with Corruption instead of aborting the process.
TEST(AntiCombinedFaults, CorruptEncodedRecordIsCorruption) {
  anticombine::AntiCombineOptions ac;
  ac.map_phase_combiner = true;
  const JobSpec spec = anticombine::EnableAntiCombining(
      testing::SyntheticJob({4, 40, true, true}, 1), ac);
  ASSERT_NE(spec.combiner_factory, nullptr);
  auto env = NewMemEnv();
  const std::vector<std::string> bad_payloads = {
      std::string("\x07value", 6),          // unknown encoding flag
      std::string("\x01\x09trunc", 7),      // LazySH key longer than payload
  };
  for (const std::string& payload : bad_payloads) {
    const std::vector<KV> records = {{"k1", payload}};

    TaskInfo info;
    info.num_reduce_tasks = spec.num_reduce_tasks;
    info.shuffle_partition = 0;
    info.partitioner = spec.partitioner.get();
    info.key_cmp = spec.key_cmp;
    info.grouping_cmp = spec.EffectiveGroupingCmp();
    info.env = env.get();
    testing::KVVectorStream stream(&records);
    OutputSink discard;
    GroupRunStats stats;
    const Status combine = ApplyCombiner(spec, info, &stream, &discard, &stats);
    EXPECT_TRUE(combine.IsCorruption()) << combine.ToString();

    testing::KVVectorStream segment_records(&records);
    FetchedSegment segment;
    segment.file = "bad_segment";
    ASSERT_TRUE(WriteSegment(env.get(), segment.file, &segment_records,
                             nullptr, nullptr)
                    .ok());
    ASSERT_TRUE(
        ReadFileToString(env.get(), segment.file, &segment.frames).ok());
    segment.fetched_bytes = segment.frames.size();
    ReduceTaskInputs inputs;
    inputs.fetched = {&segment};
    ReduceTaskResult reduced;
    const Status reduce = RunReduceTask(spec, /*partition=*/0, inputs,
                                        env.get(), true, &reduced);
    EXPECT_TRUE(reduce.IsCorruption()) << reduce.ToString();
  }
}

/// Forwards every value (a legal combiner for DigestReducer), and gives up
/// through ReduceContext::Fail once one combine pass has emitted more than
/// two blocks' worth of bytes: by then the segment writer has flushed some
/// of the pass's blocks to storage.
class GivingUpCombiner : public Reducer {
 public:
  void Reduce(const Slice& key, ValueIterator* values,
              ReduceContext* ctx) override {
    Slice v;
    while (values->Next(&v)) {
      ctx->Emit(key, v);
      emitted_ += key.size() + v.size();
    }
    if (emitted_ > 2 * kShuffleBlockBytes) {
      ctx->Fail(Status::InvalidArgument("combiner gave up"));
    }
  }

 private:
  size_t emitted_ = 0;
};

// A map-side combine streams its output into the segment, so a combine
// that fails after its first blocks reached storage must still leave the
// attempt's storage empty: the map task returns the combiner's error and
// deletes the partial segment, on a spill (one run, no merge) and on the
// map-side merge of three or more runs (each run's combine stays under
// the limit; the merge's crosses it).
TEST(CombineFaults, FailingCombineLeavesNoFileBehind) {
  for (const bool merge : {false, true}) {
    SCOPED_TRACE(merge ? "merge" : "spill");
    JobSpec spec = testing::SyntheticJob({1, 1 << 30, false, false}, 1);
    spec.combiner_factory = []() {
      return std::make_unique<GivingUpCombiner>();
    };
    spec.map_buffer_bytes = merge ? 64 * 1024 : 64 * 1024 * 1024;
    std::unique_ptr<Env> env = NewMemEnv();
    MapTaskResult result;
    const Status st =
        RunMapTask(spec, "giving_up", 0, MakeSplit(testing::SyntheticInput(
                                                       12000, 7)),
                   env.get(), &result);
    EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
    EXPECT_NE(st.ToString().find("combiner gave up"), std::string::npos);
    if (merge) {
      EXPECT_GE(result.metrics.map_spills, 3u) << "premise: a merge";
    } else {
      EXPECT_EQ(result.metrics.map_spills, 0u) << "premise: no merge";
      EXPECT_GT(env->stats().bytes_written, 0u)
          << "premise: the failing segment reached storage";
    }
    std::vector<std::string> files;
    ASSERT_TRUE(env->ListFiles(&files).ok());
    EXPECT_TRUE(files.empty()) << files.size() << " files left, first "
                               << files.front();
    EXPECT_TRUE(result.segment_files.empty());
  }
}

// A write error in the middle of a map segment, where a map-side combine
// streams its output, fails that map attempt, and the retry reproduces
// the fault-free output. The failing Append is drawn by a seeded
// generator from the map segment appends of a clean run.
TEST(CombineFaults, CombineWriteErrorIsRetriedToIdenticalOutput) {
  JobSpec spec = testing::SyntheticJob({4, 100000, false, true}, 2);
  spec.map_buffer_bytes = 256 * 1024;
  const std::vector<InputSplit> splits =
      MakeSplits(testing::SyntheticInput(20000, 11), 2);
  auto sample_map_appends = [](FaultyEnv* env) {
    env->SampleOnly("Append", "");
    env->SampleOnlyContaining("/map_");
  };
  uint64_t clean_hash = 0;
  int appends = 0;
  {
    FaultyEnv env(NewMemEnv(), FaultyEnv::kForever);
    sample_map_appends(&env);
    RunOptions options;
    options.env = &env;
    JobResult clean;
    ASSERT_TRUE(RunJob(spec, splits, options, &clean).ok());
    ASSERT_GE(clean.metrics.map_spills, 6u)
        << "premise: every map task combines on its spills and its merge";
    ASSERT_GT(clean.metrics.combine_input_records, 0u);
    clean_hash = engine::OutputMultisetHash(clean.FlatOutput());
    appends = env.operations_seen();
  }
  {
    FaultyEnv files(NewMemEnv(), FaultyEnv::kForever);
    files.SampleOnly("NewWritableFile", "");
    files.SampleOnlyContaining("/map_");
    RunOptions options;
    options.env = &files;
    JobResult clean;
    ASSERT_TRUE(RunJob(spec, splits, options, &clean).ok());
    ASSERT_GT(appends, files.operations_seen())
        << "premise: a segment is appended to while its combine runs";
  }
  Random rng(2014);
  for (int draw = 0; draw < 4; ++draw) {
    const int fail_at =
        static_cast<int>(rng.Uniform(static_cast<uint64_t>(appends)));
    FaultyEnv env(NewMemEnv(), fail_at, /*fail_times=*/1);
    sample_map_appends(&env);
    RunOptions options;
    options.env = &env;
    options.max_task_attempts = 3;
    options.retry_backoff_nanos = 1000;
    JobResult result;
    const Status st = RunJob(spec, splits, options, &result);
    ASSERT_TRUE(st.ok()) << "fault at append " << fail_at
                         << " not survived: " << st.ToString();
    EXPECT_EQ(env.faults_injected(), 1) << "fault at append " << fail_at;
    EXPECT_EQ(engine::OutputMultisetHash(result.FlatOutput()), clean_hash)
        << "output diverged after retry, fault at append " << fail_at;
  }
}

// A worker whose local storage flakes transiently mid-job: the fault fails
// the task on that worker, the failure crosses the wire as the task's own
// Status, and the coordinator's retry layer re-places it. The cluster-level
// outcome must be byte-identical to a clean single-process run.
TEST(DistFaultInjection, DistributedJobRecoversFromWorkerStorageFlake) {
  workloads::RegisterStandardJobs();
  RandomTextConfig text_config;
  text_config.num_lines = 2000;
  text_config.seed = 3;
  const std::vector<KV> input = RandomTextGenerator(text_config).Generate();
  const net::JobParams params = {{"reduces", "3"}};

  JobSpec spec;
  ASSERT_TRUE(engine::BuildRegisteredJob("wordcount", params, &spec).ok());
  RunOptions run;
  run.collect_output = true;
  JobResult expected;
  ASSERT_TRUE(
      RunJob(spec, MakeSplits(input, 4), run, &expected).ok());

  std::unique_ptr<net::Transport> transport = net::NewLoopbackTransport();
  engine::Coordinator coord(transport.get());
  ASSERT_TRUE(coord.Start("").ok());

  FaultyEnv flaky(NewMemEnv(), /*fail_at=*/6, /*fail_times=*/1);
  engine::WorkerOptions flaky_options;
  flaky_options.name = "flaky";
  flaky_options.env = &flaky;
  engine::Worker flaky_worker(transport.get(), flaky_options);
  engine::Worker steady_worker(transport.get());
  ASSERT_TRUE(flaky_worker.Start(coord.addr()).ok());
  ASSERT_TRUE(steady_worker.Start(coord.addr()).ok());
  ASSERT_TRUE(coord.WaitForWorkers(2, 10ull * 1000 * 1000 * 1000));

  engine::DistJobOptions options;
  options.job_name = "wordcount";
  options.params = params;
  options.max_task_attempts = 4;
  options.retry_backoff_nanos = 1000;
  {
    const size_t per = (input.size() + 3) / 4;
    for (size_t start = 0; start < input.size(); start += per) {
      const size_t end = std::min(input.size(), start + per);
      options.splits.emplace_back(input.begin() + static_cast<long>(start),
                                  input.begin() + static_cast<long>(end));
    }
  }
  engine::DistJobResult result;
  const Status st = engine::RunDistributedJob(&coord, options, &result);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(flaky.faults_injected(), 1);
  EXPECT_EQ(result.FlatOutput(), expected.FlatOutput());

  coord.Stop();
  flaky_worker.Stop();
  steady_worker.Stop();
}

}  // namespace
}  // namespace antimr
