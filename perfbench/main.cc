// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <path>] [--corrupt-reference]
//
// One client submits one job at a time (a closed loop) for --seconds and
// checks every job's output multiset against a reference computed in set-up
// from the untransformed program. With --trace 0 it prints the end-to-end
// metrics; with --trace 1 it alternates untraced and traced jobs and prints
// the per-layer metrics, timed by the wrappers in wrappers.h. The last line
// of stdout is one JSON object with the result.
//
// Simulated hardware (disk/network throttles) and the program's own tracer
// stay off, so every number measures CPU and memory on this host.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "anticombine/transform.h"
#include "codec/codec.h"
#include "common/coding.h"
#include "common/random.h"
#include "datagen/cloud.h"
#include "datagen/qlog.h"
#include "datagen/random_text.h"
#include "engine/coordinator.h"
#include "engine/job_registry.h"
#include "engine/job_service.h"
#include "engine/worker.h"
#include "io/env.h"
#include "io/run_file.h"
#include "mr/job_runner.h"
#include "net/frame.h"
#include "net/transport.h"
#include "spans.h"
#include "workloads/query_suggestion.h"
#include "workloads/registry.h"
#include "workloads/sort.h"
#include "workloads/theta_join.h"
#include "wrappers.h"

namespace perfbench {
namespace {

using antimr::Env;
using antimr::InputSplit;
using antimr::IoStats;
using antimr::JobMetrics;
using antimr::JobSpec;
using antimr::KV;
using antimr::Status;
using antimr::anticombine::AntiCombineOptions;

// Worker threads of the local workloads. Task threads that fill every CPU
// make job times follow whatever else the host runs: on a 4-CPU host, one
// competing busy process slowed sort-gzip jobs by half with 4 workers and
// not measurably with 2.
constexpr int kLocalWorkers = 2;
constexpr int kMaps = 8;
constexpr int kReduces = 8;
// Set-up runs this many times per invocation; setup_s is the median.
constexpr int kSetups = 3;
constexpr int kWarmupJobs = 2;
constexpr const char* kTracedThetaJob = "perfbench_theta_join";

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank percentile `pct` of `v`, and how many samples lie above it.
struct Tail {
  double value = 0;
  size_t beyond = 0;
};
Tail Percentile(std::vector<double> v, double pct) {
  Tail t;
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(pct / 100.0 * v.size()));
  const size_t idx = rank == 0 ? 0 : rank - 1;
  t.value = v[idx];
  t.beyond = v.size() - 1 - idx;
  return t;
}

uint64_t ProcessCpuNs() {
  rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  auto ns = [](const timeval& tv) {
    return static_cast<uint64_t>(tv.tv_sec) * 1000000000ull +
           static_cast<uint64_t>(tv.tv_usec) * 1000ull;
  };
  return ns(ru.ru_utime) + ns(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

uint64_t DiskBytes(const Env& env) {
  const IoStats s = env.stats();
  return s.bytes_read + s.bytes_written;
}

std::vector<InputSplit> Splits(const std::vector<KV>& records) {
  return antimr::MakeSplits(records, kMaps);
}

std::vector<std::vector<KV>> SplitVectors(const std::vector<KV>& records) {
  std::vector<std::vector<KV>> chunks(kMaps);
  const size_t per = (records.size() + kMaps - 1) / kMaps;
  for (size_t i = 0; i < records.size(); ++i) {
    chunks[i / per].push_back(records[i]);
  }
  return chunks;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// `count` records drawn from `pool` without replacement (a seeded partial
/// Fisher-Yates shuffle).
std::vector<KV> Sample(std::vector<KV> pool, size_t count, uint64_t seed) {
  antimr::Random rng(seed);
  for (size_t i = 0; i < count; ++i) {
    std::swap(pool[i], pool[i + rng.Uniform(pool.size() - i)]);
  }
  pool.resize(count);
  return pool;
}

struct WorkloadDef {
  std::string name;
  bool distributed = false;
  /// Tail percentile reported as job_s.tail: the highest that leaves at
  /// least ten jobs above it in a 30-second run. Fixed per workload so that
  /// runs of different speed report the same percentile.
  double tail_pct = 75;
  std::function<std::vector<KV>(uint64_t seed)> generate;
  /// The untransformed program for `records` (the reference).
  std::function<JobSpec(const std::vector<KV>& records)> original;
  AntiCombineOptions anti_combine;
  /// Registered-builder params for the distributed run (theta_join only).
  std::function<antimr::net::JobParams(const std::vector<KV>& records)>
      dist_params;
};

void GridFor(const std::vector<KV>& records, int* rows, int* cols) {
  antimr::workloads::SizeGridForMemory(records.size(), 1000, rows, cols);
}

std::vector<WorkloadDef> Workloads() {
  std::vector<WorkloadDef> defs;

  WorkloadDef qs;
  qs.name = "qsuggest-prefix5";
  // The query population is fixed and the seed draws which 50 000 records of
  // a 200 000-record log the job sees. Drawing the population itself from
  // the seed moves the shuffle volume by about 10% between seeds, because
  // the most popular query alone is about a tenth of the log.
  qs.generate = [](uint64_t seed) {
    antimr::QLogConfig c;
    c.num_records = 200000;
    c.seed = 42;
    return Sample(antimr::QLogGenerator(c).Generate(), 50000, seed);
  };
  qs.original = [](const std::vector<KV>&) {
    antimr::workloads::QuerySuggestionConfig c;
    c.scheme = antimr::workloads::QuerySuggestionConfig::Scheme::kPrefix5;
    c.num_reduce_tasks = kReduces;
    return antimr::workloads::MakeQuerySuggestionJob(c);
  };
  // Below the largest reduce task's Shared working set, so Shared spills.
  qs.anti_combine.shared_memory_bytes = 1 << 20;
  defs.push_back(qs);

  WorkloadDef sort;
  sort.name = "sort-gzip";
  sort.generate = [](uint64_t seed) {
    antimr::RandomTextConfig c;
    c.num_lines = 120000;
    c.seed = seed;
    return antimr::RandomTextGenerator(c).Generate();
  };
  sort.original = [](const std::vector<KV>&) {
    antimr::workloads::SortConfig c;
    c.codec = antimr::CodecType::kGzip;
    c.num_reduce_tasks = kReduces;
    return antimr::workloads::MakeSortJob(c);
  };
  defs.push_back(sort);

  WorkloadDef theta;
  theta.name = "thetajoin-tcp";
  theta.distributed = true;
  theta.tail_pct = 90;
  theta.generate = [](uint64_t seed) {
    antimr::CloudConfig c;
    c.num_records = 6000;
    c.seed = seed;
    return antimr::CloudGenerator(c).Generate();
  };
  theta.original = [](const std::vector<KV>& records) {
    antimr::workloads::ThetaJoinConfig c;
    GridFor(records, &c.grid_rows, &c.grid_cols);
    c.num_reduce_tasks = kReduces;
    return antimr::workloads::MakeThetaJoinJob(c);
  };
  theta.dist_params = [](const std::vector<KV>& records) {
    int rows = 0, cols = 0;
    GridFor(records, &rows, &cols);
    return antimr::net::JobParams{{"reduces", std::to_string(kReduces)},
                                  {"grid_rows", std::to_string(rows)},
                                  {"grid_cols", std::to_string(cols)}};
  };
  defs.push_back(theta);
  return defs;
}

/// The builder a traced distributed job runs on every worker: the standard
/// theta_join spec, timed as in wrappers.h around the program's own
/// AdaptiveSH transform.
void RegisterTracedThetaJoin() {
  antimr::engine::RegisterJobBuilder(
      kTracedThetaJob,
      [](const std::map<std::string, std::string>& params, JobSpec* spec) {
        antimr::net::JobParams plain;
        for (const auto& [k, v] : params) {
          if (k != "anti_combine") plain.emplace_back(k, v);
        }
        JobSpec original;
        const Status st =
            antimr::engine::BuildRegisteredJob("theta_join", plain, &original);
        if (!st.ok()) return st;
        *spec = WrapAntiCombined(antimr::anticombine::EnableAntiCombining(
            WrapUserFunctions(original), AntiCombineOptions::Unrestricted()));
        return Status::OK();
      });
}

// ---------------------------------------------------------------------------
// Targets: where a job runs
// ---------------------------------------------------------------------------

struct JobRun {
  Status status;
  std::vector<std::vector<KV>> outputs;  ///< per reduce partition
  JobMetrics metrics;
};

class Target {
 public:
  virtual ~Target() = default;
  /// Submit one job and wait for its result. `traced` selects the wrapped
  /// program; it never changes what the job computes.
  virtual void Run(bool traced, JobRun* run) = 0;
  /// Cumulative bytes read + written on the benchmark-owned Envs.
  virtual uint64_t DiskBytes() const = 0;
};

class LocalTarget : public Target {
 public:
  LocalTarget(JobSpec plain, JobSpec traced, std::vector<InputSplit> splits)
      : plain_(std::move(plain)),
        traced_(std::move(traced)),
        splits_(std::move(splits)),
        env_(antimr::NewMemEnv()),
        timing_env_(NewTimingEnv(env_.get())) {}

  void Run(bool traced, JobRun* run) override {
    antimr::RunOptions options;
    options.num_workers = kLocalWorkers;
    options.env = traced ? timing_env_.get() : env_.get();
    antimr::JobResult result;
    run->status = antimr::RunJob(traced ? traced_ : plain_, splits_, options,
                                 &result);
    run->metrics = result.metrics;
    run->outputs = std::move(result.outputs);
  }
  uint64_t DiskBytes() const override { return perfbench::DiskBytes(*env_); }

 private:
  JobSpec plain_;
  JobSpec traced_;
  std::vector<InputSplit> splits_;
  std::unique_ptr<Env> env_;
  std::unique_ptr<Env> timing_env_;
};

/// Coordinator plus two in-process workers (two slots each) over TCP on
/// 127.0.0.1, brought up once and reused by every job. With one slot per
/// worker, fewer jobs fit in a run and the p90 job time spread 0.30 (IQR /
/// median) over ten seeds.
class ClusterTarget : public Target {
 public:
  static constexpr int kWorkers = 2;
  static constexpr int kSlotsPerWorker = 2;

  ClusterTarget(antimr::engine::DistJobOptions plain, bool trace_mode)
      : plain_(std::move(plain)), trace_mode_(trace_mode) {
    traced_ = plain_;
    traced_.job_name = kTracedThetaJob;
  }

  ~ClusterTarget() override {
    if (coord_ != nullptr) coord_->Stop();
    for (auto& w : workers_) w->Stop();
  }

  Status Start() {
    transport_ = antimr::net::NewTcpTransport();
    coord_ = std::make_unique<antimr::engine::Coordinator>(transport_.get());
    Status st = coord_->Start("127.0.0.1:0");
    if (!st.ok()) return st;
    for (int i = 0; i < kWorkers; ++i) {
      envs_.push_back(antimr::NewMemEnv());
      timing_envs_.push_back(NewTimingEnv(envs_.back().get()));
      antimr::engine::WorkerOptions options;
      options.name = "perfbench_w" + std::to_string(i);
      options.slots = kSlotsPerWorker;
      // The Env is fixed per worker, so a traced invocation gives every
      // worker the timing Env; it records nothing while spans are off.
      options.env =
          trace_mode_ ? timing_envs_.back().get() : envs_.back().get();
      workers_.push_back(
          std::make_unique<antimr::engine::Worker>(transport_.get(), options));
      st = workers_.back()->Start(coord_->addr(), "127.0.0.1:0");
      if (!st.ok()) return st;
    }
    if (!coord_->WaitForWorkers(kWorkers, 10ull * 1000 * 1000 * 1000)) {
      return Status::IOError("worker quorum timeout");
    }
    return Status::OK();
  }

  void Run(bool traced, JobRun* run) override {
    antimr::engine::DistJobResult result;
    run->status = antimr::engine::RunDistributedJob(
        coord_.get(), traced ? traced_ : plain_, &result);
    run->metrics = result.metrics;
    run->outputs = std::move(result.outputs);
  }

  uint64_t DiskBytes() const override {
    uint64_t sum = 0;
    for (const auto& env : envs_) sum += perfbench::DiskBytes(*env);
    return sum;
  }

 private:
  antimr::engine::DistJobOptions plain_;
  antimr::engine::DistJobOptions traced_;
  bool trace_mode_;
  std::unique_ptr<antimr::net::Transport> transport_;
  std::vector<std::unique_ptr<Env>> envs_;
  std::vector<std::unique_ptr<Env>> timing_envs_;
  std::unique_ptr<antimr::engine::Coordinator> coord_;
  std::vector<std::unique_ptr<antimr::engine::Worker>> workers_;
};

// ---------------------------------------------------------------------------
// One measured job
// ---------------------------------------------------------------------------

struct JobSample {
  bool traced = false;
  bool ok = false;
  uint32_t job = 0;
  uint64_t start_ns = 0;
  uint64_t wall_ns = 0;
  uint64_t cpu_ns = 0;
  uint64_t disk_bytes = 0;
  uint64_t wire_bytes = 0;
  uint64_t wire_frames = 0;
  JobMetrics metrics;
  Tally tally;  ///< span tallies of this job (traced jobs only)
  std::string error;
};

uint32_t g_next_job = 1;

JobSample RunMeasured(Target* target, bool traced, uint64_t reference_hash) {
  JobSample s;
  s.traced = traced;
  s.job = g_next_job++;
  const uint64_t span_id = NewSpanId();
  SetCurrentJob(s.job, span_id);
  const Tally tally0 = traced ? SnapshotTally() : Tally();
  const uint64_t disk0 = target->DiskBytes();
  const antimr::net::WireCounters wire0 = antimr::net::SnapshotWireCounters();
  const uint64_t cpu0 = ProcessCpuNs();
  SetEnabled(traced);
  s.start_ns = NowNs();

  JobRun run;
  target->Run(traced, &run);

  const uint64_t end_ns = NowNs();
  SetEnabled(false);
  s.cpu_ns = ProcessCpuNs() - cpu0;
  const antimr::net::WireCounters wire1 = antimr::net::SnapshotWireCounters();
  s.wall_ns = end_ns - s.start_ns;
  s.disk_bytes = target->DiskBytes() - disk0;
  s.wire_bytes = wire1.bytes_sent - wire0.bytes_sent;
  s.wire_frames = wire1.frames_sent - wire0.frames_sent;
  s.metrics = run.metrics;
  if (traced) {
    s.tally = SnapshotTally() - tally0;
    StoreSpan("engine.job", s.start_ns, end_ns, span_id, 0, s.job);
  }
  SetCurrentJob(0, 0);
  // The multiset hash is a sum over records, so partitions hash separately.
  uint64_t hash = 0;
  for (const std::vector<KV>& part : run.outputs) {
    hash += antimr::engine::OutputMultisetHash(part);
  }
  if (!run.status.ok()) {
    s.error = run.status.ToString();
  } else if (hash != reference_hash) {
    s.error = "output multiset hash differs from the reference";
  } else {
    s.ok = true;
  }
  return s;
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

struct Prepared {
  std::vector<KV> records;
  uint64_t input_bytes = 0;
  JobSpec transformed;
  uint64_t reference_hash = 0;
  std::unique_ptr<Target> target;
  double generate_s = 0;
  double setup_s = 0;
  std::vector<JobSample> warmup;
};

Status Prepare(const WorkloadDef& def, uint64_t seed, bool trace_mode,
               bool corrupt_reference, Prepared* p) {
  const uint64_t t0 = NowNs();
  p->records = def.generate(seed);
  p->generate_s = (NowNs() - t0) / 1e9;
  p->input_bytes = 0;
  for (const KV& kv : p->records) {
    p->input_bytes += kv.key.size() + kv.value.size();
  }

  const JobSpec original = def.original(p->records);
  p->transformed =
      antimr::anticombine::EnableAntiCombining(original, def.anti_combine);

  // Reference: the untransformed program, single-process.
  antimr::RunOptions ref_options;
  ref_options.num_workers = kLocalWorkers;
  antimr::JobResult ref;
  Status st = antimr::RunJob(original, Splits(p->records), ref_options, &ref);
  if (!st.ok()) return st;
  p->reference_hash = antimr::engine::OutputMultisetHash(ref.FlatOutput());
  if (corrupt_reference) p->reference_hash ^= 0x5a5a5a5a5a5a5a5aull;

  if (def.distributed) {
    antimr::engine::DistJobOptions options;
    options.job_name = "theta_join";
    options.params = def.dist_params(p->records);
    options.params.emplace_back("anti_combine", "adaptive");
    options.splits = SplitVectors(p->records);
    auto cluster = std::make_unique<ClusterTarget>(options, trace_mode);
    st = cluster->Start();
    if (!st.ok()) return st;
    p->target = std::move(cluster);
  } else {
    const JobSpec traced = WrapAntiCombined(antimr::anticombine::
        EnableAntiCombining(WrapUserFunctions(original), def.anti_combine));
    p->target = std::make_unique<LocalTarget>(p->transformed, traced,
                                              Splits(p->records));
  }
  for (int i = 0; i < kWarmupJobs; ++i) {
    p->warmup.push_back(
        RunMeasured(p->target.get(), false, p->reference_hash));
  }
  p->setup_s = (NowNs() - t0) / 1e9;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Replays for the codec, block-framing and net layers (traced runs only)
// ---------------------------------------------------------------------------

struct Replay {
  double compress_mb_s = 0;
  double decompress_mb_s = 0;
  double ratio = 0;
  double scan_mb_s = 0;
  uint64_t median_segment_bytes = 0;
  double frame_rtt_us = 0;
  double tcp_mb_s = 0;
};

/// Run the transformed job once more with intermediates kept, then time the
/// codec and the block reader over its map output segments.
Status ReplaySegments(const Prepared& p, Replay* out) {
  std::unique_ptr<Env> env = antimr::NewMemEnv();
  antimr::RunOptions options;
  options.num_workers = kLocalWorkers;
  options.env = env.get();
  options.cleanup_intermediates = false;
  options.collect_output = false;
  options.job_id = "replay";
  antimr::JobResult result;
  Status st =
      antimr::RunJob(p.transformed, Splits(p.records), options, &result);
  if (!st.ok()) return st;

  std::vector<std::string> names;
  st = env->ListFiles(&names);
  if (!st.ok()) return st;
  std::vector<std::string> segments;
  std::vector<double> sizes;
  for (const std::string& name : names) {
    if (name.find("/map_") == std::string::npos ||
        name.find("_spill_") != std::string::npos) {
      continue;
    }
    std::string data;
    st = antimr::ReadFileToString(env.get(), name, &data);
    if (!st.ok()) return st;
    sizes.push_back(static_cast<double>(data.size()));
    segments.push_back(std::move(data));
  }
  if (segments.empty()) return Status::NotFound("no map output segments");
  out->median_segment_bytes = static_cast<uint64_t>(Median(sizes));

  const antimr::Codec* codec = antimr::GetCodec(p.transformed.map_output_codec);
  const size_t block_bytes = p.transformed.shuffle_block_bytes;
  constexpr int kPasses = 3;
  constexpr size_t kMaxRawBlocks = 64;

  // Block framing: CRC check + decode + record parse, whole segments. The
  // first pass also rebuilds raw blocks for the codec replay.
  std::vector<std::string> raw_blocks(1);
  uint64_t stored = 0;
  std::vector<double> scan_s;
  for (int pass = 0; pass < kPasses; ++pass) {
    const uint64_t t0 = NowNs();
    for (const std::string& data : segments) {
      antimr::BlockRunReader reader(antimr::NewSliceSource(data), codec, {});
      st = reader.Open();
      while (st.ok() && reader.Valid()) {
        if (pass == 0 && raw_blocks.size() <= kMaxRawBlocks) {
          std::string& block = raw_blocks.back();
          antimr::PutVarint32(&block,
                              static_cast<uint32_t>(reader.key().size()));
          block.append(reader.key().data(), reader.key().size());
          antimr::PutVarint32(&block,
                              static_cast<uint32_t>(reader.value().size()));
          block.append(reader.value().data(), reader.value().size());
          if (block.size() >= block_bytes) raw_blocks.emplace_back();
        }
        st = reader.Next();
      }
      if (!st.ok()) return st;
      if (pass == 0) stored += data.size();
    }
    scan_s.push_back((NowNs() - t0) / 1e9);
  }
  out->scan_mb_s = stored / 1e6 / Median(scan_s);

  if (raw_blocks.back().empty()) raw_blocks.pop_back();
  uint64_t raw = 0, compressed_bytes = 0;
  for (const std::string& b : raw_blocks) raw += b.size();
  std::vector<std::string> compressed(raw_blocks.size());
  std::vector<double> comp_s, decomp_s;
  std::string scratch;
  for (int pass = 0; pass < kPasses; ++pass) {
    uint64_t t0 = NowNs();
    for (size_t i = 0; i < raw_blocks.size(); ++i) {
      st = codec->Compress(raw_blocks[i], &compressed[i]);
      if (!st.ok()) return st;
    }
    comp_s.push_back((NowNs() - t0) / 1e9);
    t0 = NowNs();
    for (const std::string& c : compressed) {
      st = codec->Decompress(c, &scratch);
      if (!st.ok()) return st;
    }
    decomp_s.push_back((NowNs() - t0) / 1e9);
  }
  for (const std::string& c : compressed) compressed_bytes += c.size();
  out->compress_mb_s = raw / 1e6 / Median(comp_s);
  out->decompress_mb_s = raw / 1e6 / Median(decomp_s);
  out->ratio = compressed_bytes == 0 ? 0 : static_cast<double>(raw) /
                                               compressed_bytes;
  return Status::OK();
}

/// Echo frames of the median segment size over TCP on 127.0.0.1.
Status ReplayFrames(Replay* out) {
  std::unique_ptr<antimr::net::Transport> tcp = antimr::net::NewTcpTransport();
  std::unique_ptr<antimr::net::Listener> listener;
  Status st = tcp->Listen("127.0.0.1:0", &listener);
  if (!st.ok()) return st;
  std::thread echo([&listener] {
    std::unique_ptr<antimr::net::Conn> conn;
    if (!listener->Accept(&conn).ok()) return;
    uint8_t type = 0;
    std::string payload;
    while (antimr::net::ReadFrame(conn.get(), &type, &payload).ok() &&
           antimr::net::WriteFrame(conn.get(), type, payload).ok()) {
    }
    conn->Close();
  });

  std::unique_ptr<antimr::net::Conn> conn;
  st = tcp->Dial(listener->addr(), &conn);
  std::vector<double> rtt_s;
  if (st.ok()) {
    const std::string payload(std::max<uint64_t>(out->median_segment_bytes, 1),
                              'x');
    std::string reply;
    uint8_t type = 0;
    const uint64_t deadline = NowNs() + 500ull * 1000 * 1000;
    for (int i = 0; i < 1000 && st.ok(); ++i) {
      const uint64_t t0 = NowNs();
      st = antimr::net::WriteFrame(conn.get(), 0x7f, payload);
      if (st.ok()) st = antimr::net::ReadFrame(conn.get(), &type, &reply);
      if (i >= 5) rtt_s.push_back((NowNs() - t0) / 1e9);  // after warm-up
      if (i >= 50 && NowNs() > deadline) break;
    }
    conn->Close();
  }
  listener->Close();
  echo.join();
  if (!st.ok()) return st;
  const double rtt = Median(rtt_s);
  out->frame_rtt_us = rtt * 1e6;
  out->tcp_mb_s = 2.0 * out->median_segment_bytes / 1e6 / rtt;
  return Status::OK();
}

/// Job wall time covered by no task or io span: scheduling, dispatch and
/// fetch waits.
double IdleSeconds(const JobSample& job, const std::vector<StoredSpan>& spans) {
  const uint64_t lo = job.start_ns, hi = job.start_ns + job.wall_ns;
  std::vector<std::pair<uint64_t, uint64_t>> iv;
  for (const StoredSpan& s : spans) {
    if (s.job != job.job || s.name == "engine.job") continue;
    const uint64_t a = std::max(lo, s.start_ns), b = std::min(hi, s.end_ns);
    if (a < b) iv.emplace_back(a, b);
  }
  std::sort(iv.begin(), iv.end());
  uint64_t covered = 0, cur_a = 0, cur_b = 0;
  for (const auto& [a, b] : iv) {
    if (a > cur_b) {
      covered += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
    } else {
      cur_b = std::max(cur_b, b);
    }
  }
  covered += cur_b - cur_a;
  return (job.wall_ns - covered) / 1e9;
}

// ---------------------------------------------------------------------------
// Result
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
};

struct Checks {
  std::vector<std::string> failures;
  void Expect(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

/// Every sample must agree with the first on `field`.
void ExpectRepeats(Checks* checks, const std::vector<const JobSample*>& jobs,
                   const char* name,
                   const std::function<uint64_t(const JobSample&)>& field) {
  for (const JobSample* j : jobs) {
    if (field(*j) != field(*jobs.front())) {
      checks->failures.push_back(std::string(name) + " differs between jobs: " +
                                 std::to_string(field(*jobs.front())) + " vs " +
                                 std::to_string(field(*j)));
      return;
    }
  }
}

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-34s %16.6f %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buf[128];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, ",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    json += buf;
    json += "\"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out = "perfbench-trace.json";
  bool corrupt_reference = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-reference") {
      args->corrupt_reference = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty();
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <path>] [--corrupt-reference]\n");
    return 2;
  }
  const std::vector<WorkloadDef> defs = Workloads();
  const WorkloadDef* def = nullptr;
  for (const WorkloadDef& d : defs) {
    if (d.name == args.workload) def = &d;
  }
  if (def == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  antimr::workloads::RegisterStandardJobs();
  RegisterTracedThetaJoin();

  // ---- set-up, several times; the last one is kept ------------------------
  std::vector<double> setup_s, generate_s;
  std::vector<JobSample> warmups;
  uint64_t reference_hash = 0;
  Prepared p;
  for (int i = 0; i < kSetups; ++i) {
    p = Prepared();
    const Status st =
        Prepare(*def, args.seed, args.trace, args.corrupt_reference, &p);
    if (!st.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
      return 1;
    }
    if (i > 0 && p.reference_hash != reference_hash) {
      std::fprintf(stderr, "reference output differs between set-ups\n");
      return 1;
    }
    reference_hash = p.reference_hash;
    setup_s.push_back(p.setup_s);
    generate_s.push_back(p.generate_s);
    warmups.insert(warmups.end(), p.warmup.begin(), p.warmup.end());
  }
  std::printf("workload %s seed %llu: %zu input records, %.3f MB, "
              "reference hash %016llx\n",
              def->name.c_str(), static_cast<unsigned long long>(args.seed),
              p.records.size(), p.input_bytes / 1e6,
              static_cast<unsigned long long>(reference_hash));

  // ---- the timed closed loop ----------------------------------------------
  std::vector<JobSample> jobs;
  const uint64_t loop_start = NowNs();
  const uint64_t deadline =
      loop_start + static_cast<uint64_t>(args.seconds * 1e9);
  // A traced run measures at least one untraced and one traced job.
  while (NowNs() < deadline || (args.trace && jobs.size() < 2)) {
    const bool traced = args.trace && jobs.size() % 2 == 1;
    jobs.push_back(RunMeasured(p.target.get(), traced, reference_hash));
    if (!jobs.back().ok) {
      std::printf("job %u failed: %s\n", jobs.back().job,
                  jobs.back().error.c_str());
    }
  }
  const double loop_s = (NowNs() - loop_start) / 1e9;

  size_t failed = 0;
  std::vector<const JobSample*> untraced, traced;
  for (const JobSample& j : jobs) {
    if (!j.ok) ++failed;
    (j.traced ? traced : untraced).push_back(&j);
  }
  Checks checks;
  checks.Expect(failed == 0, std::to_string(failed) + " of " +
                                 std::to_string(jobs.size()) + " jobs failed");

  // ---- checks: deterministic counts and workload premises -----------------
  std::vector<const JobSample*> every;
  for (const JobSample& j : warmups) every.push_back(&j);
  for (const JobSample& j : jobs) every.push_back(&j);
  if (!def->distributed) {
    ExpectRepeats(&checks, every, "shuffle_bytes",
                  [](const JobSample& j) { return j.metrics.shuffle_bytes; });
    ExpectRepeats(&checks, every, "disk bytes",
                  [](const JobSample& j) { return j.disk_bytes; });
    ExpectRepeats(&checks, every, "shared_spills",
                  [](const JobSample& j) { return j.metrics.shared_spills; });
    ExpectRepeats(&checks, every, "map_spills",
                  [](const JobSample& j) { return j.metrics.map_spills; });
    if (!traced.empty()) {
      ExpectRepeats(&checks, traced, "workloads.map_calls",
                    [](const JobSample& j) { return j.tally.calls[kUserMap]; });
    }
  }
  for (const JobSample* j : every) {
    const JobMetrics& m = j->metrics;
    if (!j->ok) continue;
    if (def->name == "qsuggest-prefix5") {
      checks.Expect(m.shared_spills > 0, "qsuggest: Shared never spilled");
    }
    if (def->name == "sort-gzip") {
      checks.Expect(m.plain_records == m.input_records,
                    "sort: not every map output record is flagged-plain");
      checks.Expect(!j->traced || j->tally.calls[kUserMap] == m.input_records,
                    "sort: workloads.map_calls != input records");
    }
    if (def->distributed) {
      checks.Expect(j->wire_bytes > m.shuffle_bytes,
                    "thetajoin: wire bytes do not exceed shuffle bytes");
    } else {
      checks.Expect(j->wire_bytes >= m.shuffle_bytes &&
                        j->wire_bytes < m.shuffle_bytes * 1.05 + 65536,
                    "local: wire traffic is not just the loopback shuffle");
    }
  }

  std::vector<Metric> metrics;
  auto values = [](const std::vector<const JobSample*>& js,
                   const std::function<double(const JobSample&)>& f) {
    std::vector<double> v;
    for (const JobSample* j : js) v.push_back(f(*j));
    return v;
  };
  auto wall_s = [](const JobSample& j) { return j.wall_ns / 1e9; };

  if (!args.trace) {
    const std::vector<double> wall = values(untraced, wall_s);
    auto median = [&](const std::function<double(const JobSample&)>& f) {
      return Median(values(untraced, f));
    };
    const Tail tail = Percentile(wall, def->tail_pct);
    char note[80];
    std::snprintf(note, sizeof(note), "(p%g of %zu jobs, %zu above)",
                  def->tail_pct, wall.size(), tail.beyond);
    metrics.push_back({"job_s.p50", Median(wall), "s", ""});
    metrics.push_back({"job_s.tail", tail.value, "s", note});
    metrics.push_back({"input_mb_per_s",
                       jobs.size() * (p.input_bytes / 1e6) / loop_s, "MB/s",
                       ""});
    metrics.push_back(
        {"cpu_s_per_job",
         median([](const JobSample& j) { return j.cpu_ns / 1e9; }), "s", ""});
    metrics.push_back({"shuffle_mb_per_job", median([](const JobSample& j) {
                         return j.metrics.shuffle_bytes / 1e6;
                       }),
                       "MB", ""});
    metrics.push_back(
        {"disk_mb_per_job",
         median([](const JobSample& j) { return j.disk_bytes / 1e6; }), "MB",
         ""});
    metrics.push_back(
        {"wire_mb_per_job",
         median([](const JobSample& j) { return j.wire_bytes / 1e6; }), "MB",
         ""});
    metrics.push_back({"peak_rss_mb", PeakRssMb(), "MB", ""});
    metrics.push_back({"setup_s", Median(setup_s), "s",
                       "(median of " + std::to_string(kSetups) + ")"});
    metrics.push_back({"ok_frac",
                       jobs.empty() ? 0.0
                                    : static_cast<double>(jobs.size() - failed) /
                                          jobs.size(),
                       "ratio", ""});
  } else {
    // Sums over the traced jobs.
    Tally t;
    JobMetrics m;
    uint64_t cpu = 0, wire = 0, frames = 0;
    for (const JobSample* j : traced) {
      t += j->tally;
      m.Add(j->metrics);
      cpu += j->cpu_ns;
      wire += j->wire_bytes;
      frames += j->wire_frames;
    }
    const double n = std::max<size_t>(traced.size(), 1);
    auto per_job_s = [&](int kind) { return t.self_ns[kind] / n / 1e9; };
    const double other_cpu_s =
        (static_cast<double>(cpu) - static_cast<double>(t.LayerSelfNs())) /
        n / 1e9;

    // Reconciliation: self times are exclusive, and together they claim no
    // more than the process CPU of the traced jobs. Spans are timed in wall
    // clock on their thread, so a thread preempted inside a span overstates
    // its layer; 25% of the CPU is allowed for that, far below the overlap
    // of the program's own phase counters.
    checks.Expect(t.AllSelfNs() == t.root_ns,
                  "span self times do not sum to outermost span time");
    checks.Expect(other_cpu_s >= -0.25 * cpu / n / 1e9,
                  "layer self times exceed the process CPU of traced jobs");

    Replay replay;
    Status st = ReplaySegments(p, &replay);
    if (st.ok()) st = ReplayFrames(&replay);
    checks.Expect(st.ok(), "replay failed: " + st.ToString());

    const std::vector<StoredSpan> spans = StoredSpans();
    std::vector<double> idle;
    for (const JobSample* j : traced) idle.push_back(IdleSeconds(*j, spans));
    const double traced_p50 = Median(values(traced, wall_s));
    const double untraced_p50 = Median(values(untraced, wall_s));
    const double overhead = untraced_p50 > 0 ? traced_p50 / untraced_p50 : 0;

    metrics = {
        {"datagen.generate_s", Median(generate_s), "s", ""},
        {"workloads.map_calls", t.calls[kUserMap] / n, "count", ""},
        {"workloads.map_s", per_job_s(kUserMap), "s", ""},
        {"workloads.partition_calls", t.calls[kUserPartition] / n, "count",
         ""},
        {"workloads.partition_s", per_job_s(kUserPartition), "s", ""},
        {"workloads.reduce_calls", t.calls[kUserReduce] / n, "count", ""},
        {"workloads.reduce_s", per_job_s(kUserReduce), "s", ""},
        {"anticombine.map_self_s", per_job_s(kAcMap), "s", ""},
        {"anticombine.reduce_self_s", per_job_s(kAcReduce), "s", ""},
        {"anticombine.remap_per_input",
         m.input_records == 0
             ? 0.0
             : static_cast<double>(t.remap_calls) / m.input_records,
         "ratio", ""},
        {"anticombine.emitted_per_map_output",
         m.map_output_records == 0
             ? 0.0
             : static_cast<double>(m.emitted_records) / m.map_output_records,
         "ratio", ""},
        {"anticombine.shared_spills", m.shared_spills / n, "count", ""},
        {"io.write_mb", t.io_write_bytes / n / 1e6, "MB", ""},
        {"io.read_mb", t.io_read_bytes / n / 1e6, "MB", ""},
        {"io.write_s", per_job_s(kIoWrite), "s", ""},
        {"io.read_s", per_job_s(kIoRead), "s", ""},
        {"io.files", t.io_files / n, "count", ""},
        {"codec.compress_mb_s", replay.compress_mb_s, "MB/s", ""},
        {"codec.decompress_mb_s", replay.decompress_mb_s, "MB/s", ""},
        {"codec.ratio", replay.ratio, "ratio", ""},
        {"io.segment_scan_mb_s", replay.scan_mb_s, "MB/s", ""},
        {"mr.other_cpu_s", other_cpu_s, "s", ""},
        {"mr.map_spills", m.map_spills / n, "count", ""},
        {"engine.job_s", traced_p50, "s", ""},
        {"engine.idle_s", Median(idle), "s", ""},
        {"net.bytes_sent", wire / n, "bytes", ""},
        {"net.frames_sent", frames / n, "count", ""},
        {"net.shuffle_share",
         wire == 0 ? 0.0 : static_cast<double>(m.shuffle_bytes) / wire, "ratio",
         ""},
        {"net.frame_rtt_us", replay.frame_rtt_us, "us", ""},
        {"net.tcp_mb_s", replay.tcp_mb_s, "MB/s", ""},
        {"bench.traced_cpu_s", cpu / n / 1e9, "s", ""},
        {"bench.trace_overhead", overhead, "ratio", ""},
    };

    char overhead_text[32];
    std::snprintf(overhead_text, sizeof(overhead_text), "%.4f", overhead);
    if (WriteChromeTrace(args.trace_out, spans,
                         {{"workload", def->name},
                          {"seed", std::to_string(args.seed)},
                          {"bench.trace_overhead", overhead_text}})) {
      std::printf("wrote %zu spans to %s (bench.trace_overhead %s: traced "
                  "job_s.p50 / untraced job_s.p50)\n",
                  spans.size(), args.trace_out.c_str(), overhead_text);
    } else {
      checks.failures.push_back("cannot write " + args.trace_out);
    }
  }

  for (const std::string& f : checks.failures) {
    std::printf("check failed: %s\n", f.c_str());
  }
  PrintResult(checks.failures.empty(), jobs.size(), failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
