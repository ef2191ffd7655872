// antimr_cli — command-line driver for the library: run any built-in
// workload under any strategy and print the full metrics breakdown, or
// compare the compression codecs.
//
// Usage:
//   antimr_cli run --workload=qsuggest --strategy=adaptive --records=50000
//       [--strategy=original|eager|lazy|adaptive]
//       [--threshold-us=N] [--window=N] [--c-flag=0|1]
//       [--codec=none|snappy|deflate|gzip|bzip2]
//       [--maps=N] [--reduces=N] [--seed=N]
//       [--disk-mbps=N --net-mbps=N]   (simulated hardware)
//       [--partitioner=hash|prefix1|prefix5]   (qsuggest only)
//   antimr_cli pipeline --records=50000 [--stage1-strategy=eager]
//       [--stage2-strategy=lazy]   (wordcount -> sort DAG)
//   antimr_cli codecs [--size=BYTES]
//   antimr_cli help
#include <sys/stat.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "antimr.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "engine/coordinator.h"
#include "engine/job_registry.h"
#include "engine/job_service.h"
#include "engine/remote_runner.h"
#include "engine/skew_runner.h"
#include "engine/worker.h"
#include "net/frame.h"
#include "net/transport.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "datagen/cloud.h"
#include "datagen/graph.h"
#include "datagen/qlog.h"
#include "datagen/random_text.h"
#include "tools/flags.h"
#include "workloads/pagerank.h"
#include "workloads/query_suggestion.h"
#include "workloads/registry.h"
#include "workloads/sort.h"
#include "workloads/theta_join.h"
#include "workloads/wordcount.h"

namespace antimr {
namespace tools {
namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  antimr_cli run --workload=qsuggest|wordcount|pagerank|thetajoin|"
      "sort [options]\n"
      "  antimr_cli pipeline [options]      wordcount -> sort two-stage DAG\n"
      "  antimr_cli codecs [--size=BYTES]\n"
      "  antimr_cli worker --connect=HOST:PORT [--slots=N] [--name=S]\n"
      "                                     join a distributed cluster\n"
      "  antimr_cli status --connect=HOST:PORT [--endpoint=status|metrics]\n"
      "                                     scrape a live coordinator\n"
      "  antimr_cli serve [serve options]   persistent multi-tenant job\n"
      "                                     daemon (see 'serve options')\n"
      "  antimr_cli submit --connect=HOST:PORT --workload=W [--pool=P]\n"
      "                    [--wait] [run options]   submit a job to a daemon\n"
      "  antimr_cli jobs --connect=HOST:PORT        list a daemon's job table\n"
      "  antimr_cli abort --connect=HOST:PORT --job=ID\n"
      "options:\n"
      "  --strategy=original|eager|lazy|adaptive   (default adaptive)\n"
      "pipeline options:\n"
      "  --stage1-strategy=original|eager|lazy|adaptive  (default eager)\n"
      "  --stage2-strategy=original|eager|lazy|adaptive  (default lazy)\n"
      "  --threshold-us=N      lazy cost threshold T in microseconds\n"
      "  --window=N            cross-call sharing window (default 1)\n"
      "  --c-flag=0|1          map-phase combiner flag C (default 1)\n"
      "  --codec=none|snappy|deflate|gzip|bzip2    (default none)\n"
      "  --records=N --maps=N --reduces=N --seed=N\n"
      "  --disk-mbps=N --net-mbps=N   simulated hardware (default off)\n"
      "  --max-task-attempts=N total executions allowed per task; N>1\n"
      "                        retries transient (I/O) task failures with\n"
      "                        capped exponential backoff (default 1)\n"
      "  --json                dump metrics as a JSON object\n"
      "  --output-hash         collect the output and print a stable,\n"
      "                        order-insensitive hash (identical across\n"
      "                        partitioner choices and process layouts)\n"
      "  --partitioner=hash|prefix1|prefix5        (qsuggest)\n"
      "  --partitioner=hash|range  sampled range partitioning for the other\n"
      "                        workloads (local and --dist runs)\n"
      "  --hot-key-split       with range: salt sampled superfrequent keys\n"
      "                        across reducers + a deterministic merge\n"
      "                        fix-up stage (output multiset unchanged)\n"
      "  --sample-per-split=N --hot-key-fraction=F --hot-fanout=N\n"
      "  --sample-seed=N       sampling-pass knobs (defaults 256/0.10/\n"
      "                        reduces/fixed)\n"
      "distributed run (wordcount, sort, thetajoin):\n"
      "  --dist=off|loopback|tcp   off (default) runs single-process;\n"
      "                        loopback runs coordinator + in-process\n"
      "                        workers over the in-memory transport; tcp\n"
      "                        listens for external `antimr_cli worker`\n"
      "                        processes on real sockets\n"
      "  --workers=N           worker quorum to wait for / spawn (default 2)\n"
      "  --listen=HOST:PORT    coordinator bind address (tcp; default\n"
      "                        127.0.0.1:0 = ephemeral, printed on stdout)\n"
      "  --wait-workers-ms=N   registration quorum timeout (default 30000)\n"
      "  --heartbeat-timeout-ms=N  declare a silent worker lost (default "
      "2000)\n"
      "  --status-listen=HOST:PORT  serve GET /status (JSON cluster view:\n"
      "                        workers, liveness, slots, in-flight counts)\n"
      "                        and /metrics (cluster-federated Prometheus\n"
      "                        text) over HTTP (default off; =127.0.0.1:0\n"
      "                        for ephemeral)\n"
      "  --cluster-trace=FILE  capture spans on every node and write one\n"
      "                        merged Chrome/Perfetto trace (a pid lane per\n"
      "                        process, flow arrows for dispatch + shuffle)\n"
      "  --gate-file=PATH      after the worker quorum, wait for PATH to\n"
      "                        exist before submitting the job (lets scripts\n"
      "                        probe /status first)\n"
      "  --speculation         launch backup attempts for straggler tasks;\n"
      "                        first finisher wins, the loser is cancelled\n"
      "                        and its partial output scrubbed\n"
      "  --speculation-slowness=F   straggler threshold: F x the median\n"
      "                        completed duration of the kind (default 2.0)\n"
      "  --speculation-force-after-ms=N  test override: speculate after\n"
      "                        exactly N ms, ignoring the adaptive baseline\n"
      "serve options:\n"
      "  --dist=tcp|loopback   transport (default tcp; loopback is\n"
      "                        in-process only, for tests)\n"
      "  --listen=HOST:PORT    coordinator bind address for workers\n"
      "                        (default 127.0.0.1:0)\n"
      "  --job-listen=HOST:PORT  job-submission RPC bind address\n"
      "                        (default 127.0.0.1:0, printed on stdout)\n"
      "  --status-listen=HOST:PORT  /status (cluster view), /metrics and\n"
      "                        /jobs (the job table: state and task\n"
      "                        progress per job) over HTTP\n"
      "  --workers=N           worker quorum before dispatch (default 2)\n"
      "  --local-workers=0|1   spawn the quorum in-process (default 1;\n"
      "                        0 = wait for external `antimr_cli worker`)\n"
      "  --pools=SPEC          comma-separated pools, each\n"
      "                        name:weight[:cpu-slots[:max-jobs[:mem-mb]]]\n"
      "                        (0 = unlimited; default one unlimited pool)\n"
      "  --max-concurrent-jobs=N  running jobs across pools (default 8)\n"
      "  --max-queued-jobs=N   queue cap; over it submits are rejected\n"
      "                        with ResourceExhausted (default 64)\n"
      "  --default-cpu-slots=N dispatch slots granted when a submission\n"
      "                        doesn't ask (default 2)\n"
      "  --heartbeat-timeout-ms=N  declare a silent worker lost "
      "(default 2000)\n"
      "  --speculation         speculative execution for submitted jobs\n"
      "                        (a submission carries no speculation\n"
      "                        field; default off)\n"
      "  --ready-file=PATH     write the resolved addresses (coord=, jobs=,\n"
      "                        status=) once serving, for scripts\n"
      "submit options (plus the run input flags --records/--maps/...):\n"
      "  --connect=HOST:PORT   daemon job-RPC address (required)\n"
      "  --pool=NAME           target pool (default: the daemon's first)\n"
      "  --cpu-slots=N         dispatch-slot ask (default: daemon default)\n"
      "  --memory-mb=N         admission memory estimate\n"
      "  --wait                block until terminal; prints state +\n"
      "                        output_hash, exit 0 only on success\n"
      "worker options:\n"
      "  --connect=HOST:PORT   coordinator address (required)\n"
      "  --slots=N             concurrent task slots (default 2)\n"
      "  --name=S              worker name for logs (default worker)\n"
      "  --heartbeat-ms=N      heartbeat period (default 100)\n"
      "observability (any command):\n"
      "  --trace=FILE          write a Chrome/Perfetto trace (chrome://tracing"
      ",\n"
      "                        ui.perfetto.dev) of the run to FILE\n"
      "  --metrics=FILE        dump the process metrics registry; *.json gets"
      "\n"
      "                        JSON, anything else Prometheus text format\n"
      "  --top-tasks=N         print the N most expensive tasks (default 5)\n");
  return 2;
}

Status BuildJob(const Flags& flags, JobSpec* spec,
                std::vector<InputSplit>* splits, uint64_t records,
                int maps) {
  const std::string workload = flags.GetString("workload", "qsuggest");
  const uint64_t seed = flags.GetUint("seed", 42);
  const auto codec = CodecTypeFromName(flags.GetString("codec", "none"));
  if (!codec.ok()) return codec.status();
  const int reduces = static_cast<int>(flags.GetUint("reduces", 8));

  if (workload == "qsuggest") {
    QLogConfig qc;
    qc.num_records = records;
    qc.seed = seed;
    *splits = QLogGenerator(qc).MakeSplits(maps);
    workloads::QuerySuggestionConfig cfg;
    const std::string scheme = flags.GetString("partitioner", "hash");
    using Scheme = workloads::QuerySuggestionConfig::Scheme;
    cfg.scheme = scheme == "prefix1"   ? Scheme::kPrefix1
                 : scheme == "prefix5" ? Scheme::kPrefix5
                                       : Scheme::kHash;
    cfg.with_combiner = flags.GetBool("combiner", false);
    cfg.codec = codec.value();
    cfg.num_reduce_tasks = reduces;
    *spec = workloads::MakeQuerySuggestionJob(cfg);
    return Status::OK();
  }
  if (workload == "wordcount") {
    RandomTextConfig rc;
    rc.num_lines = records;
    rc.seed = seed;
    *splits = RandomTextGenerator(rc).MakeSplits(maps);
    workloads::WordCountConfig cfg;
    cfg.with_combiner = flags.GetBool("combiner", true);
    cfg.codec = codec.value();
    cfg.num_reduce_tasks = reduces;
    *spec = workloads::MakeWordCountJob(cfg);
    return Status::OK();
  }
  if (workload == "sort") {
    RandomTextConfig rc;
    rc.num_lines = records;
    rc.seed = seed;
    *splits = RandomTextGenerator(rc).MakeSplits(maps);
    workloads::SortConfig cfg;
    cfg.codec = codec.value();
    cfg.num_reduce_tasks = reduces;
    *spec = workloads::MakeSortJob(cfg);
    return Status::OK();
  }
  if (workload == "thetajoin") {
    CloudConfig cc;
    cc.num_records = records;
    cc.seed = seed;
    *splits = CloudGenerator(cc).MakeSplits(maps);
    workloads::ThetaJoinConfig cfg;
    workloads::SizeGridForMemory(records,
                                 flags.GetUint("region-records", 1000),
                                 &cfg.grid_rows, &cfg.grid_cols);
    cfg.codec = codec.value();
    cfg.num_reduce_tasks = reduces;
    *spec = workloads::MakeThetaJoinJob(cfg);
    return Status::OK();
  }
  return Status::InvalidArgument("unknown workload: " + workload);
}

int DistRunCommand(const Flags& flags, const std::string& mode);
Status BuildDistJob(const Flags& flags, uint64_t records, int maps,
                    engine::DistJobOptions* dist);
Status WriteTextFile(const std::string& path, const std::string& body);

SkewSampleOptions ParseSampleFlags(const Flags& flags) {
  SkewSampleOptions sample;
  sample.sample_per_split =
      flags.GetUint("sample-per-split", sample.sample_per_split);
  sample.hot_key_min_fraction =
      flags.GetDouble("hot-key-fraction", sample.hot_key_min_fraction);
  sample.hot_fanout =
      static_cast<int>(flags.GetUint("hot-fanout", sample.hot_fanout));
  sample.seed = flags.GetUint("sample-seed", sample.seed);
  return sample;
}

/// The skew plan of `run --partitioner=range [--hot-key-split]`, local or
/// distributed: sample the registered job `dist` describes and build one
/// range-partitioned stage, or the split1 -> merge fix-up chain when hot
/// keys were found and splitting is on. Moves the records out of `dist`.
Status BuildSkewPlan(const Flags& flags, engine::DistJobOptions* dist,
                     engine::JobPlan* plan, std::string* output,
                     SkewModel* model) {
  std::vector<InputSplit> splits;
  for (std::vector<KV>& records : dist->splits) {
    splits.push_back(MakeSplit(std::move(records)));
  }
  engine::SkewPlanOptions skew;
  skew.sample = ParseSampleFlags(flags);
  skew.hot_key_split = flags.GetBool("hot-key-split", false);
  return engine::MakeSkewPlan(dist->job_name, dist->params, std::move(splits),
                              skew, plan, output, model);
}

/// `run --partitioner=range` for the registered workloads on the Executor.
int SkewRunCommand(const Flags& flags, const RunOptions& run) {
  workloads::RegisterStandardJobs();
  engine::DistJobOptions dist;
  Status st = BuildDistJob(flags, flags.GetUint("records", 20000),
                           static_cast<int>(flags.GetUint("maps", 8)), &dist);
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return Usage();
  }
  engine::JobPlan plan;
  std::string output;
  SkewModel model;
  st = BuildSkewPlan(flags, &dist, &plan, &output, &model);
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  engine::ExecutorOptions exec_options;
  exec_options.num_workers = run.num_workers;
  exec_options.hardware = run.hardware;
  exec_options.max_task_attempts = run.max_task_attempts;
  exec_options.collect_outputs = flags.Has("output-hash");
  engine::Executor executor(exec_options);
  engine::PlanResult result;
  st = executor.Run(plan, &result);
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("partitioner=range strategy=%s hot_keys=%zu split=%d "
              "stages=%zu\n",
              flags.GetString("strategy", "adaptive").c_str(),
              model.hot_keys.size(), result.stages.size() > 1 ? 1 : 0,
              result.stages.size());
  if (flags.Has("output-hash")) {
    const std::vector<KV> flat = result.FlatOutput(output);
    std::printf("output_hash=%016llx output_records=%zu\n",
                static_cast<unsigned long long>(
                    engine::OutputMultisetHash(flat)),
                flat.size());
  }
  if (flags.GetBool("json", false)) {
    std::printf("%s\n", result.metrics.ToJson().c_str());
    return 0;
  }
  std::printf("\n%s", result.metrics.ToString().c_str());
  return 0;
}

int RunCommand(const Flags& flags) {
  const uint64_t records = flags.GetUint("records", 20000);
  const int maps = static_cast<int>(flags.GetUint("maps", 8));
  const std::string workload = flags.GetString("workload", "qsuggest");

  const std::string dist = flags.GetString("dist", "off");
  if (dist == "loopback" || dist == "tcp") return DistRunCommand(flags, dist);
  if (dist != "off") {
    std::fprintf(stderr, "error: unknown dist mode %s\n", dist.c_str());
    return Usage();
  }

  anticombine::AntiCombineOptions options;
  if (flags.Has("threshold-us")) {
    options.lazy_threshold_nanos = flags.GetUint("threshold-us", 0) * 1000;
  }
  options.cross_call_window =
      static_cast<int>(flags.GetUint("window", 1));
  options.map_phase_combiner = flags.GetBool("c-flag", true);

  const std::string strategy = flags.GetString("strategy", "adaptive");

  RunOptions run;
  run.collect_output = flags.Has("output-hash");
  run.hardware.disk_mb_per_s = flags.GetDouble("disk-mbps", 0);
  run.hardware.network_mb_per_s = flags.GetDouble("net-mbps", 0);
  run.collect_task_metrics = flags.Has("top-tasks");
  run.max_task_attempts =
      static_cast<int>(flags.GetUint("max-task-attempts", 1));

  // PageRank is iterative: one multi-stage plan, a stage per iteration.
  if (workload == "pagerank") {
    GraphConfig gc;
    gc.num_nodes = records;
    gc.seed = flags.GetUint("seed", 42);
    workloads::PageRankConfig cfg;
    cfg.num_nodes = gc.num_nodes;
    cfg.num_reduce_tasks = static_cast<int>(flags.GetUint("reduces", 8));
    const int iterations = static_cast<int>(flags.GetUint("iterations", 5));
    const anticombine::AntiCombineOptions* anti =
        strategy == "original" ? nullptr : &options;
    engine::ExecutorOptions exec_options;
    exec_options.num_workers = run.num_workers;
    exec_options.hardware = run.hardware;
    exec_options.max_task_attempts = run.max_task_attempts;
    engine::Executor executor(exec_options);
    workloads::PageRankRunResult result;
    engine::PlanResult plan_result;
    const Status st = workloads::RunPageRank(
        cfg, GraphGenerator(gc).Generate(), iterations, anti, maps, &result,
        &executor, &plan_result);
    if (!st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("stages=%zu stage_overlap=%s\n", plan_result.stages.size(),
                FormatNanos(plan_result.stage_overlap_nanos).c_str());
    std::printf("%s", result.total.ToString().c_str());
    return 0;
  }

  // --partitioner=range runs the skew plan of the registered job. qsuggest
  // keeps its own meaning for the flag (hash|prefix1|prefix5 key schemes).
  if (workload != "qsuggest" &&
      flags.GetString("partitioner", "hash") == "range") {
    return SkewRunCommand(flags, run);
  }

  JobSpec spec;
  std::vector<InputSplit> splits;
  Status st = BuildJob(flags, &spec, &splits, records, maps);
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return Usage();
  }

  if (strategy == "eager") {
    options.lazy_threshold_nanos = 0;
    spec = anticombine::EnableAntiCombining(spec, options);
  } else if (strategy == "lazy") {
    options.force_lazy = true;
    spec = anticombine::EnableAntiCombining(spec, options);
  } else if (strategy == "adaptive") {
    spec = anticombine::EnableAntiCombining(spec, options);
  } else if (strategy != "original") {
    std::fprintf(stderr, "error: unknown strategy %s\n", strategy.c_str());
    return Usage();
  }

  JobResult result;
  st = RunJob(spec, splits, run, &result);
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  if (flags.Has("output-hash")) {
    const std::vector<KV> flat = result.FlatOutput();
    std::printf("output_hash=%016llx output_records=%zu\n",
                static_cast<unsigned long long>(
                    engine::OutputMultisetHash(flat)),
                flat.size());
  }
  if (flags.GetBool("json", false)) {
    std::printf("%s\n", result.metrics.ToJson().c_str());
    return 0;
  }
  std::printf("workload=%s strategy=%s records=%llu maps=%d\n\n",
              workload.c_str(), strategy.c_str(),
              static_cast<unsigned long long>(records), maps);
  std::printf("%s", result.metrics.ToString().c_str());
  if (flags.Has("top-tasks")) {
    std::printf("\n%s",
                TopTasksReport(result.task_metrics,
                               flags.GetUint("top-tasks", 5))
                    .c_str());
  }
  return 0;
}

/// Per-stage knob for the pipeline command: "--stageN-strategy" picks the
/// Anti-Combining mode.
Status ParseStageOptions(const Flags& flags, const std::string& prefix,
                         const std::string& default_strategy,
                         engine::StageOptions* out) {
  const std::string strategy =
      flags.GetString(prefix + "-strategy", default_strategy);
  if (strategy == "eager") {
    out->anti_combine = true;
    out->anti_combine_options.lazy_threshold_nanos = 0;
  } else if (strategy == "lazy") {
    out->anti_combine = true;
    out->anti_combine_options.force_lazy = true;
  } else if (strategy == "adaptive") {
    out->anti_combine = true;
  } else if (strategy != "original") {
    return Status::InvalidArgument("unknown strategy " + strategy);
  }
  return Status::OK();
}

/// wordcount -> sort as one two-stage plan: stage 1 counts words, stage 2
/// re-sorts the counts through the framework shuffle. The default knobs are
/// the paper-flavored mix: EagerSH on the aggregation stage, LazySH on the
/// re-sort stage.
int PipelineCommand(const Flags& flags) {
  const uint64_t records = flags.GetUint("records", 20000);
  const int maps = static_cast<int>(flags.GetUint("maps", 8));
  const int reduces = static_cast<int>(flags.GetUint("reduces", 8));
  const auto codec = CodecTypeFromName(flags.GetString("codec", "none"));
  if (!codec.ok()) {
    std::fprintf(stderr, "error: %s\n", codec.status().ToString().c_str());
    return Usage();
  }

  RandomTextConfig rc;
  rc.num_lines = records;
  rc.seed = flags.GetUint("seed", 42);

  engine::JobPlan plan;
  plan.name = "wordcount_sort";
  Status st = plan.AddInput("lines", RandomTextGenerator(rc).MakeSplits(maps));

  workloads::WordCountConfig wc_cfg;
  wc_cfg.with_combiner = flags.GetBool("combiner", true);
  wc_cfg.codec = codec.value();
  wc_cfg.num_reduce_tasks = reduces;
  engine::Stage count_stage;
  count_stage.name = "wordcount";
  count_stage.spec = workloads::MakeWordCountJob(wc_cfg);
  count_stage.inputs = {"lines"};
  count_stage.output = "counts";
  if (st.ok()) st = ParseStageOptions(flags, "stage1", "eager",
                                      &count_stage.options);
  plan.AddStage(std::move(count_stage));

  workloads::SortConfig sort_cfg;
  sort_cfg.codec = codec.value();
  sort_cfg.num_reduce_tasks = reduces;
  engine::Stage sort_stage;
  sort_stage.name = "sort";
  sort_stage.spec = workloads::MakeSortJob(sort_cfg);
  sort_stage.inputs = {"counts"};
  sort_stage.output = "sorted";
  if (st.ok()) st = ParseStageOptions(flags, "stage2", "lazy",
                                      &sort_stage.options);
  plan.AddStage(std::move(sort_stage));
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return Usage();
  }

  engine::ExecutorOptions exec_options;
  exec_options.num_workers = static_cast<int>(flags.GetUint("workers", 0));
  exec_options.hardware.disk_mb_per_s = flags.GetDouble("disk-mbps", 0);
  exec_options.hardware.network_mb_per_s = flags.GetDouble("net-mbps", 0);
  exec_options.collect_task_metrics = flags.Has("top-tasks");
  exec_options.max_task_attempts =
      static_cast<int>(flags.GetUint("max-task-attempts", 1));
  engine::Executor executor(exec_options);
  engine::PlanResult result;
  st = executor.Run(plan, &result);
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }

  if (flags.GetBool("json", false)) {
    std::printf("{\"stage_overlap_nanos\": %llu, \"stages\": [",
                static_cast<unsigned long long>(result.stage_overlap_nanos));
    for (size_t i = 0; i < result.stages.size(); ++i) {
      std::printf("%s{\"name\": \"%s\", \"metrics\": %s}", i > 0 ? ", " : "",
                  result.stages[i].name.c_str(),
                  result.stages[i].metrics.ToJson().c_str());
    }
    std::printf("], \"total\": %s}\n", result.metrics.ToJson().c_str());
    return 0;
  }

  std::printf("pipeline=wordcount->sort records=%llu maps=%d reduces=%d\n",
              static_cast<unsigned long long>(records), maps, reduces);
  for (const engine::StageResult& stage : result.stages) {
    std::printf(
        "stage %-10s wall=%-10s cpu=%-10s shuffle=%-10s out_records=%llu\n",
        stage.name.c_str(), FormatNanos(stage.metrics.wall_nanos).c_str(),
        FormatNanos(stage.metrics.total_cpu_nanos).c_str(),
        FormatBytes(stage.metrics.shuffle_bytes).c_str(),
        static_cast<unsigned long long>(stage.metrics.output_records));
  }
  std::printf("stage_overlap=%s\n\n",
              FormatNanos(result.stage_overlap_nanos).c_str());
  std::printf("%s", result.metrics.ToString().c_str());
  if (flags.Has("top-tasks")) {
    const size_t top_n = flags.GetUint("top-tasks", 5);
    for (const engine::StageResult& stage : result.stages) {
      std::printf("\nstage %s:\n%s", stage.name.c_str(),
                  TopTasksReport(stage.tasks, top_n).c_str());
    }
  }
  return 0;
}

int CodecsCommand(const Flags& flags) {
  const size_t size = flags.GetUint("size", 4 * 1024 * 1024);
  Random rng(7);
  static const char* words[] = {"data", "record", "shuffle", "network",
                                "reduce", "value", "cluster", "key"};
  std::string corpus;
  corpus.reserve(size);
  while (corpus.size() < size) {
    corpus += words[rng.Uniform(8)];
    corpus.push_back(' ');
  }
  std::printf("%-14s %12s %10s %14s %14s\n", "codec", "compressed", "ratio",
              "compress", "decompress");
  for (CodecType type :
       {CodecType::kSnappyLike, CodecType::kDeflateLike, CodecType::kGzip,
        CodecType::kBzip2Like}) {
    const Codec* codec = GetCodec(type);
    std::string compressed, restored;
    uint64_t t0 = NowNanos();
    ANTIMR_CHECK_OK(codec->Compress(corpus, &compressed));
    const uint64_t compress_nanos = NowNanos() - t0;
    t0 = NowNanos();
    ANTIMR_CHECK_OK(codec->Decompress(compressed, &restored));
    const uint64_t decompress_nanos = NowNanos() - t0;
    ANTIMR_CHECK_OK(restored == corpus
                        ? Status::OK()
                        : Status::Corruption("round-trip mismatch"));
    std::printf("%-14s %12s %9.2fx %14s %14s\n", codec->name(),
                FormatBytes(compressed.size()).c_str(),
                static_cast<double>(corpus.size()) /
                    static_cast<double>(compressed.size()),
                FormatNanos(compress_nanos).c_str(),
                FormatNanos(decompress_nanos).c_str());
  }
  return 0;
}

/// Chunk `records` exactly like MakeSplits (mr/types.cc) so distributed map
/// inputs match the single-process splits record-for-record.
std::vector<std::vector<KV>> ChunkRecords(std::vector<KV> records,
                                          int num_splits) {
  std::vector<std::vector<KV>> chunks;
  if (num_splits <= 0) num_splits = 1;
  const size_t n = records.size();
  const size_t per = (n + num_splits - 1) / static_cast<size_t>(num_splits);
  size_t start = 0;
  while (start < n) {
    const size_t end = std::min(n, start + per);
    chunks.emplace_back(
        std::make_move_iterator(records.begin() + static_cast<long>(start)),
        std::make_move_iterator(records.begin() + static_cast<long>(end)));
    start = end;
  }
  if (chunks.empty()) chunks.emplace_back();
  return chunks;
}

/// Translate the run command's flags into a registered-job name, its
/// JobParams, and the input splits. The params mirror what BuildJob
/// configures locally, strategy knobs included, so `--dist=loopback` and
/// `--dist=off` execute the same job over the same input.
Status BuildDistJob(const Flags& flags, uint64_t records, int maps,
                    engine::DistJobOptions* dist) {
  const std::string workload = flags.GetString("workload", "qsuggest");
  const uint64_t seed = flags.GetUint("seed", 42);
  const std::string codec = flags.GetString("codec", "none");
  const std::string reduces = std::to_string(flags.GetUint("reduces", 8));

  if (workload == "wordcount") {
    RandomTextConfig rc;
    rc.num_lines = records;
    rc.seed = seed;
    dist->job_name = "wordcount";
    dist->splits = ChunkRecords(RandomTextGenerator(rc).Generate(), maps);
    dist->params = {{"reduces", reduces},
                    {"codec", codec},
                    {"combiner", flags.GetBool("combiner", true) ? "1" : "0"}};
  } else if (workload == "sort") {
    RandomTextConfig rc;
    rc.num_lines = records;
    rc.seed = seed;
    dist->job_name = "sort";
    dist->splits = ChunkRecords(RandomTextGenerator(rc).Generate(), maps);
    dist->params = {{"reduces", reduces}, {"codec", codec}};
  } else if (workload == "thetajoin") {
    CloudConfig cc;
    cc.num_records = records;
    cc.seed = seed;
    dist->job_name = "theta_join";
    dist->splits = ChunkRecords(CloudGenerator(cc).Generate(), maps);
    int grid_rows = 0, grid_cols = 0;
    workloads::SizeGridForMemory(records,
                                 flags.GetUint("region-records", 1000),
                                 &grid_rows, &grid_cols);
    dist->params = {{"reduces", reduces},
                    {"codec", codec},
                    {"grid_rows", std::to_string(grid_rows)},
                    {"grid_cols", std::to_string(grid_cols)}};
  } else {
    return Status::InvalidArgument("workload " + workload +
                                   " is not registered for --dist mode");
  }

  const std::string strategy = flags.GetString("strategy", "adaptive");
  if (strategy != "original") {
    if (strategy != "eager" && strategy != "lazy" && strategy != "adaptive") {
      return Status::InvalidArgument("unknown strategy " + strategy);
    }
    dist->params.emplace_back("anti_combine", strategy);
    if (flags.Has("threshold-us")) {
      dist->params.emplace_back(
          "lazy_threshold_nanos",
          std::to_string(flags.GetUint("threshold-us", 0) * 1000));
    }
    if (flags.Has("window")) {
      dist->params.emplace_back("cross_call_window",
                                std::to_string(flags.GetUint("window", 1)));
    }
    if (flags.Has("c-flag")) {
      dist->params.emplace_back("map_phase_combiner",
                                flags.GetBool("c-flag", true) ? "1" : "0");
    }
  }
  return Status::OK();
}

/// `run --dist=loopback|tcp`: bring up a Coordinator (plus in-process
/// workers in loopback mode), wait for the worker quorum, and drive the job
/// through RunDistributedJob — or, with --partitioner=range, run its skew
/// plan on a RemoteRunner.
int DistRunCommand(const Flags& flags, const std::string& mode) {
  workloads::RegisterStandardJobs();
  SetLogNodeLabel("coord");
  const uint64_t records = flags.GetUint("records", 20000);
  const int maps = static_cast<int>(flags.GetUint("maps", 8));
  const int workers = static_cast<int>(flags.GetUint("workers", 2));

  const std::string cluster_trace_file = flags.GetString("cluster-trace", "");
  if (!cluster_trace_file.empty()) {
    if (!obs::kTraceCompiled) {
      std::fprintf(stderr,
                   "warning: built with ANTIMR_TRACE=OFF; "
                   "the cluster trace will contain no events\n");
    }
    obs::Tracer::Global().Start();
  }

  engine::DistJobOptions dist;
  Status st = BuildDistJob(flags, records, maps, &dist);
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return Usage();
  }
  dist.network_mb_per_s = flags.GetDouble("net-mbps", 0);
  dist.max_task_attempts =
      static_cast<int>(flags.GetUint("max-task-attempts", 3));
  dist.collect_outputs = true;
  dist.speculative_execution = flags.GetBool("speculation", false);
  dist.speculation_slowness_factor = flags.GetDouble(
      "speculation-slowness", dist.speculation_slowness_factor);
  if (flags.Has("speculation-force-after-ms")) {
    dist.speculation_force_after_nanos =
        flags.GetUint("speculation-force-after-ms", 0) * 1000000ull;
  }

  std::unique_ptr<net::Transport> transport =
      mode == "tcp" ? net::NewTcpTransport() : net::NewLoopbackTransport();
  engine::CoordinatorOptions coord_options;
  coord_options.heartbeat_timeout_nanos =
      flags.GetUint("heartbeat-timeout-ms", 2000) * 1000000ull;
  engine::Coordinator coord(transport.get(), coord_options);
  st = coord.Start(flags.GetString("listen", ""));
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("coordinator listening at %s\n", coord.addr().c_str());
  std::fflush(stdout);
  if (flags.Has("status-listen")) {
    st = coord.StartStatusServer(flags.GetString("status-listen", ""));
    if (!st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("status listening at %s\n", coord.status_addr().c_str());
    std::fflush(stdout);
  }

  std::vector<std::unique_ptr<engine::Worker>> local_workers;
  if (mode == "loopback") {
    for (int i = 0; i < workers; ++i) {
      engine::WorkerOptions worker_options;
      worker_options.name = "worker" + std::to_string(i);
      worker_options.slots = static_cast<int>(flags.GetUint("slots", 2));
      local_workers.push_back(
          std::make_unique<engine::Worker>(transport.get(), worker_options));
      st = local_workers.back()->Start(coord.addr());
      if (!st.ok()) {
        std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
        return 1;
      }
    }
  }
  const uint64_t wait_ms = flags.GetUint("wait-workers-ms", 30000);
  if (!coord.WaitForWorkers(workers, wait_ms * 1000000ull)) {
    std::fprintf(stderr, "error: timed out waiting for %d workers\n",
                 workers);
    return 1;
  }
  const std::string gate_file = flags.GetString("gate-file", "");
  if (!gate_file.empty()) {
    struct ::stat gate_stat;
    const uint64_t gate_deadline = NowNanos() + wait_ms * 1000000ull;
    while (::stat(gate_file.c_str(), &gate_stat) != 0) {
      if (NowNanos() >= gate_deadline) {
        std::fprintf(stderr, "error: timed out waiting for gate file %s\n",
                     gate_file.c_str());
        return 1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }

  const bool range = flags.GetString("partitioner", "hash") == "range";
  const size_t maps_run = dist.splits.size();
  const net::WireCounters wire_before = net::SnapshotWireCounters();
  engine::DistJobResult result;
  SkewModel model;
  size_t stages = 1;
  if (range) {
    // The skew plan runs on the remote runner; sampling happens here.
    engine::JobPlan plan;
    std::string output;
    st = BuildSkewPlan(flags, &dist, &plan, &output, &model);
    if (st.ok()) {
      stages = plan.stages().size();
      st = engine::RemoteRunner(&coord, dist).Run(plan, &result);
    }
  } else {
    st = RunDistributedJob(&coord, dist, &result);
  }
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  const net::WireCounters wire_after = net::SnapshotWireCounters();

  std::printf("workload=%s dist=%s workers=%d maps=%zu records=%llu\n",
              flags.GetString("workload", "qsuggest").c_str(), mode.c_str(),
              workers, maps_run,
              static_cast<unsigned long long>(records));
  std::printf("wire_bytes_sent=%llu wire_bytes_received=%llu "
              "map_reruns=%llu\n",
              static_cast<unsigned long long>(wire_after.bytes_sent -
                                              wire_before.bytes_sent),
              static_cast<unsigned long long>(wire_after.bytes_received -
                                              wire_before.bytes_received),
              static_cast<unsigned long long>(result.map_reruns));
  if (range) {
    std::printf("partitioner=range hot_keys=%zu split=%d\n",
                model.hot_keys.size(), stages > 1 ? 1 : 0);
  }
  if (dist.speculative_execution) {
    std::printf("spec_backups=%llu spec_backup_wins=%llu spec_cancels=%llu\n",
                static_cast<unsigned long long>(result.spec_backups),
                static_cast<unsigned long long>(result.spec_backup_wins),
                static_cast<unsigned long long>(result.spec_cancels));
  }
  if (flags.Has("output-hash")) {
    const std::vector<KV> flat = result.FlatOutput();
    std::printf("output_hash=%016llx output_records=%zu\n",
                static_cast<unsigned long long>(
                    engine::OutputMultisetHash(flat)),
                flat.size());
  }
  if (flags.GetBool("json", false)) {
    std::printf("%s\n", result.metrics.ToJson().c_str());
  } else {
    std::printf("\n%s", result.metrics.ToString().c_str());
  }
  // Coordinator first: its Stop sends Shutdown, so in-process workers wind
  // down cleanly instead of being declared lost when their conns close.
  coord.Stop();
  for (auto& worker : local_workers) worker->Stop();
  if (!cluster_trace_file.empty()) {
    obs::Tracer::Global().Stop();
    const Status wt = coord.WriteClusterTrace(cluster_trace_file);
    if (!wt.ok()) {
      std::fprintf(stderr, "error writing cluster trace: %s\n",
                   wt.ToString().c_str());
      return 1;
    }
    std::printf("cluster trace written to %s\n", cluster_trace_file.c_str());
  }
  return 0;
}

/// `antimr_cli worker`: the body of one worker process. Dials the
/// coordinator, serves tasks until the coordinator sends Shutdown or the
/// connection drops, then exits.
int WorkerCommand(const Flags& flags) {
  const std::string connect = flags.GetString("connect", "");
  if (connect.empty()) {
    std::fprintf(stderr, "error: worker requires --connect=HOST:PORT\n");
    return Usage();
  }
  workloads::RegisterStandardJobs();
  SetLogNodeLabel("worker");
  std::unique_ptr<net::Transport> transport = net::NewTcpTransport();
  engine::WorkerOptions options;
  options.name = flags.GetString("name", "worker");
  options.slots = static_cast<int>(flags.GetUint("slots", 2));
  options.heartbeat_period_nanos =
      flags.GetUint("heartbeat-ms", 100) * 1000000ull;
  options.exclusive_process = true;
  engine::Worker worker(transport.get(), options);
  const Status st =
      worker.Start(connect, flags.GetString("shuffle-listen", ""));
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  SetLogNodeLabel("w" + std::to_string(worker.id()));
  std::printf("worker %s registered as %u, shuffle at %s\n",
              options.name.c_str(), worker.id(), worker.shuffle_addr().c_str());
  std::fflush(stdout);
  worker.WaitDone();
  worker.Stop();
  return 0;
}

/// `antimr_cli status --connect=HOST:PORT`: scrape a live coordinator's
/// status surface and print the body verbatim (machine-consumable).
int StatusCommand(const Flags& flags) {
  const std::string connect = flags.GetString("connect", "");
  if (connect.empty()) {
    std::fprintf(stderr, "error: status requires --connect=HOST:PORT\n");
    return Usage();
  }
  const std::string endpoint = flags.GetString("endpoint", "status");
  if (endpoint != "status" && endpoint != "metrics") {
    std::fprintf(stderr, "error: unknown endpoint %s\n", endpoint.c_str());
    return Usage();
  }
  std::unique_ptr<net::Transport> transport = net::NewTcpTransport();
  std::string body;
  const Status st =
      net::HttpGet(transport.get(), connect, "/" + endpoint, &body);
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  std::fwrite(body.data(), 1, body.size(), stdout);
  return 0;
}

// --- multi-tenant job service commands -----------------------------------

std::atomic<bool> g_serve_stop{false};
void HandleServeSignal(int) { g_serve_stop.store(true); }

/// Parse --pools=name:weight[:cpu-slots[:max-jobs[:mem-mb]]],... into the
/// service options. Zero fields mean unlimited, matching PoolConfig.
Status ParsePoolsFlag(const std::string& spec,
                      std::vector<engine::PoolConfig>* pools) {
  size_t start = 0;
  while (start <= spec.size()) {
    size_t end = spec.find(',', start);
    if (end == std::string::npos) end = spec.size();
    const std::string entry = spec.substr(start, end - start);
    start = end + 1;
    if (entry.empty()) continue;
    engine::PoolConfig cfg;
    char name[64] = {0};
    double weight = 1.0;
    int slots = 0, jobs = 0;
    unsigned long long mem_mb = 0;
    const int n = std::sscanf(entry.c_str(), "%63[^:]:%lf:%d:%d:%llu", name,
                              &weight, &slots, &jobs, &mem_mb);
    if (n < 1 || weight <= 0 || slots < 0 || jobs < 0) {
      return Status::InvalidArgument("bad pool spec: " + entry);
    }
    cfg.name = name;
    cfg.weight = weight;
    cfg.cpu_slots_quota = slots;
    cfg.max_running_jobs = jobs;
    cfg.memory_quota_bytes = mem_mb << 20;
    pools->push_back(std::move(cfg));
  }
  if (pools->empty()) return Status::InvalidArgument("empty --pools spec");
  return Status::OK();
}

/// `antimr_cli serve`: the persistent daemon. Coordinator + JobService on
/// one transport, optional in-process worker quorum, runs until SIGINT or
/// SIGTERM.
int ServeCommand(const Flags& flags) {
  workloads::RegisterStandardJobs();
  SetLogNodeLabel("serve");
  const std::string mode = flags.GetString("dist", "tcp");
  if (mode != "tcp" && mode != "loopback") {
    std::fprintf(stderr, "error: unknown dist mode %s\n", mode.c_str());
    return Usage();
  }
  const bool tcp = mode == "tcp";
  std::unique_ptr<net::Transport> transport =
      tcp ? net::NewTcpTransport() : net::NewLoopbackTransport();

  engine::CoordinatorOptions coord_options;
  coord_options.heartbeat_timeout_nanos =
      flags.GetUint("heartbeat-timeout-ms", 2000) * 1000000ull;
  engine::Coordinator coord(transport.get(), coord_options);
  Status st =
      coord.Start(flags.GetString("listen", tcp ? "127.0.0.1:0" : ""));
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("coordinator listening at %s\n", coord.addr().c_str());
  std::fflush(stdout);

  engine::JobServiceOptions sopts;
  if (flags.Has("pools")) {
    st = ParsePoolsFlag(flags.GetString("pools", ""), &sopts.pools);
    if (!st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      return Usage();
    }
  }
  const int workers = static_cast<int>(flags.GetUint("workers", 2));
  sopts.max_concurrent_jobs =
      static_cast<int>(flags.GetUint("max-concurrent-jobs", 8));
  sopts.max_queued_jobs =
      static_cast<int>(flags.GetUint("max-queued-jobs", 64));
  sopts.default_cpu_slots =
      static_cast<int>(flags.GetUint("default-cpu-slots", 2));
  sopts.min_workers = static_cast<int>(flags.GetUint("min-workers", 1));
  sopts.speculative_execution = flags.GetBool("speculation", false);
  engine::JobService service(&coord, sopts);
  service.AttachStatusEndpoint();
  st = service.Serve(flags.GetString("job-listen", tcp ? "127.0.0.1:0" : ""));
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("job service listening at %s\n", service.serve_addr().c_str());
  std::fflush(stdout);
  if (flags.Has("status-listen")) {
    st = coord.StartStatusServer(flags.GetString("status-listen", ""));
    if (!st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("status listening at %s\n", coord.status_addr().c_str());
    std::fflush(stdout);
  }

  std::vector<std::unique_ptr<engine::Worker>> local_workers;
  if (flags.GetBool("local-workers", true)) {
    for (int i = 0; i < workers; ++i) {
      engine::WorkerOptions worker_options;
      worker_options.name = "worker" + std::to_string(i);
      worker_options.slots = static_cast<int>(flags.GetUint("slots", 2));
      local_workers.push_back(
          std::make_unique<engine::Worker>(transport.get(), worker_options));
      st = local_workers.back()->Start(coord.addr());
      if (!st.ok()) {
        std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
        return 1;
      }
    }
  }
  const uint64_t wait_ms = flags.GetUint("wait-workers-ms", 30000);
  if (workers > 0 && !coord.WaitForWorkers(workers, wait_ms * 1000000ull)) {
    std::fprintf(stderr, "error: timed out waiting for %d workers\n",
                 workers);
    return 1;
  }
  std::printf("serving %d workers\n", workers);
  std::fflush(stdout);

  const std::string ready_file = flags.GetString("ready-file", "");
  if (!ready_file.empty()) {
    const Status wt = WriteTextFile(
        ready_file, "coord=" + coord.addr() + "\njobs=" +
                        service.serve_addr() + "\nstatus=" +
                        coord.status_addr() + "\n");
    if (!wt.ok()) {
      std::fprintf(stderr, "error: %s\n", wt.ToString().c_str());
      return 1;
    }
  }

  std::signal(SIGINT, HandleServeSignal);
  std::signal(SIGTERM, HandleServeSignal);
  while (!g_serve_stop.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::printf("shutting down\n");
  service.Stop();
  coord.Stop();
  for (auto& worker : local_workers) worker->Stop();
  return 0;
}

/// Render one job-table row the same way everywhere (jobs, submit --wait).
void PrintJobRow(const net::JobStatusWire& row) {
  std::printf("job=%s pool=%s name=%s state=%s maps=%llu/%llu "
              "reduces=%llu/%llu",
              row.job_id.c_str(), row.pool.c_str(), row.job_name.c_str(),
              row.state.c_str(),
              static_cast<unsigned long long>(row.maps_done),
              static_cast<unsigned long long>(row.maps_total),
              static_cast<unsigned long long>(row.reduces_done),
              static_cast<unsigned long long>(row.reduces_total));
  if (row.state == "queued") {
    std::printf(" queue_position=%u", row.queue_position);
  }
  if (row.state == "succeeded") {
    std::printf(" output_hash=%016llx output_records=%llu wall_ms=%llu",
                static_cast<unsigned long long>(row.output_hash),
                static_cast<unsigned long long>(row.output_records),
                static_cast<unsigned long long>(
                    (row.finish_nanos - row.submit_nanos) / 1000000ull));
  } else if (!row.status_msg.empty()) {
    std::printf(" error=%s", row.status_msg.c_str());
  }
  std::printf(" start_ns=%llu finish_ns=%llu\n",
              static_cast<unsigned long long>(row.start_nanos),
              static_cast<unsigned long long>(row.finish_nanos));
}

/// `antimr_cli submit`: build a workload's splits locally, ship them to a
/// serve daemon, optionally wait for the terminal state.
int SubmitCommand(const Flags& flags) {
  const std::string connect = flags.GetString("connect", "");
  if (connect.empty()) {
    std::fprintf(stderr, "error: submit requires --connect=HOST:PORT\n");
    return Usage();
  }
  const uint64_t records = flags.GetUint("records", 20000);
  const int maps = static_cast<int>(flags.GetUint("maps", 8));
  engine::DistJobOptions dist;
  Status st = BuildDistJob(flags, records, maps, &dist);
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return Usage();
  }

  net::SubmitJobMsg msg;
  msg.pool = flags.GetString("pool", "");
  msg.job_name = dist.job_name;
  msg.params = std::move(dist.params);
  msg.job_id = flags.GetString("job-id", "");
  msg.cpu_slots = static_cast<uint32_t>(flags.GetUint("cpu-slots", 0));
  msg.memory_bytes = flags.GetUint("memory-mb", 0) << 20;
  msg.max_task_attempts =
      static_cast<uint32_t>(flags.GetUint("max-task-attempts", 0));
  msg.network_mb_per_s = flags.GetDouble("net-mbps", 0);
  msg.collect_output = true;
  msg.splits.resize(dist.splits.size());
  for (size_t m = 0; m < dist.splits.size(); ++m) {
    net::EncodeKVList(dist.splits[m], &msg.splits[m]);
  }

  std::unique_ptr<net::Transport> transport = net::NewTcpTransport();
  engine::JobServiceClient client(transport.get(), connect);
  std::string job_id;
  st = client.Submit(msg, &job_id);
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("job=%s submitted\n", job_id.c_str());
  std::fflush(stdout);
  if (!flags.GetBool("wait", false)) return 0;

  for (;;) {
    net::JobStatusWire row;
    st = client.GetStatus(job_id, &row);
    if (!st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      return 1;
    }
    if (row.state == "succeeded" || row.state == "failed" ||
        row.state == "aborted") {
      PrintJobRow(row);
      return row.state == "succeeded" ? 0 : 1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

/// `antimr_cli jobs`: print a daemon's whole job table, submit order.
int JobsCommand(const Flags& flags) {
  const std::string connect = flags.GetString("connect", "");
  if (connect.empty()) {
    std::fprintf(stderr, "error: jobs requires --connect=HOST:PORT\n");
    return Usage();
  }
  std::unique_ptr<net::Transport> transport = net::NewTcpTransport();
  engine::JobServiceClient client(transport.get(), connect);
  std::vector<net::JobStatusWire> rows;
  const Status st = client.List(&rows);
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  for (const net::JobStatusWire& row : rows) PrintJobRow(row);
  std::printf("total=%zu\n", rows.size());
  return 0;
}

/// `antimr_cli abort`: abort one job on a serve daemon.
int AbortCommand(const Flags& flags) {
  const std::string connect = flags.GetString("connect", "");
  const std::string job_id = flags.GetString("job", "");
  if (connect.empty() || job_id.empty()) {
    std::fprintf(stderr,
                 "error: abort requires --connect=HOST:PORT and --job=ID\n");
    return Usage();
  }
  std::unique_ptr<net::Transport> transport = net::NewTcpTransport();
  engine::JobServiceClient client(transport.get(), connect);
  const Status st = client.Abort(job_id);
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("job=%s abort requested\n", job_id.c_str());
  return 0;
}

/// Write `body` to `path`, mirroring Tracer::WriteJson's error convention.
Status WriteTextFile(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot open " + path);
  const size_t written = std::fwrite(body.data(), 1, body.size(), f);
  const int close_rc = std::fclose(f);
  if (written != body.size() || close_rc != 0) {
    return Status::IOError("short write to " + path);
  }
  return Status::OK();
}

int Dispatch(const Flags& flags, const std::string& command) {
  if (command == "run") return RunCommand(flags);
  if (command == "pipeline") return PipelineCommand(flags);
  if (command == "codecs") return CodecsCommand(flags);
  if (command == "worker") return WorkerCommand(flags);
  if (command == "status") return StatusCommand(flags);
  if (command == "serve") return ServeCommand(flags);
  if (command == "submit") return SubmitCommand(flags);
  if (command == "jobs") return JobsCommand(flags);
  if (command == "abort") return AbortCommand(flags);
  return Usage();
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  if (flags.positional().empty()) return Usage();

  const std::string trace_file = flags.GetString("trace", "");
  if (!trace_file.empty()) {
    if (!obs::kTraceCompiled) {
      std::fprintf(stderr,
                   "warning: built with ANTIMR_TRACE=OFF; "
                   "the trace will contain no events\n");
    }
    obs::Tracer::Global().Start();
  }

  int rc = Dispatch(flags, flags.positional()[0]);

  // Sinks are written even after a failed command: a partial trace is
  // exactly what you want when diagnosing the failure.
  if (!trace_file.empty()) {
    obs::Tracer::Global().Stop();
    const Status st = obs::Tracer::Global().WriteJson(trace_file);
    if (!st.ok()) {
      std::fprintf(stderr, "error writing trace: %s\n", st.ToString().c_str());
      if (rc == 0) rc = 1;
    }
  }
  const std::string metrics_file = flags.GetString("metrics", "");
  if (!metrics_file.empty()) {
    const bool json = metrics_file.size() >= 5 &&
                      metrics_file.compare(metrics_file.size() - 5, 5,
                                           ".json") == 0;
    const Status st = WriteTextFile(
        metrics_file, json ? obs::MetricsRegistry::Global().ToJson()
                           : obs::MetricsRegistry::Global().ToPrometheusText());
    if (!st.ok()) {
      std::fprintf(stderr, "error writing metrics: %s\n",
                   st.ToString().c_str());
      if (rc == 0) rc = 1;
    }
  }
  return rc;
}

}  // namespace
}  // namespace tools
}  // namespace antimr

int main(int argc, char** argv) { return antimr::tools::Main(argc, argv); }
