#include "net/wire.h"

#include <cstring>

#include "common/coding.h"

namespace antimr {
namespace net {

namespace {

Status Malformed(const char* what) {
  return Status::IOError(std::string("malformed wire message: ") + what);
}

void PutString(std::string* out, const std::string& s) {
  PutLengthPrefixed(out, Slice(s));
}

bool GetString(Slice* in, std::string* s) {
  Slice v;
  if (!GetLengthPrefixed(in, &v)) return false;
  s->assign(v.data(), v.size());
  return true;
}

void PutParams(std::string* out, const JobParams& params) {
  PutVarint64(out, params.size());
  for (const auto& [k, v] : params) {
    PutString(out, k);
    PutString(out, v);
  }
}

bool GetParams(Slice* in, JobParams* params) {
  uint64_t n = 0;
  if (!GetVarint64(in, &n)) return false;
  params->clear();
  params->reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    std::string k, v;
    if (!GetString(in, &k) || !GetString(in, &v)) return false;
    params->emplace_back(std::move(k), std::move(v));
  }
  return true;
}

void PutDouble(std::string* out, double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  PutFixed64(out, bits);
}

bool GetDouble(Slice* in, double* v) {
  uint64_t bits = 0;
  if (!GetFixed64(in, &bits)) return false;
  std::memcpy(v, &bits, sizeof(bits));
  return true;
}

}  // namespace

void EncodeRegister(const RegisterMsg& msg, std::string* out) {
  out->clear();
  PutString(out, msg.worker_name);
  PutString(out, msg.shuffle_addr);
  PutVarint32(out, msg.slots);
}

Status DecodeRegister(const std::string& payload, RegisterMsg* msg) {
  Slice in(payload);
  if (!GetString(&in, &msg->worker_name) ||
      !GetString(&in, &msg->shuffle_addr) ||
      !GetVarint32(&in, &msg->slots)) {
    return Malformed("Register");
  }
  return Status::OK();
}

void EncodeRegisterAck(const RegisterAckMsg& msg, std::string* out) {
  out->clear();
  PutVarint32(out, msg.worker_id);
}

Status DecodeRegisterAck(const std::string& payload, RegisterAckMsg* msg) {
  Slice in(payload);
  if (!GetVarint32(&in, &msg->worker_id)) return Malformed("RegisterAck");
  return Status::OK();
}

void EncodeHeartbeat(const HeartbeatMsg& msg, std::string* out) {
  out->clear();
  PutVarint32(out, msg.worker_id);
  PutVarint64(out, msg.seq);
  PutString(out, msg.metrics_snapshot);
  PutVarint64(out, msg.task_progress.size());
  for (const TaskProgress& p : msg.task_progress) {
    PutVarint64(out, p.rpc_id);
    PutVarint32(out, p.permille);
  }
}

Status DecodeHeartbeat(const std::string& payload, HeartbeatMsg* msg) {
  Slice in(payload);
  uint64_t num_progress = 0;
  if (!GetVarint32(&in, &msg->worker_id) || !GetVarint64(&in, &msg->seq) ||
      !GetString(&in, &msg->metrics_snapshot) ||
      !GetVarint64(&in, &num_progress)) {
    return Malformed("Heartbeat");
  }
  msg->task_progress.clear();
  msg->task_progress.reserve(num_progress);
  for (uint64_t i = 0; i < num_progress; ++i) {
    TaskProgress p;
    if (!GetVarint64(&in, &p.rpc_id) || !GetVarint32(&in, &p.permille)) {
      return Malformed("Heartbeat progress");
    }
    msg->task_progress.push_back(p);
  }
  return Status::OK();
}

void EncodeCancelTask(const CancelTaskMsg& msg, std::string* out) {
  out->clear();
  PutVarint64(out, msg.rpc_id);
}

Status DecodeCancelTask(const std::string& payload, CancelTaskMsg* msg) {
  Slice in(payload);
  if (!GetVarint64(&in, &msg->rpc_id)) return Malformed("CancelTask");
  return Status::OK();
}

void EncodeTaskAssign(const TaskAssignMsg& msg, std::string* out) {
  out->clear();
  PutVarint64(out, msg.rpc_id);
  out->push_back(static_cast<char>(msg.kind));
  PutString(out, msg.job_name);
  PutParams(out, msg.params);
  PutString(out, msg.job_id);
  PutVarint32(out, msg.task_index);
  PutVarint32(out, msg.attempt);
  PutString(out, msg.split_records);
  PutVarint64(out, msg.segments.size());
  for (const SegmentRef& ref : msg.segments) {
    PutString(out, ref.addr);
    PutString(out, ref.file);
  }
  out->push_back(msg.collect_output ? 1 : 0);
  PutDouble(out, msg.network_mb_per_s);
  out->push_back(msg.trace_enabled ? 1 : 0);
}

Status DecodeTaskAssign(const std::string& payload, TaskAssignMsg* msg) {
  Slice in(payload);
  if (!GetVarint64(&in, &msg->rpc_id) || in.empty()) {
    return Malformed("TaskAssign");
  }
  msg->kind = static_cast<TaskKind>(in[0]);
  in.RemovePrefix(1);
  uint64_t num_segments = 0;
  if (!GetString(&in, &msg->job_name) || !GetParams(&in, &msg->params) ||
      !GetString(&in, &msg->job_id) ||
      !GetVarint32(&in, &msg->task_index) ||
      !GetVarint32(&in, &msg->attempt) ||
      !GetString(&in, &msg->split_records) ||
      !GetVarint64(&in, &num_segments)) {
    return Malformed("TaskAssign");
  }
  msg->segments.clear();
  msg->segments.reserve(num_segments);
  for (uint64_t i = 0; i < num_segments; ++i) {
    SegmentRef ref;
    if (!GetString(&in, &ref.addr) || !GetString(&in, &ref.file)) {
      return Malformed("TaskAssign segments");
    }
    msg->segments.push_back(std::move(ref));
  }
  if (in.empty()) return Malformed("TaskAssign tail");
  msg->collect_output = in[0] != 0;
  in.RemovePrefix(1);
  if (!GetDouble(&in, &msg->network_mb_per_s) || in.empty()) {
    return Malformed("TaskAssign tail");
  }
  msg->trace_enabled = in[0] != 0;
  in.RemovePrefix(1);
  return Status::OK();
}

void EncodeTaskResult(const TaskResultMsg& msg, std::string* out) {
  out->clear();
  PutVarint64(out, msg.rpc_id);
  PutVarint32(out, static_cast<uint32_t>(msg.status_code));
  PutString(out, msg.status_msg);
  PutVarint64(out, msg.segment_files.size());
  for (const std::vector<std::string>& runs : msg.segment_files) {
    PutVarint64(out, runs.size());
    for (const std::string& f : runs) PutString(out, f);
  }
  PutString(out, msg.output_records);
  PutString(out, msg.metrics);
  PutString(out, msg.trace_chunk);
}

Status DecodeTaskResult(const std::string& payload, TaskResultMsg* msg) {
  Slice in(payload);
  uint32_t code = 0;
  uint64_t num_partitions = 0;
  if (!GetVarint64(&in, &msg->rpc_id) || !GetVarint32(&in, &code) ||
      !GetString(&in, &msg->status_msg) ||
      !GetVarint64(&in, &num_partitions) || num_partitions > in.size()) {
    return Malformed("TaskResult");
  }
  msg->status_code = static_cast<int32_t>(code);
  msg->segment_files.assign(num_partitions, {});
  for (std::vector<std::string>& runs : msg->segment_files) {
    uint64_t num_runs = 0;
    if (!GetVarint64(&in, &num_runs) || num_runs > in.size()) {
      return Malformed("TaskResult files");
    }
    runs.resize(num_runs);
    for (std::string& f : runs) {
      if (!GetString(&in, &f)) return Malformed("TaskResult files");
    }
  }
  if (!GetString(&in, &msg->output_records) ||
      !GetString(&in, &msg->metrics) ||
      !GetString(&in, &msg->trace_chunk)) {
    return Malformed("TaskResult tail");
  }
  return Status::OK();
}

void EncodeFetchReq(const FetchReqMsg& msg, std::string* out) {
  out->clear();
  PutString(out, msg.file);
  PutVarint64(out, msg.flow_id);
  PutString(out, msg.origin);
}

Status DecodeFetchReq(const std::string& payload, FetchReqMsg* msg) {
  Slice in(payload);
  if (!GetString(&in, &msg->file) || !GetVarint64(&in, &msg->flow_id) ||
      !GetString(&in, &msg->origin)) {
    return Malformed("FetchReq");
  }
  return Status::OK();
}

void EncodeTraceChunk(const TraceChunkMsg& msg, std::string* out) {
  out->clear();
  PutVarint32(out, msg.worker_id);
  PutString(out, msg.chunk);
}

Status DecodeTraceChunk(const std::string& payload, TraceChunkMsg* msg) {
  Slice in(payload);
  if (!GetVarint32(&in, &msg->worker_id) || !GetString(&in, &msg->chunk)) {
    return Malformed("TraceChunk");
  }
  return Status::OK();
}

void EncodeFetchError(const FetchErrorMsg& msg, std::string* out) {
  out->clear();
  PutVarint32(out, static_cast<uint32_t>(msg.status_code));
  PutString(out, msg.status_msg);
}

Status DecodeFetchError(const std::string& payload, FetchErrorMsg* msg) {
  Slice in(payload);
  uint32_t code = 0;
  if (!GetVarint32(&in, &code) || !GetString(&in, &msg->status_msg)) {
    return Malformed("FetchError");
  }
  msg->status_code = static_cast<int32_t>(code);
  return Status::OK();
}

void EncodeJobId(const JobIdMsg& msg, std::string* out) {
  out->clear();
  PutString(out, msg.job_id);
}

Status DecodeJobId(const std::string& payload, JobIdMsg* msg) {
  Slice in(payload);
  if (!GetString(&in, &msg->job_id)) return Malformed("JobId");
  return Status::OK();
}

void EncodeSubmitJob(const SubmitJobMsg& msg, std::string* out) {
  out->clear();
  PutString(out, msg.pool);
  PutString(out, msg.job_name);
  PutParams(out, msg.params);
  PutString(out, msg.job_id);
  PutVarint32(out, msg.cpu_slots);
  PutVarint64(out, msg.memory_bytes);
  PutVarint32(out, msg.max_task_attempts);
  PutDouble(out, msg.network_mb_per_s);
  out->push_back(msg.collect_output ? 1 : 0);
  PutVarint64(out, msg.splits.size());
  for (const std::string& s : msg.splits) PutString(out, s);
}

Status DecodeSubmitJob(const std::string& payload, SubmitJobMsg* msg) {
  Slice in(payload);
  if (!GetString(&in, &msg->pool) || !GetString(&in, &msg->job_name) ||
      !GetParams(&in, &msg->params) || !GetString(&in, &msg->job_id) ||
      !GetVarint32(&in, &msg->cpu_slots) ||
      !GetVarint64(&in, &msg->memory_bytes) ||
      !GetVarint32(&in, &msg->max_task_attempts) ||
      !GetDouble(&in, &msg->network_mb_per_s) || in.empty()) {
    return Malformed("SubmitJob");
  }
  msg->collect_output = in[0] != 0;
  in.RemovePrefix(1);
  uint64_t num_splits = 0;
  if (!GetVarint64(&in, &num_splits)) return Malformed("SubmitJob splits");
  msg->splits.clear();
  msg->splits.reserve(num_splits);
  for (uint64_t i = 0; i < num_splits; ++i) {
    std::string s;
    if (!GetString(&in, &s)) return Malformed("SubmitJob splits");
    msg->splits.push_back(std::move(s));
  }
  return Status::OK();
}

void EncodeSubmitJobAck(const SubmitJobAckMsg& msg, std::string* out) {
  out->clear();
  PutVarint32(out, static_cast<uint32_t>(msg.status_code));
  PutString(out, msg.status_msg);
  PutString(out, msg.job_id);
}

Status DecodeSubmitJobAck(const std::string& payload, SubmitJobAckMsg* msg) {
  Slice in(payload);
  uint32_t code = 0;
  if (!GetVarint32(&in, &code) || !GetString(&in, &msg->status_msg) ||
      !GetString(&in, &msg->job_id)) {
    return Malformed("SubmitJobAck");
  }
  msg->status_code = static_cast<int32_t>(code);
  return Status::OK();
}

namespace {

void PutJobStatusWire(std::string* out, const JobStatusWire& job) {
  PutString(out, job.job_id);
  PutString(out, job.pool);
  PutString(out, job.job_name);
  PutString(out, job.state);
  PutVarint32(out, job.queue_position);
  PutVarint32(out, job.cpu_slots);
  PutVarint64(out, job.maps_total);
  PutVarint64(out, job.maps_done);
  PutVarint64(out, job.reduces_total);
  PutVarint64(out, job.reduces_done);
  PutVarint64(out, job.map_reruns);
  PutVarint32(out, static_cast<uint32_t>(job.status_code));
  PutString(out, job.status_msg);
  PutVarint64(out, job.output_hash);
  PutVarint64(out, job.output_records);
  PutVarint64(out, job.submit_nanos);
  PutVarint64(out, job.start_nanos);
  PutVarint64(out, job.finish_nanos);
  PutVarint64(out, job.dispatch_seq);
}

bool GetJobStatusWire(Slice* in, JobStatusWire* job) {
  uint32_t code = 0;
  if (!GetString(in, &job->job_id) || !GetString(in, &job->pool) ||
      !GetString(in, &job->job_name) || !GetString(in, &job->state) ||
      !GetVarint32(in, &job->queue_position) ||
      !GetVarint32(in, &job->cpu_slots) ||
      !GetVarint64(in, &job->maps_total) ||
      !GetVarint64(in, &job->maps_done) ||
      !GetVarint64(in, &job->reduces_total) ||
      !GetVarint64(in, &job->reduces_done) ||
      !GetVarint64(in, &job->map_reruns) || !GetVarint32(in, &code) ||
      !GetString(in, &job->status_msg) ||
      !GetVarint64(in, &job->output_hash) ||
      !GetVarint64(in, &job->output_records) ||
      !GetVarint64(in, &job->submit_nanos) ||
      !GetVarint64(in, &job->start_nanos) ||
      !GetVarint64(in, &job->finish_nanos) ||
      !GetVarint64(in, &job->dispatch_seq)) {
    return false;
  }
  job->status_code = static_cast<int32_t>(code);
  return true;
}

}  // namespace

void EncodeJobStatusResp(const JobStatusRespMsg& msg, std::string* out) {
  out->clear();
  PutVarint32(out, static_cast<uint32_t>(msg.status_code));
  PutString(out, msg.status_msg);
  PutJobStatusWire(out, msg.job);
}

Status DecodeJobStatusResp(const std::string& payload, JobStatusRespMsg* msg) {
  Slice in(payload);
  uint32_t code = 0;
  if (!GetVarint32(&in, &code) || !GetString(&in, &msg->status_msg) ||
      !GetJobStatusWire(&in, &msg->job)) {
    return Malformed("JobStatusResp");
  }
  msg->status_code = static_cast<int32_t>(code);
  return Status::OK();
}

void EncodeJobOpAck(const JobOpAckMsg& msg, std::string* out) {
  out->clear();
  PutVarint32(out, static_cast<uint32_t>(msg.status_code));
  PutString(out, msg.status_msg);
}

Status DecodeJobOpAck(const std::string& payload, JobOpAckMsg* msg) {
  Slice in(payload);
  uint32_t code = 0;
  if (!GetVarint32(&in, &code) || !GetString(&in, &msg->status_msg)) {
    return Malformed("JobOpAck");
  }
  msg->status_code = static_cast<int32_t>(code);
  return Status::OK();
}

void EncodeListJobsResp(const ListJobsRespMsg& msg, std::string* out) {
  out->clear();
  PutVarint32(out, static_cast<uint32_t>(msg.status_code));
  PutString(out, msg.status_msg);
  PutVarint64(out, msg.jobs.size());
  for (const JobStatusWire& job : msg.jobs) PutJobStatusWire(out, job);
}

Status DecodeListJobsResp(const std::string& payload, ListJobsRespMsg* msg) {
  Slice in(payload);
  uint32_t code = 0;
  uint64_t n = 0;
  if (!GetVarint32(&in, &code) || !GetString(&in, &msg->status_msg) ||
      !GetVarint64(&in, &n)) {
    return Malformed("ListJobsResp");
  }
  msg->status_code = static_cast<int32_t>(code);
  msg->jobs.clear();
  msg->jobs.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    JobStatusWire job;
    if (!GetJobStatusWire(&in, &job)) return Malformed("ListJobsResp job");
    msg->jobs.push_back(std::move(job));
  }
  return Status::OK();
}

Status StatusFromWire(int32_t code, const std::string& msg) {
  if (code == 0) return Status::OK();
  const auto c = static_cast<Status::Code>(code);
  switch (c) {
    case Status::Code::kInvalidArgument:
    case Status::Code::kNotFound:
    case Status::Code::kIOError:
    case Status::Code::kCorruption:
    case Status::Code::kNotSupported:
    case Status::Code::kResourceExhausted:
    case Status::Code::kInternal:
      return Status(c, msg);
    default:
      return Status::IOError("unknown wire status code " +
                             std::to_string(code) + ": " + msg);
  }
}

void EncodeKVList(const std::vector<KV>& records, std::string* out) {
  out->clear();
  PutVarint64(out, records.size());
  for (const KV& r : records) {
    PutString(out, r.key);
    PutString(out, r.value);
  }
}

Status DecodeKVList(const std::string& payload, std::vector<KV>* records) {
  Slice in(payload);
  uint64_t n = 0;
  if (!GetVarint64(&in, &n)) return Malformed("KVList");
  records->clear();
  records->reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    KV r;
    if (!GetString(&in, &r.key) || !GetString(&in, &r.value)) {
      return Malformed("KVList record");
    }
    records->push_back(std::move(r));
  }
  return Status::OK();
}

void EncodeJobMetrics(const JobMetrics& metrics, std::string* out) {
  out->clear();
#define ANTIMR_PUT_FIELD(name) PutVarint64(out, metrics.name);
  ANTIMR_JOB_SUM_FIELDS(ANTIMR_PUT_FIELD)
  ANTIMR_JOB_MAX_FIELDS(ANTIMR_PUT_FIELD)
#undef ANTIMR_PUT_FIELD
#define ANTIMR_PUT_PHASE(name) PutVarint64(out, metrics.cpu.name);
  ANTIMR_PHASE_CPU_FIELDS(ANTIMR_PUT_PHASE)
#undef ANTIMR_PUT_PHASE
  PutVarint64(out, metrics.wall_nanos);
}

Status DecodeJobMetrics(const std::string& payload, JobMetrics* metrics) {
  Slice in(payload);
  *metrics = JobMetrics();
#define ANTIMR_GET_FIELD(name)                  \
  if (!GetVarint64(&in, &metrics->name)) {      \
    return Malformed("JobMetrics");             \
  }
  ANTIMR_JOB_SUM_FIELDS(ANTIMR_GET_FIELD)
  ANTIMR_JOB_MAX_FIELDS(ANTIMR_GET_FIELD)
#undef ANTIMR_GET_FIELD
#define ANTIMR_GET_PHASE(name)                  \
  if (!GetVarint64(&in, &metrics->cpu.name)) {  \
    return Malformed("JobMetrics cpu");         \
  }
  ANTIMR_PHASE_CPU_FIELDS(ANTIMR_GET_PHASE)
#undef ANTIMR_GET_PHASE
  if (!GetVarint64(&in, &metrics->wall_nanos)) {
    return Malformed("JobMetrics tail");
  }
  return Status::OK();
}

}  // namespace net
}  // namespace antimr
