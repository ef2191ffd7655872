// Message vocabulary of the coordinator/worker protocol and the shuffle
// fetch protocol, with hand-rolled encode/decode over common/coding.h
// primitives (no external serialization dependency). Every message rides in
// one frame (net/frame.h); the frame type byte is the MsgType.
//
// Control plane (worker <-> coordinator, one long-lived Conn per worker):
//
//   worker -> Register          once, immediately after dialing
//   coord  -> RegisterAck       assigns the worker id
//   worker -> Heartbeat         every heartbeat period, piggybacking an
//                               absolute metrics-registry snapshot
//   coord  -> TaskAssign        one map or reduce task execution
//   worker -> TaskResult        matching rpc_id, success or failure,
//                               piggybacking the task's trace chunk
//   worker -> TraceChunk        residual trace events at shutdown
//   coord  -> Shutdown          graceful stop
//
// Data plane (reducer's ShuffleClient <-> map-side SegmentServer):
//
//   client -> FetchReq          one segment file name
//   server -> FetchChunk*       the segment's stored bytes, chunked
//   server -> FetchEnd          end of segment
//   server -> FetchError        Status instead of data
#ifndef ANTIMR_NET_WIRE_H_
#define ANTIMR_NET_WIRE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "mr/api.h"
#include "mr/metrics.h"

namespace antimr {
namespace net {

enum MsgType : uint8_t {
  kRegister = 1,
  kRegisterAck = 2,
  kHeartbeat = 3,
  kTaskAssign = 4,
  kTaskResult = 5,
  kShutdown = 6,
  kTraceChunk = 7,
  kCancelTask = 8,
  // coordinator -> worker, job-scoped (payload: JobIdMsg). CancelJob flips
  // the cancel flag of every running attempt in the job's id scope;
  // ScrubJob deletes the job's files (segments, spills) from the worker's
  // storage — the GC a persistent multi-tenant daemon needs.
  kCancelJob = 9,
  kScrubJob = 10,
  kFetchReq = 16,
  kFetchChunk = 17,
  kFetchEnd = 18,
  kFetchError = 19,
  // Job lifecycle plane (client <-> JobService listener, one conn per
  // client, request/response in lockstep):
  kSubmitJob = 32,
  kSubmitJobAck = 33,
  kJobStatusReq = 34,   ///< payload: JobIdMsg
  kJobStatusResp = 35,
  kAbortJob = 36,       ///< payload: JobIdMsg
  kJobOpAck = 37,
  kListJobsReq = 38,    ///< payload: empty
  kListJobsResp = 39,
};

struct RegisterMsg {
  std::string worker_name;
  std::string shuffle_addr;  ///< where this worker's SegmentServer listens
  uint32_t slots = 1;        ///< concurrent task capacity
};

struct RegisterAckMsg {
  uint32_t worker_id = 0;
};

/// Per-inflight-task progress carried on every heartbeat so the coordinator
/// can spot stragglers without extra round-trips. permille is coarse
/// (records processed / split size for maps, fetch fraction for reduces).
struct TaskProgress {
  uint64_t rpc_id = 0;
  uint32_t permille = 0;  ///< 0..1000
};

struct HeartbeatMsg {
  uint32_t worker_id = 0;
  uint64_t seq = 0;
  /// EncodeMetricsSnapshot of the worker's registry: *absolute* cumulative
  /// values, so a retransmitted or reordered beat folds idempotently at the
  /// coordinator (obs/federation.h). Empty = no snapshot this beat.
  std::string metrics_snapshot;
  /// Progress of every task currently executing on this worker. Absolute
  /// values, so a dropped beat costs only staleness.
  std::vector<TaskProgress> task_progress;
};

/// coordinator -> worker: stop the attempt identified by rpc_id (the loser
/// of a speculative race). Best-effort: the worker flips the task's cancel
/// flag; the task fails with a transient error and scrubs its partial
/// output through the same path a crashed attempt would.
struct CancelTaskMsg {
  uint64_t rpc_id = 0;
};

/// String key/value pairs a registered job builder turns back into a
/// JobSpec on the worker (JobSpec itself holds std::function factories and
/// cannot cross a process boundary).
using JobParams = std::vector<std::pair<std::string, std::string>>;

enum class TaskKind : uint8_t { kMap = 0, kReduce = 1 };

/// One remote segment a reduce task must fetch: the owning worker's shuffle
/// address plus the segment file name on that worker's storage.
struct SegmentRef {
  std::string addr;
  std::string file;
};

struct TaskAssignMsg {
  uint64_t rpc_id = 0;  ///< echoed in the TaskResult
  TaskKind kind = TaskKind::kMap;
  std::string job_name;  ///< registered builder name
  JobParams params;
  std::string job_id;  ///< segment-file scope (attempt-unique for maps)
  uint32_t task_index = 0;
  uint32_t attempt = 0;
  // Map tasks: the split's records, encoded with EncodeKVList.
  std::string split_records;
  // Reduce tasks: every segment of every map for this partition, in
  // (map index, run) order (merge order is part of the output contract).
  std::vector<SegmentRef> segments;
  bool collect_output = true;
  double network_mb_per_s = 0;  ///< simulated fetch bandwidth on the worker
  /// Trace context: the coordinator is capturing, so record spans for this
  /// task (job_id/task_index/attempt above name them) and ship them back in
  /// TaskResultMsg::trace_chunk.
  bool trace_enabled = false;
};

struct TaskResultMsg {
  uint64_t rpc_id = 0;
  int32_t status_code = 0;  ///< Status::Code as int; 0 = ok
  std::string status_msg;
  // Map tasks: per reduce partition, the task's segment files in run order
  // (MapTaskResult::segment_files; an empty list = no records).
  std::vector<std::vector<std::string>> segment_files;
  // Reduce tasks: the partition's output, encoded with EncodeKVList.
  std::string output_records;
  std::string metrics;  ///< EncodeJobMetrics of the task's JobMetrics
  uint64_t cpu_nanos = 0;
  /// Serialized trace lane blocks recorded while running this task (see
  /// Tracer::DrainThisThread). Empty when the assignment had trace off.
  std::string trace_chunk;
};

struct FetchReqMsg {
  std::string file;
  /// Trace context: flow-arrow id pairing the reducer's FlowStart with the
  /// serving worker's FlowEnd (0 = not tracing), plus a human-readable
  /// requester label ("reduce:<job_id>:<index>") for the serve span's args.
  uint64_t flow_id = 0;
  std::string origin;
};

/// Residual trace events a worker process drains at shutdown (events not
/// attributable to one task: shuffle serves, heartbeats). worker_id lets the
/// coordinator map the chunk to its process lane.
struct TraceChunkMsg {
  uint32_t worker_id = 0;
  std::string chunk;
};

struct FetchErrorMsg {
  int32_t status_code = 0;
  std::string status_msg;
};

// --- job lifecycle plane -------------------------------------------------

/// Payload of every message that names one job: kCancelJob / kScrubJob on
/// the worker control plane, kJobStatusReq / kAbortJob on the service plane.
struct JobIdMsg {
  std::string job_id;
};

/// client -> JobService: admit one job into a pool. Splits ship pre-encoded
/// (each entry is an EncodeKVList payload) so the service never re-encodes
/// what the client already serialized. Zero-valued resource/limit fields
/// mean "service default".
struct SubmitJobMsg {
  std::string pool;      ///< "" = the service's first (default) pool
  std::string job_name;  ///< registered builder name
  JobParams params;
  std::string job_id;  ///< "" = service assigns one
  uint32_t cpu_slots = 0;      ///< concurrent task-dispatch grant
  uint64_t memory_bytes = 0;   ///< map-buffer/Shared admission estimate
  uint32_t max_task_attempts = 0;
  double network_mb_per_s = 0;
  bool collect_output = true;
  std::vector<std::string> splits;  ///< EncodeKVList payload per map task
};

struct SubmitJobAckMsg {
  int32_t status_code = 0;  ///< admission verdict; 0 = queued
  std::string status_msg;
  std::string job_id;
};

/// Point-in-time job row, served by kJobStatusResp and kListJobsResp.
/// Timestamps are the service's monotonic clock (durations are meaningful,
/// absolute values are not). output_hash is the order-insensitive multiset
/// hash of the job's collected output — the byte-identity check crosses the
/// wire as 8 bytes instead of the whole output.
struct JobStatusWire {
  std::string job_id;
  std::string pool;
  std::string job_name;
  std::string state;  ///< queued|admitted|running|succeeded|failed|aborted
  uint32_t queue_position = 0;  ///< 1-based within pool; 0 = not queued
  uint32_t cpu_slots = 0;       ///< granted dispatch slots
  uint64_t maps_total = 0;
  uint64_t maps_done = 0;
  uint64_t reduces_total = 0;
  uint64_t reduces_done = 0;
  uint64_t map_reruns = 0;
  int32_t status_code = 0;  ///< terminal Status; 0 until failed/aborted
  std::string status_msg;
  uint64_t output_hash = 0;
  uint64_t output_records = 0;
  uint64_t submit_nanos = 0;
  uint64_t start_nanos = 0;   ///< 0 until dispatched
  uint64_t finish_nanos = 0;  ///< 0 until terminal
  uint64_t dispatch_seq = 0;  ///< fair-share dispatch order; 0 = not yet
};

struct JobStatusRespMsg {
  int32_t status_code = 0;  ///< lookup verdict (NotFound for unknown ids)
  std::string status_msg;
  JobStatusWire job;
};

struct JobOpAckMsg {
  int32_t status_code = 0;
  std::string status_msg;
};

struct ListJobsRespMsg {
  int32_t status_code = 0;
  std::string status_msg;
  std::vector<JobStatusWire> jobs;
};

// --- encode/decode -------------------------------------------------------
// Decode returns IOError on malformed payloads (transient: a garbled
// message is wire trouble, and the frame CRC already screens storage-level
// corruption).

void EncodeRegister(const RegisterMsg& msg, std::string* out);
Status DecodeRegister(const std::string& payload, RegisterMsg* msg);

void EncodeRegisterAck(const RegisterAckMsg& msg, std::string* out);
Status DecodeRegisterAck(const std::string& payload, RegisterAckMsg* msg);

void EncodeHeartbeat(const HeartbeatMsg& msg, std::string* out);
Status DecodeHeartbeat(const std::string& payload, HeartbeatMsg* msg);

void EncodeCancelTask(const CancelTaskMsg& msg, std::string* out);
Status DecodeCancelTask(const std::string& payload, CancelTaskMsg* msg);

void EncodeTaskAssign(const TaskAssignMsg& msg, std::string* out);
Status DecodeTaskAssign(const std::string& payload, TaskAssignMsg* msg);

void EncodeTaskResult(const TaskResultMsg& msg, std::string* out);
Status DecodeTaskResult(const std::string& payload, TaskResultMsg* msg);

void EncodeFetchReq(const FetchReqMsg& msg, std::string* out);
Status DecodeFetchReq(const std::string& payload, FetchReqMsg* msg);

void EncodeTraceChunk(const TraceChunkMsg& msg, std::string* out);
Status DecodeTraceChunk(const std::string& payload, TraceChunkMsg* msg);

void EncodeFetchError(const FetchErrorMsg& msg, std::string* out);
Status DecodeFetchError(const std::string& payload, FetchErrorMsg* msg);

void EncodeJobId(const JobIdMsg& msg, std::string* out);
Status DecodeJobId(const std::string& payload, JobIdMsg* msg);

void EncodeSubmitJob(const SubmitJobMsg& msg, std::string* out);
Status DecodeSubmitJob(const std::string& payload, SubmitJobMsg* msg);

void EncodeSubmitJobAck(const SubmitJobAckMsg& msg, std::string* out);
Status DecodeSubmitJobAck(const std::string& payload, SubmitJobAckMsg* msg);

void EncodeJobStatusResp(const JobStatusRespMsg& msg, std::string* out);
Status DecodeJobStatusResp(const std::string& payload, JobStatusRespMsg* msg);

void EncodeJobOpAck(const JobOpAckMsg& msg, std::string* out);
Status DecodeJobOpAck(const std::string& payload, JobOpAckMsg* msg);

void EncodeListJobsResp(const ListJobsRespMsg& msg, std::string* out);
Status DecodeListJobsResp(const std::string& payload, ListJobsRespMsg* msg);

/// Rebuild a Status from a (code, message) pair that crossed the wire.
Status StatusFromWire(int32_t code, const std::string& msg);

/// KV list codec used for split records and reduce outputs:
/// varint64(count) then count x (length-prefixed key, length-prefixed value).
void EncodeKVList(const std::vector<KV>& records, std::string* out);
Status DecodeKVList(const std::string& payload, std::vector<KV>* records);

/// JobMetrics codec: every X-macro sum/max field, the per-phase CPU fields,
/// and total_cpu_nanos/wall_nanos, as varint64s in declaration order.
void EncodeJobMetrics(const JobMetrics& metrics, std::string* out);
Status DecodeJobMetrics(const std::string& payload, JobMetrics* metrics);

}  // namespace net
}  // namespace antimr

#endif  // ANTIMR_NET_WIRE_H_
