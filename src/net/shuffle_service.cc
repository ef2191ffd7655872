#include "net/shuffle_service.h"

#include <utility>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "io/throttled_env.h"
#include "net/frame.h"
#include "net/wire.h"
#include "obs/federation.h"
#include "obs/trace.h"

namespace antimr {
namespace net {

namespace {
/// Segment bytes per FetchChunk frame. Matches the pre-transport fetch
/// granularity (and the segment block size), so the simulated-bandwidth
/// sleeps happen on the same cadence as before.
constexpr size_t kFetchChunkBytes = 64 * 1024;
}  // namespace

SegmentServer::SegmentServer(Transport* transport, Env* env)
    : env_(env), server_(transport, [this](Conn* conn) { Serve(conn); }) {}

Status SegmentServer::Start(const std::string& addr) {
  return server_.Start(addr);
}

void SegmentServer::Serve(Conn* conn) {
  std::string payload;
  char scratch[kFetchChunkBytes];
  while (true) {
    uint8_t type = 0;
    if (!ReadFrame(conn, &type, &payload).ok()) break;  // peer gone
    if (type != kFetchReq) break;  // protocol violation: drop the conn
    FetchReqMsg req;
    if (!DecodeFetchReq(payload, &req).ok()) break;
    bool conn_lost = false;
    {
      // Inner scope: the serve span must close before the post-request
      // trace drain below, or the shipped chunk would hold an unbalanced B.
      ANTIMR_TRACE_SPAN_DYN(
          "rpc", req.origin.empty()
                     ? "serve_segment:" + req.file
                     : "serve_segment:" + req.file + "<-" + req.origin);
      if (obs::kTraceCompiled && obs::TraceEnabled() && req.flow_id != 0) {
        // Arrow head of the reducer's FlowStart: remote fetches render as
        // flows from the reduce task's lane into this server's lane.
        obs::Tracer::Global().FlowEnd("shuffle", "shuffle_fetch",
                                      req.flow_id);
      }

      std::unique_ptr<SequentialFile> file;
      Status st = env_->NewSequentialFile(req.file, &file);
      std::string chunk_payload;
      while (st.ok()) {
        Slice chunk;
        st = file->Read(sizeof(scratch), &chunk, scratch);
        if (!st.ok() || chunk.empty()) break;
        chunk_payload.assign(chunk.data(), chunk.size());
        if (!WriteFrame(conn, kFetchChunk, chunk_payload).ok()) {
          conn_lost = true;
          break;
        }
      }
      if (conn_lost) {
        // fall through to the trace drain, then drop the conn
      } else if (st.ok()) {
        conn_lost = !WriteFrame(conn, kFetchEnd, std::string()).ok();
      } else {
        ANTIMR_LOG(kDebug) << "serve_segment " << req.file
                           << " failed: " << st.ToString();
        FetchErrorMsg err;
        err.status_code = static_cast<int32_t>(st.code());
        err.status_msg = st.message();
        EncodeFetchError(err, &chunk_payload);
        conn_lost = !WriteFrame(conn, kFetchError, chunk_payload).ok();
      }
    }
    // Hand this request's spans to the owner (engine::Worker) so remote
    // serve activity reaches the coordinator's merged trace; handler
    // threads are otherwise invisible to task-boundary draining.
    if (obs::kTraceCompiled && obs::TraceEnabled() && trace_sink_) {
      std::string trace_chunk;
      obs::Tracer::Global().DrainThisThread(&trace_chunk);
      if (!trace_chunk.empty()) trace_sink_(std::move(trace_chunk));
    }
    if (conn_lost) break;
  }
}

ShuffleClient::ShuffleClient(Transport* transport, double network_mb_per_s)
    : transport_(transport), network_mb_per_s_(network_mb_per_s) {}

ShuffleClient::~ShuffleClient() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [addr, conns] : idle_) {
    for (auto& conn : conns) conn->Close();
  }
}

Status ShuffleClient::Fetch(const std::string& addr, const std::string& file,
                            FetchedSegment* out) {
  *out = FetchedSegment();
  const uint64_t start = NowNanos();
  out->file = file;
  ANTIMR_TRACE_SPAN_DYN("rpc", "fetch_segment:" + file);
  uint64_t flow_id = 0;
  if (obs::kTraceCompiled && obs::TraceEnabled()) {
    // Tail of a flow arrow into the serving worker's lane; the id rides in
    // the FetchReq and the server records the matching FlowEnd.
    flow_id = obs::NextFlowId();
    obs::Tracer::Global().FlowStart("shuffle", "shuffle_fetch", flow_id);
  }

  std::unique_ptr<Conn> conn;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = idle_.find(addr);
    if (it != idle_.end() && !it->second.empty()) {
      conn = std::move(it->second.back());
      it->second.pop_back();
    }
  }
  bool pooled = conn != nullptr;
  if (!pooled) ANTIMR_RETURN_NOT_OK(transport_->Dial(addr, &conn));

  bool server_reported = false;
  Status st = FetchOnce(conn.get(), file, flow_id, out, &server_reported);
  if (!st.ok() && pooled && !server_reported) {
    // A pooled conn may have died while idle (server restart, worker
    // crash); retry exactly once on a fresh dial before reporting. Only
    // conn-level failures qualify — an error the server answered with
    // arrived over a healthy conn and must surface to the task retry
    // layer, not be masked by a second request.
    out->frames.clear();
    ANTIMR_RETURN_NOT_OK(transport_->Dial(addr, &conn));
    pooled = false;
    st = FetchOnce(conn.get(), file, flow_id, out, &server_reported);
  }
  if (!st.ok()) {
    ANTIMR_LOG(kDebug) << "fetch " << file << " from " << addr
                       << " failed: " << st.ToString();
    // Whatever the wire said, a failed fetch is retryable: the retry layer
    // either re-fetches or re-places the producing map task.
    return st.IsTransient() ? st : Status::IOError(st.ToString());
  }
  out->fetched_bytes = out->frames.size();
  out->fetch_nanos = NowNanos() - start;
  {
    std::lock_guard<std::mutex> lock(mu_);
    idle_[addr].push_back(std::move(conn));
  }
  return Status::OK();
}

Status ShuffleClient::FetchOnce(Conn* conn, const std::string& file,
                                uint64_t flow_id, FetchedSegment* out,
                                bool* server_reported) {
  *server_reported = false;
  std::string payload;
  FetchReqMsg req;
  req.file = file;
  req.flow_id = flow_id;
  req.origin = trace_origin_;
  EncodeFetchReq(req, &payload);
  ANTIMR_RETURN_NOT_OK(WriteFrame(conn, kFetchReq, payload));
  while (true) {
    uint8_t type = 0;
    ANTIMR_RETURN_NOT_OK(ReadFrame(conn, &type, &payload));
    switch (type) {
      case kFetchChunk:
        out->frames.append(payload);
        // Simulated shuffle bandwidth, paid per chunk as it arrives.
        SleepForBytes(payload.size(), network_mb_per_s_);
        break;
      case kFetchEnd:
        return Status::OK();
      case kFetchError: {
        *server_reported = true;
        FetchErrorMsg err;
        ANTIMR_RETURN_NOT_OK(DecodeFetchError(payload, &err));
        return StatusFromWire(err.status_code,
                              "fetch " + file + ": " + err.status_msg);
      }
      default:
        return Status::IOError("unexpected frame type " +
                               std::to_string(type) + " during fetch");
    }
  }
}

}  // namespace net
}  // namespace antimr
