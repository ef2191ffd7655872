// The data plane of the distributed shuffle: every worker (and the
// single-process Executor) runs a SegmentServer over its task Env, and
// reduce-side fetchers pull whole stored segments through a ShuffleClient.
// Bytes move as FetchChunk frames, so the frame layer's counters — and the
// FetchedSegment::fetched_bytes each fetch reports — measure the identical
// transport boundary in local and distributed runs, loopback and TCP.
#ifndef ANTIMR_NET_SHUFFLE_SERVICE_H_
#define ANTIMR_NET_SHUFFLE_SERVICE_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "io/env.h"
#include "mr/shuffle.h"
#include "net/conn_server.h"
#include "net/transport.h"

namespace antimr {
namespace net {

/// \brief Serves segment files from one Env over a transport.
///
/// Runs on a ConnServer: one accept thread plus one handler thread per live
/// connection, and a connection the fetcher closed is reaped at the next
/// accept. A connection serves any number of sequential FetchReqs (a
/// fetcher pools its conns for the life of one reduce task). Stop() closes
/// everything and joins.
class SegmentServer {
 public:
  /// `transport` and `env` are borrowed and must outlive the server.
  SegmentServer(Transport* transport, Env* env);

  SegmentServer(const SegmentServer&) = delete;
  SegmentServer& operator=(const SegmentServer&) = delete;

  /// Listen on `addr` ("" = auto) and start accepting.
  Status Start(const std::string& addr);

  /// The resolved address fetchers dial.
  const std::string& addr() const { return server_.addr(); }

  /// The accept loop's handler counts, for tests.
  const ConnServer& conns() const { return server_; }

  /// Distributed tracing hook: after each request is served while a trace
  /// is being captured, the handler thread drains its own span buffer and
  /// hands the serialized chunk here (engine::Worker accumulates these for
  /// the coordinator). Called from handler threads — must be thread-safe.
  /// Set before Start.
  void set_trace_sink(std::function<void(std::string&&)> sink) {
    trace_sink_ = std::move(sink);
  }

  void Stop() { server_.Stop(); }

 private:
  void Serve(Conn* conn);

  Env* env_;
  std::function<void(std::string&&)> trace_sink_;
  ConnServer server_;  // last: its threads call Serve, which reads the above
};

/// \brief Reduce-side fetcher: pulls segments from SegmentServers.
///
/// Keeps a small pool of idle connections per address so a reduce task
/// fetching many segments from one worker pays the dial once. Thread-safe.
class ShuffleClient {
 public:
  /// `network_mb_per_s` simulates shuffle bandwidth: each received chunk
  /// sleeps Bytes/rate. This is the only place simulated network time is
  /// charged. 0 = unthrottled.
  explicit ShuffleClient(Transport* transport, double network_mb_per_s = 0);
  ~ShuffleClient();

  ShuffleClient(const ShuffleClient&) = delete;
  ShuffleClient& operator=(const ShuffleClient&) = delete;

  /// Fetch segment `file` from the server at `addr` into *out (replacing
  /// its contents). out->fetched_bytes is the segment's stored size — the
  /// payload bytes that crossed the transport. Connection-level failures
  /// and server-reported errors come back as transient IOError so the
  /// retry layer re-fetches (from a re-placed map if the worker is gone).
  Status Fetch(const std::string& addr, const std::string& file,
               FetchedSegment* out);

  double network_mb_per_s() const { return network_mb_per_s_; }

  /// Requester label stamped into FetchReqs ("reduce:<job_id>:<index>") so
  /// remote serve spans attribute their traffic; also enables the
  /// reducer→server flow arrows when a trace is being captured.
  void set_trace_origin(std::string origin) {
    trace_origin_ = std::move(origin);
  }

 private:
  /// One request/response exchange. *server_reported distinguishes an
  /// error the server answered with (surface it) from conn-level trouble
  /// (eligible for the stale-pooled-conn redial).
  Status FetchOnce(Conn* conn, const std::string& file, uint64_t flow_id,
                   FetchedSegment* out, bool* server_reported);

  Transport* transport_;
  const double network_mb_per_s_;
  std::string trace_origin_;
  std::mutex mu_;
  std::map<std::string, std::vector<std::unique_ptr<Conn>>> idle_;
};

}  // namespace net
}  // namespace antimr

#endif  // ANTIMR_NET_SHUFFLE_SERVICE_H_
