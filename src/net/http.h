// Minimal HTTP/1.0 server + client over net::Transport, for the
// coordinator's status surface (/metrics Prometheus text, /status JSON).
//
// Riding on Transport instead of raw sockets buys two things: the endpoint
// works identically on the in-process loopback transport (so tests exercise
// it without binding ports) and on TCP (so curl and Prometheus can scrape a
// real cluster). Traffic deliberately bypasses net/frame.h — the frame
// layer stays the single *job* wire-byte counting site, and scraping the
// metrics must not perturb the numbers being scraped.
//
// Scope is exactly what a status endpoint needs and nothing more: GET only,
// exact-path handler dispatch, one request per connection ("Connection:
// close"), no keep-alive, no chunked encoding, 8 KB request-header cap.
#ifndef ANTIMR_NET_HTTP_H_
#define ANTIMR_NET_HTTP_H_

#include <functional>
#include <map>
#include <string>

#include "common/status.h"
#include "net/conn_server.h"
#include "net/transport.h"

namespace antimr {
namespace net {

/// \brief Serves registered GET handlers over a transport.
///
/// Runs on a ConnServer, like SegmentServer: one accept thread plus one
/// handler thread per connection, reaped at the next accept once its
/// response is written, so a scraped daemon holds no thread or socket per
/// past request.
/// Handlers run on connection threads and must be thread-safe.
class HttpServer {
 public:
  /// Returns the response body; may set *content_type (defaults to
  /// "text/plain; charset=utf-8").
  using Handler = std::function<std::string(std::string* content_type)>;

  /// `transport` is borrowed and must outlive the server.
  explicit HttpServer(Transport* transport);

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Register an exact-path handler ("/status"). Call before Start.
  void Handle(const std::string& path, Handler handler);

  /// Listen on `addr` ("" = auto / ephemeral) and start accepting.
  Status Start(const std::string& addr);

  /// The resolved address clients dial.
  const std::string& addr() const { return server_.addr(); }

  void Stop() { server_.Stop(); }

 private:
  void Serve(Conn* conn);

  std::map<std::string, Handler> handlers_;
  ConnServer server_;  // last: its threads call Serve, which reads handlers_
};

/// Blocking GET of `path` from the HttpServer at `addr`; *body receives the
/// response entity. Non-200 responses come back as IOError carrying the
/// status line.
Status HttpGet(Transport* transport, const std::string& addr,
               const std::string& path, std::string* body);

}  // namespace net
}  // namespace antimr

#endif  // ANTIMR_NET_HTTP_H_
