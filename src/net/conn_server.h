// The accept loop every request server runs: SegmentServer (shuffle
// fetches), HttpServer (/metrics, /status, /jobs) and JobService's client
// RPC plane. One accept thread hands each connection to its own handler
// thread. A handler whose serve function returns closes its conn and marks
// itself done; the accept loop joins and frees done handlers before it adds
// the next one, so a long-lived server holds a thread and a socket only for
// the connections still being served (plus the finished ones since the last
// accept), however many it has accepted.
#ifndef ANTIMR_NET_CONN_SERVER_H_
#define ANTIMR_NET_CONN_SERVER_H_

#include <atomic>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/status.h"
#include "net/transport.h"

namespace antimr {
namespace net {

/// \brief Accepts connections and serves each on a handler thread.
class ConnServer {
 public:
  /// Serves one connection until the peer is gone or the protocol says
  /// stop. Runs on the connection's handler thread; the conn is closed when
  /// it returns.
  using ServeFn = std::function<void(Conn*)>;

  /// `transport` is borrowed and must outlive the server.
  ConnServer(Transport* transport, ServeFn serve);
  ~ConnServer();

  ConnServer(const ConnServer&) = delete;
  ConnServer& operator=(const ConnServer&) = delete;

  /// Listen on `addr` ("" = auto) and start accepting.
  Status Start(const std::string& addr);

  /// The resolved address clients dial; empty before Start.
  const std::string& addr() const { return addr_; }

  /// Stop accepting, close every live conn and join every thread.
  /// Idempotent.
  void Stop();

  /// Handler threads not yet joined: the ones serving plus the finished
  /// ones the next accept will reap.
  size_t handler_threads() const;

  /// Handlers whose serve function has not returned.
  size_t serving_handlers() const;

 private:
  struct Handler {
    std::unique_ptr<Conn> conn;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void AcceptLoop();

  Transport* transport_;
  ServeFn serve_;
  std::string addr_;
  std::unique_ptr<Listener> listener_;
  std::thread accept_thread_;
  mutable std::mutex mu_;
  bool stopping_ = false;
  std::list<std::unique_ptr<Handler>> handlers_;
};

}  // namespace net
}  // namespace antimr

#endif  // ANTIMR_NET_CONN_SERVER_H_
