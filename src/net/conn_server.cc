#include "net/conn_server.h"

#include <iterator>
#include <utility>

namespace antimr {
namespace net {

ConnServer::ConnServer(Transport* transport, ServeFn serve)
    : transport_(transport), serve_(std::move(serve)) {}

ConnServer::~ConnServer() { Stop(); }

Status ConnServer::Start(const std::string& addr) {
  ANTIMR_RETURN_NOT_OK(transport_->Listen(addr, &listener_));
  addr_ = listener_->addr();
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void ConnServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  // Closing the listener unblocks Accept; once the accept thread is joined
  // no handler can be added, and closing the conns unblocks their reads.
  if (listener_ != nullptr) listener_->Close();
  if (accept_thread_.joinable()) accept_thread_.join();
  std::list<std::unique_ptr<Handler>> handlers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    handlers.swap(handlers_);
  }
  for (auto& handler : handlers) handler->conn->Close();
  for (auto& handler : handlers) handler->thread.join();
}

void ConnServer::AcceptLoop() {
  while (true) {
    std::unique_ptr<Conn> conn;
    if (!listener_->Accept(&conn).ok()) return;  // closed
    std::list<std::unique_ptr<Handler>> finished;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) {
        conn->Close();
        return;
      }
      for (auto it = handlers_.begin(); it != handlers_.end();) {
        auto next = std::next(it);
        if ((*it)->done.load(std::memory_order_acquire)) {
          finished.splice(finished.end(), handlers_, it);
        }
        it = next;
      }
      auto handler = std::make_unique<Handler>();
      handler->conn = std::move(conn);
      Handler* raw = handler.get();
      raw->thread = std::thread([this, raw] {
        serve_(raw->conn.get());
        raw->conn->Close();
        raw->done.store(true, std::memory_order_release);
      });
      handlers_.push_back(std::move(handler));
    }
    // Reap outside the lock. A done handler has nothing left to run, so the
    // join is prompt, and destroying it releases its conn's socket.
    for (auto& handler : finished) handler->thread.join();
  }
}

size_t ConnServer::handler_threads() const {
  std::lock_guard<std::mutex> lock(mu_);
  return handlers_.size();
}

size_t ConnServer::serving_handlers() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t serving = 0;
  for (const auto& handler : handlers_) {
    if (!handler->done.load(std::memory_order_acquire)) ++serving;
  }
  return serving;
}

}  // namespace net
}  // namespace antimr
