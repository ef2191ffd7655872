#include "net/http.h"

#include <algorithm>
#include <cctype>

#include "common/logging.h"

namespace antimr {
namespace net {

namespace {

constexpr size_t kMaxHeaderBytes = 8 * 1024;

/// Read from `conn` until the CRLFCRLF header terminator (inclusive) or the
/// size cap. Byte-at-a-time is fine at status-endpoint request rates and
/// avoids buffering past the header into the (nonexistent) request body.
Status ReadHeader(Conn* conn, std::string* header) {
  header->clear();
  std::string byte;
  while (header->size() < kMaxHeaderBytes) {
    ANTIMR_RETURN_NOT_OK(conn->ReadFull(1, &byte));
    header->push_back(byte[0]);
    if (header->size() >= 4 &&
        header->compare(header->size() - 4, 4, "\r\n\r\n") == 0) {
      return Status::OK();
    }
  }
  return Status::IOError("http header exceeds " +
                         std::to_string(kMaxHeaderBytes) + " bytes");
}

std::string StatusResponse(const char* status_line, const std::string& body,
                           const std::string& content_type) {
  std::string out;
  out.reserve(body.size() + 128);
  out.append("HTTP/1.0 ").append(status_line).append("\r\n");
  out.append("Content-Type: ").append(content_type).append("\r\n");
  out.append("Content-Length: ").append(std::to_string(body.size()));
  out.append("\r\nConnection: close\r\n\r\n");
  out.append(body);
  return out;
}

}  // namespace

HttpServer::HttpServer(Transport* transport)
    : server_(transport, [this](Conn* conn) { Serve(conn); }) {}

void HttpServer::Handle(const std::string& path, Handler handler) {
  handlers_[path] = std::move(handler);
}

Status HttpServer::Start(const std::string& addr) {
  return server_.Start(addr);
}

void HttpServer::Serve(Conn* conn) {
  std::string header;
  if (!ReadHeader(conn, &header).ok()) return;
  // Request line: METHOD SP PATH SP VERSION.
  const size_t line_end = header.find("\r\n");
  const std::string line = header.substr(0, line_end);
  const size_t sp1 = line.find(' ');
  const size_t sp2 = sp1 == std::string::npos ? std::string::npos
                                              : line.find(' ', sp1 + 1);
  std::string response;
  if (sp1 == std::string::npos || sp2 == std::string::npos) {
    response = StatusResponse("400 Bad Request", "bad request line\n",
                              "text/plain; charset=utf-8");
  } else if (line.substr(0, sp1) != "GET") {
    response = StatusResponse("405 Method Not Allowed", "GET only\n",
                              "text/plain; charset=utf-8");
  } else {
    // Strip any query string: /status?x=y dispatches as /status.
    std::string path = line.substr(sp1 + 1, sp2 - sp1 - 1);
    const size_t q = path.find('?');
    if (q != std::string::npos) path.resize(q);
    const auto it = handlers_.find(path);
    if (it == handlers_.end()) {
      response = StatusResponse("404 Not Found", "no handler for " + path +
                                "\n", "text/plain; charset=utf-8");
    } else {
      std::string content_type = "text/plain; charset=utf-8";
      const std::string body = it->second(&content_type);
      response = StatusResponse("200 OK", body, content_type);
    }
  }
  conn->Write(response);  // best effort; the conn closes either way
}

Status HttpGet(Transport* transport, const std::string& addr,
               const std::string& path, std::string* body) {
  body->clear();
  std::unique_ptr<Conn> conn;
  ANTIMR_RETURN_NOT_OK(transport->Dial(addr, &conn));
  const std::string request =
      "GET " + path + " HTTP/1.0\r\nHost: " + addr +
      "\r\nConnection: close\r\n\r\n";
  ANTIMR_RETURN_NOT_OK(conn->Write(request));
  std::string header;
  ANTIMR_RETURN_NOT_OK(ReadHeader(conn.get(), &header));
  const size_t line_end = header.find("\r\n");
  const std::string status_line = header.substr(0, line_end);
  // "HTTP/1.0 200 OK" — the code sits after the first space.
  const size_t sp = status_line.find(' ');
  if (sp == std::string::npos ||
      status_line.compare(sp + 1, 4, "200 ") != 0) {
    return Status::IOError("http " + path + ": " + status_line);
  }
  // Locate Content-Length (headers are ASCII; compare case-insensitively).
  size_t content_length = std::string::npos;
  size_t pos = line_end + 2;
  while (pos < header.size()) {
    size_t eol = header.find("\r\n", pos);
    if (eol == std::string::npos || eol == pos) break;  // blank line = done
    std::string h = header.substr(pos, eol - pos);
    const size_t colon = h.find(':');
    if (colon != std::string::npos) {
      std::string name = h.substr(0, colon);
      std::transform(name.begin(), name.end(), name.begin(), [](char c) {
        return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      });
      if (name == "content-length") {
        size_t v = 0;
        bool any = false;
        for (size_t i = colon + 1; i < h.size(); ++i) {
          const char c = h[i];
          if (c == ' ') continue;
          if (c < '0' || c > '9') break;
          v = v * 10 + static_cast<size_t>(c - '0');
          any = true;
        }
        if (any) content_length = v;
      }
    }
    pos = eol + 2;
  }
  if (content_length == std::string::npos) {
    return Status::IOError("http " + path + ": missing Content-Length");
  }
  if (content_length > 0) {
    ANTIMR_RETURN_NOT_OK(conn->ReadFull(content_length, body));
  }
  conn->Close();
  return Status::OK();
}

}  // namespace net
}  // namespace antimr
