#include "server/http.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>

namespace wcop {
namespace server {

namespace {

constexpr size_t kMaxHeaderBytes = 16 * 1024;

void SetIoTimeouts(int fd, int timeout_ms) {
  struct timeval tv;
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

/// Writes all of `data`, tolerating short writes. False on error/timeout.
bool WriteAll(int fd, std::string_view data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) {
        continue;
      }
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

/// Reads until `raw` contains the header terminator or a cap/timeout
/// trips. Returns false on connection error.
bool ReadUntilHeaderEnd(int fd, std::string* raw, size_t* header_end) {
  char buf[4096];
  while (raw->size() < kMaxHeaderBytes) {
    const size_t at = raw->find("\r\n\r\n");
    if (at != std::string::npos) {
      *header_end = at + 4;
      return true;
    }
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) {
        continue;
      }
      return false;  // timeout (slow client), reset, or premature close
    }
    raw->append(buf, static_cast<size_t>(n));
  }
  return false;  // header cap exceeded
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

/// The value of one Content-Length header: digits between optional blanks,
/// at most kHttpMaxBodyBytes. The digits are accumulated only up to the
/// cap, so no value can wrap.
Result<size_t> ParseContentLengthValue(std::string_view value) {
  const size_t first = value.find_first_not_of(" \t");
  const size_t last = value.find_last_not_of(" \t");
  if (first == std::string_view::npos) {
    return Status::InvalidArgument("empty Content-Length");
  }
  size_t length = 0;
  for (const char c : value.substr(first, last - first + 1)) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument("Content-Length is not a number");
    }
    length = length * 10 + static_cast<size_t>(c - '0');
    if (length > kHttpMaxBodyBytes) {
      return Status::InvalidArgument("request body too large");
    }
  }
  return length;
}

std::string SerializeResponse(const HttpResponse& response) {
  std::string out = "HTTP/1.0 " + std::to_string(response.status) + " " +
                    HttpReasonPhrase(response.status) + "\r\n";
  out += "Content-Type: " +
         (response.content_type.empty() ? std::string("text/plain")
                                        : response.content_type) +
         "\r\n";
  out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += response.body;
  return out;
}

Status BindUnixSocket(const std::string& path, int* out_fd) {
  if (path.empty()) {
    return Status::InvalidArgument("socket_path is required");
  }
  struct sockaddr_un addr;
  if (path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("socket path too long: '" + path + "'");
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError("socket(): " + std::string(std::strerror(errno)));
  }
  // A crashed daemon leaves its socket file behind; rebinding over it is
  // the socket-flavoured janitor sweep.
  ::unlink(path.c_str());
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size());
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IoError("bind '" + path + "': " + err);
  }
  if (::listen(fd, 64) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    ::unlink(path.c_str());
    return Status::IoError("listen '" + path + "': " + err);
  }
  *out_fd = fd;
  return Status::OK();
}

}  // namespace

Result<HttpRequestHead> ParseHttpRequestHead(std::string_view head) {
  const size_t line_end = std::min(head.find("\r\n"), head.size());
  const std::string_view request_line = head.substr(0, line_end);
  const size_t sp1 = request_line.find(' ');
  const size_t sp2 = sp1 == std::string_view::npos
                         ? std::string_view::npos
                         : request_line.find(' ', sp1 + 1);
  if (sp1 == 0 || sp2 == std::string_view::npos || sp2 == sp1 + 1) {
    return Status::InvalidArgument("malformed request line");
  }
  HttpRequestHead parsed;
  parsed.method = std::string(request_line.substr(0, sp1));
  parsed.path = std::string(request_line.substr(sp1 + 1, sp2 - sp1 - 1));
  bool seen_length = false;
  for (size_t pos = line_end; pos < head.size();) {
    pos += 2;  // the CRLF that ends the previous line
    const size_t eol = std::min(head.find("\r\n", pos), head.size());
    const std::string_view line = head.substr(pos, eol - pos);
    pos = eol;
    const size_t colon = line.find(':');
    if (colon == std::string_view::npos ||
        !EqualsIgnoreCase(line.substr(0, colon), "content-length")) {
      continue;
    }
    WCOP_ASSIGN_OR_RETURN(const size_t length,
                          ParseContentLengthValue(line.substr(colon + 1)));
    if (seen_length && length != parsed.content_length) {
      return Status::InvalidArgument("conflicting Content-Length headers");
    }
    parsed.content_length = length;
    seen_length = true;
  }
  return parsed;
}

const char* HttpReasonPhrase(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 202:
      return "Accepted";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 429:
      return "Too Many Requests";
    case 500:
      return "Internal Server Error";
    case 503:
      return "Service Unavailable";
    default:
      return "Unknown";
  }
}

Result<std::unique_ptr<HttpServer>> HttpServer::Listen(
    const Options& options, Handler handler) {
  if (handler == nullptr) {
    return Status::InvalidArgument("handler is required");
  }
  auto server = std::unique_ptr<HttpServer>(new HttpServer());
  server->options_ = options;
  server->handler_ = std::move(handler);
  WCOP_RETURN_IF_ERROR(
      BindUnixSocket(options.socket_path, &server->listen_fd_));
  server->accept_thread_ =
      std::thread(&HttpServer::AcceptLoop, server.get());
  return server;
}

HttpServer::~HttpServer() { Stop(); }

void HttpServer::Stop() {
  if (stopping_.exchange(true)) {
    if (accept_thread_.joinable()) {
      accept_thread_.join();
    }
    return;
  }
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  ::unlink(options_.socket_path.c_str());
}

void HttpServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    struct pollfd pfd;
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    pfd.revents = 0;
    // Short poll so Stop() is observed promptly without needing a
    // self-pipe.
    const int ready = ::poll(&pfd, 1, 100);
    if (ready <= 0) {
      continue;
    }
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      continue;
    }
    HandleConnection(fd);
    ::close(fd);
  }
}

void HttpServer::HandleConnection(int fd) {
  SetIoTimeouts(fd, options_.io_timeout_ms);
  std::string raw;
  size_t header_end = 0;
  if (!ReadUntilHeaderEnd(fd, &raw, &header_end)) {
    // Slow, dead, or oversized client: drop the connection; the loop
    // moves on to the next one.
    return;
  }
  // The head ends with the blank line's CRLF CRLF, which is not part of it.
  Result<HttpRequestHead> head =
      ParseHttpRequestHead(std::string_view(raw).substr(0, header_end - 4));
  if (!head.ok()) {
    HttpResponse bad;
    bad.status = 400;
    bad.body = head.status().message() + "\n";
    WriteAll(fd, SerializeResponse(bad));
    return;
  }
  HttpRequest request;
  request.method = std::move(head->method);
  request.path = std::move(head->path);
  const size_t content_length = head->content_length;
  request.body = raw.substr(header_end);
  char buf[4096];
  while (request.body.size() < content_length) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) {
        continue;
      }
      return;  // body never arrived in time
    }
    request.body.append(buf, static_cast<size_t>(n));
  }
  request.body.resize(content_length);

  const HttpResponse response = handler_(request);
  WriteAll(fd, SerializeResponse(response));
}

Result<HttpResponse> UnixHttpCall(const std::string& socket_path,
                                  const std::string& method,
                                  const std::string& path,
                                  const std::string& body, int timeout_ms) {
  struct sockaddr_un addr;
  if (socket_path.empty() || socket_path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("bad socket path '" + socket_path + "'");
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError("socket(): " + std::string(std::strerror(errno)));
  }
  SetIoTimeouts(fd, timeout_ms);
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size());
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IoError("connect '" + socket_path + "': " + err);
  }
  std::string request = method + " " + path + " HTTP/1.0\r\n";
  request += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  request += "Connection: close\r\n\r\n";
  request += body;
  if (!WriteAll(fd, request)) {
    ::close(fd);
    return Status::IoError("send to '" + socket_path + "' failed");
  }

  std::string raw;
  char buf[4096];
  while (raw.size() < kMaxHeaderBytes + kHttpMaxBodyBytes) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n < 0) {
      ::close(fd);
      return Status::IoError("recv from '" + socket_path +
                             "': " + std::string(std::strerror(errno)));
    }
    if (n == 0) {
      break;  // Connection: close — EOF ends the response
    }
    raw.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);

  const size_t header_end = raw.find("\r\n\r\n");
  if (header_end == std::string::npos) {
    return Status::IoError("truncated HTTP response");
  }
  // Status line: "HTTP/1.0 <code> <reason>".
  const size_t sp = raw.find(' ');
  if (sp == std::string::npos || sp + 4 > raw.size()) {
    return Status::ParseError("malformed HTTP status line");
  }
  HttpResponse response;
  response.status = std::atoi(raw.c_str() + sp + 1);
  if (response.status < 100 || response.status > 599) {
    return Status::ParseError("malformed HTTP status code");
  }
  // Surface the Content-Type header so clients (and tests) can check
  // e.g. the Prometheus exposition version without re-parsing raw bytes.
  {
    const std::string_view headers =
        std::string_view(raw).substr(0, header_end);
    size_t pos = headers.find("\r\n");
    while (pos != std::string_view::npos && pos + 2 < headers.size()) {
      pos += 2;
      size_t eol = headers.find("\r\n", pos);
      if (eol == std::string_view::npos) {
        eol = headers.size();
      }
      const std::string_view line = headers.substr(pos, eol - pos);
      const size_t colon = line.find(':');
      if (colon != std::string_view::npos &&
          EqualsIgnoreCase(line.substr(0, colon), "content-type")) {
        size_t v = colon + 1;
        while (v < line.size() && line[v] == ' ') {
          ++v;
        }
        response.content_type = std::string(line.substr(v));
        break;
      }
      pos = eol;
    }
  }
  response.body = raw.substr(header_end + 4);
  return response;
}

}  // namespace server
}  // namespace wcop
