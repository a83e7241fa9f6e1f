#ifndef WCOP_SERVER_HTTP_H_
#define WCOP_SERVER_HTTP_H_

/// Minimal HTTP/1.0 over a unix-domain socket — the service's local
/// transport. Deliberately tiny: one accept thread, sequential request
/// handling, Connection: close. The anonymization work happens on the
/// service's worker pool, so the endpoint only ever does small O(1)
/// request/response bookkeeping; a single-threaded loop keeps the whole
/// transport auditable and immune to connection-level races.
///
/// Defensive posture (the endpoint faces other processes, not the open
/// internet, but still fails safe): per-connection I/O timeouts so a
/// stalled client cannot wedge the loop, hard caps on header and body
/// size, and malformed requests answered with 400 rather than crashing.

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>

#include "common/result.h"
#include "common/status.h"

namespace wcop {
namespace server {

/// The largest request body the server accepts (a Content-Length above it
/// is answered with 400).
inline constexpr size_t kHttpMaxBodyBytes = 1024 * 1024;

struct HttpRequest {
  std::string method;  ///< "GET", "POST"
  std::string path;    ///< "/jobs/42"
  std::string body;
};

/// What the server reads from a request's head before its body.
struct HttpRequestHead {
  std::string method;
  std::string path;
  size_t content_length = 0;  ///< 0 when no Content-Length header is sent
};

/// Parses a request head: the bytes before the blank line that ends it,
/// that is the request line "METHOD PATH VERSION" and then one CRLF-led
/// "Name: value" line per header. Pure (no socket), so it is tested and
/// fuzzed on its own. Header names are case-insensitive; lines without a
/// colon and headers other than Content-Length are ignored. Returns
/// kInvalidArgument (the server answers 400 with its message) when the
/// request line lacks a method or a path, or when a Content-Length value
/// is not a run of decimal digits between optional blanks, exceeds
/// kHttpMaxBodyBytes (which any value that would overflow does), or
/// differs from an earlier Content-Length header.
Result<HttpRequestHead> ParseHttpRequestHead(std::string_view head);

struct HttpResponse {
  int status = 200;
  std::string body;
  /// Serialized as the Content-Type header; the Prometheus endpoint sets
  /// "text/plain; version=0.0.4", traces set "application/json".
  std::string content_type = "text/plain";
};

/// Standard reason phrase for the handful of codes the service uses.
const char* HttpReasonPhrase(int status);

class HttpServer {
 public:
  struct Options {
    std::string socket_path;  ///< required; unlinked + rebound on Listen
    int io_timeout_ms = 5000;
  };
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  /// Binds the socket (replacing a stale one left by a crashed daemon),
  /// starts the accept thread, and serves until Stop().
  static Result<std::unique_ptr<HttpServer>> Listen(const Options& options,
                                                    Handler handler);

  ~HttpServer();
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Stops accepting, joins the accept thread, unlinks the socket.
  /// Idempotent.
  void Stop();

  const std::string& socket_path() const { return options_.socket_path; }

 private:
  HttpServer() = default;

  void AcceptLoop();
  void HandleConnection(int fd);

  Options options_;
  Handler handler_;
  int listen_fd_ = -1;
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
};

/// Client half: one blocking request over the unix socket. Used by the
/// ServiceClient and directly testable against HttpServer.
Result<HttpResponse> UnixHttpCall(const std::string& socket_path,
                                  const std::string& method,
                                  const std::string& path,
                                  const std::string& body,
                                  int timeout_ms = 10000);

}  // namespace server
}  // namespace wcop

#endif  // WCOP_SERVER_HTTP_H_
