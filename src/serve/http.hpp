// Minimal HTTP/1.1 server over blocking sockets — the daemon's front door.
//
// Deliberately small: one accept thread feeding a bounded queue of
// connections, a fixed pool of worker threads each handling one connection
// at a time (parse request, call the handler, write response, close). No
// keep-alive, no chunked transfer, no TLS — campaign requests are
// infrequent and heavy, so per-request connection cost is noise, and every
// simplification here is one fewer state machine to get wrong in a process
// meant to stay up for months.
//
// The long-lived-process hygiene the tentpole demands lives here:
//   - every recv/send retries EINTR (a SIGTERM arriving mid-read must not
//     corrupt a request) and sends with MSG_NOSIGNAL (a client hanging up
//     mid-response must be an error return, not a process-killing SIGPIPE);
//   - per-connection SO_RCVTIMEO/SO_SNDTIMEO bound how long a stalled or
//     malicious client can pin a worker;
//   - header and body sizes are capped before any allocation grows to
//     match them (431/413);
//   - admission control at the door: when the pending-connection queue is
//     full the server answers 503 immediately instead of queueing without
//     bound;
//   - stop() drains gracefully: the listener closes, queued and in-flight
//     requests finish, then workers join.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace msehsim::serve {

struct HttpRequest {
  std::string method;   ///< e.g. "POST", as sent
  std::string target;   ///< path + optional query, as sent
  /// Header fields, names lowercased (field names are case-insensitive;
  /// values are kept verbatim). Duplicate fields keep the first value.
  std::map<std::string, std::string> headers;
  std::string body;
};

struct HttpResponse {
  int status{200};
  std::string content_type{"text/plain; charset=utf-8"};
  std::string body;
  /// Extra response headers (name, value); Content-Type/Length and
  /// Connection are emitted automatically.
  std::vector<std::pair<std::string, std::string>> extra_headers;
};

/// Handles one parsed request. Runs on a worker thread; must be
/// thread-safe. Exceptions map to a 500 with the exception text.
using HttpHandler = std::function<HttpResponse(const HttpRequest&)>;

struct HttpServerOptions {
  std::string bind_address{"127.0.0.1"};
  std::uint16_t port{0};           ///< 0 = ephemeral; see HttpServer::port()
  unsigned workers{4};
  std::size_t max_header_bytes{16 * 1024};
  std::size_t max_body_bytes{1 << 20};
  /// Socket timeouts; a worker abandons a connection that stays silent or
  /// unwritable this long (the request-timeout story).
  int recv_timeout_ms{10000};
  int send_timeout_ms{10000};
  /// Accepted connections waiting for a worker beyond this answer 503.
  std::size_t max_pending{64};
};

/// A request head as parse_request_head reads it.
struct RequestHead {
  /// 0 when the head parsed. Otherwise the status the server answers with
  /// @ref error as the body: 400 (malformed request line, header field or
  /// Content-Length), 411 (POST/PUT without Content-Length), 413 (declared
  /// body over max_body_bytes) or 501 (any Transfer-Encoding).
  int status{0};
  std::string error;
  HttpRequest request;  ///< method, target and headers; body left empty
  std::size_t content_length{0};
};

/// Parses @p head — the bytes before the blank line that ends a request
/// head: the request line, then CRLF-separated header fields — against
/// @p options.max_body_bytes. Pure (no I/O), so it accepts any bytes; the
/// server answers a non-zero status without reading the body.
[[nodiscard]] RequestHead parse_request_head(std::string_view head,
                                             const HttpServerOptions& options);

class HttpServer {
 public:
  /// Binds and listens immediately (throws SpecError on failure) but
  /// serves nothing until start().
  HttpServer(HttpServerOptions options, HttpHandler handler);
  ~HttpServer();  ///< calls stop()

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Spawns the accept thread and worker pool. Idempotent.
  void start();

  /// Graceful drain: closes the listener, lets queued and in-flight
  /// connections finish, joins every thread. Idempotent, callable from a
  /// different thread than start().
  void stop();

  /// The bound port (resolves option port 0 to the kernel's choice).
  [[nodiscard]] std::uint16_t port() const { return port_; }

  [[nodiscard]] const HttpServerOptions& options() const { return options_; }

 private:
  struct Impl;
  HttpServerOptions options_;
  HttpHandler handler_;
  std::uint16_t port_{0};
  std::unique_ptr<Impl> impl_;
};

}  // namespace msehsim::serve
