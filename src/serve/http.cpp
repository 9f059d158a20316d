#include "serve/http.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>

#include "core/error.hpp"
#include "core/fmt.hpp"

namespace msehsim::serve {

namespace {

const char* status_reason(int status) {
  switch (status) {
    case 200: return "OK";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 411: return "Length Required";
    case 413: return "Payload Too Large";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

/// send() until @p text is fully written, retrying EINTR, MSG_NOSIGNAL so a
/// hung-up peer yields EPIPE instead of killing the process. Returns false
/// on any unrecoverable error (including the send timeout).
bool send_all(int fd, const std::string& text) {
  std::size_t off = 0;
  while (off < text.size()) {
    const ssize_t n = ::send(fd, text.data() + off, text.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

std::string render_response(const HttpResponse& resp) {
  std::string out = "HTTP/1.1 " + std::to_string(resp.status) + " " +
                    status_reason(resp.status) + "\r\n";
  out += "Content-Type: " + resp.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(resp.body.size()) + "\r\n";
  for (const auto& [name, value] : resp.extra_headers)
    out += name + ": " + value + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += resp.body;
  return out;
}

void send_simple(int fd, int status, const std::string& message) {
  HttpResponse resp;
  resp.status = status;
  resp.body = message + "\n";
  (void)send_all(fd, render_response(resp));
}

void set_timeout(int fd, int which, int ms) {
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = (ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, which, &tv, sizeof(tv));
}

std::string lowercase(std::string s) {
  for (char& c : s)
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  return s;
}

}  // namespace

struct HttpServer::Impl {
  int listen_fd{-1};
  std::atomic<bool> running{false};
  std::atomic<bool> stopping{false};
  std::thread acceptor;
  std::vector<std::thread> workers;
  std::mutex mu;
  std::condition_variable cv;
  std::deque<int> pending;

  ~Impl() {
    if (listen_fd >= 0) ::close(listen_fd);
  }
};

RequestHead parse_request_head(std::string_view head,
                               const HttpServerOptions& options) {
  RequestHead out;
  const auto fail = [&out](int status, std::string message) {
    out.status = status;
    out.error = std::move(message);
    return std::move(out);
  };
  HttpRequest& req = out.request;

  // Request line: METHOD SP target SP HTTP/1.x
  const std::size_t line_end = head.find("\r\n");
  {
    const std::string_view line = head.substr(0, line_end);
    const std::size_t sp1 = line.find(' ');
    const std::size_t sp2 = sp1 == std::string_view::npos
                                ? std::string_view::npos
                                : line.find(' ', sp1 + 1);
    if (sp2 == std::string_view::npos ||
        (line.substr(sp2 + 1) != "HTTP/1.1" &&
         line.substr(sp2 + 1) != "HTTP/1.0"))
      return fail(400, "malformed request line");
    req.method = line.substr(0, sp1);
    req.target = line.substr(sp1 + 1, sp2 - sp1 - 1);
    if (req.method.empty() || req.target.empty() || req.target[0] != '/')
      return fail(400, "malformed request line");
  }

  // Header fields, one per CRLF-terminated line (the last one ends the head).
  std::size_t pos = line_end == std::string_view::npos ? head.size()
                                                       : line_end + 2;
  while (pos < head.size()) {
    std::size_t eol = head.find("\r\n", pos);
    if (eol == std::string_view::npos) eol = head.size();
    const std::string_view line = head.substr(pos, eol - pos);
    pos = eol + 2;
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos || colon == 0)
      return fail(400, "malformed header field");
    std::string name = lowercase(std::string(line.substr(0, colon)));
    std::size_t vb = colon + 1;
    while (vb < line.size() && (line[vb] == ' ' || line[vb] == '\t')) ++vb;
    std::size_t ve = line.size();
    while (ve > vb && (line[ve - 1] == ' ' || line[ve - 1] == '\t')) --ve;
    req.headers.emplace(std::move(name), line.substr(vb, ve - vb));
  }

  // Body framing: Content-Length only (chunked is a 501 — no client of a
  // campaign API needs streaming uploads, and not parsing it is the safest
  // way to handle it).
  if (req.headers.count("transfer-encoding") != 0)
    return fail(501, "transfer-encoding not supported");
  if (const auto it = req.headers.find("content-length");
      it != req.headers.end()) {
    const auto parsed = parse_unsigned(it->second);
    if (!parsed.has_value()) return fail(400, "malformed content-length");
    if (*parsed > options.max_body_bytes)
      return fail(413, "request body exceeds " +
                           std::to_string(options.max_body_bytes) + " bytes");
    out.content_length = static_cast<std::size_t>(*parsed);
  } else if (req.method == "POST" || req.method == "PUT") {
    return fail(411, "content-length required");
  }
  return out;
}

HttpServer::HttpServer(HttpServerOptions options, HttpHandler handler)
    : options_(std::move(options)),
      handler_(std::move(handler)),
      impl_(std::make_unique<Impl>()) {
  require_spec(static_cast<bool>(handler_), "HttpServer: null handler");
  require_spec(options_.workers >= 1, "HttpServer: needs >= 1 worker");

  // Each error message is built only on failure, after errno is set: every
  // daemon construction binds, and an eager message costs several string
  // allocations on the success path.
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0)
    throw SpecError(std::string("HttpServer: socket(): ") +
                    std::strerror(errno));
  impl_->listen_fd = fd;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) != 1)
    throw SpecError("HttpServer: bad bind address '" + options_.bind_address +
                    "'");
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0)
    throw SpecError("HttpServer: bind(" + options_.bind_address + ":" +
                    std::to_string(options_.port) +
                    "): " + std::strerror(errno));
  if (::listen(fd, 128) != 0)
    throw SpecError(std::string("HttpServer: listen(): ") +
                    std::strerror(errno));

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0)
    throw SpecError(std::string("HttpServer: getsockname(): ") +
                    std::strerror(errno));
  port_ = ntohs(bound.sin_port);
}

HttpServer::~HttpServer() { stop(); }

namespace {

/// Reads, parses, handles, and answers one connection. Factored free so the
/// worker loop stays readable.
void serve_connection(int fd, const HttpServerOptions& options,
                      const HttpHandler& handler) {
  set_timeout(fd, SO_RCVTIMEO, options.recv_timeout_ms);
  set_timeout(fd, SO_SNDTIMEO, options.send_timeout_ms);

  // Read until the header terminator, bounded. A client that trickles or
  // stalls hits the recv timeout and is abandoned with a 408.
  std::string buf;
  std::size_t header_end = std::string::npos;
  char chunk[4096];
  while (header_end == std::string::npos) {
    if (buf.size() > options.max_header_bytes) {
      send_simple(fd, 431, "request header too large");
      return;
    }
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        send_simple(fd, 408, "timed out reading request");
      return;
    }
    if (n == 0) return;  // peer closed before a full request
    const std::size_t scan_from = buf.size() < 3 ? 0 : buf.size() - 3;
    buf.append(chunk, static_cast<std::size_t>(n));
    header_end = buf.find("\r\n\r\n", scan_from);
  }

  RequestHead parsed = parse_request_head(
      std::string_view(buf).substr(0, header_end), options);
  if (parsed.status != 0) {
    send_simple(fd, parsed.status, parsed.error);
    return;
  }
  HttpRequest& req = parsed.request;
  const std::size_t content_length = parsed.content_length;

  // curl sends "Expect: 100-continue" before large bodies and waits for the
  // interim response; not answering it stalls every big request by a
  // second.
  if (const auto it = req.headers.find("expect"); it != req.headers.end()) {
    if (lowercase(it->second).find("100-continue") != std::string::npos) {
      if (!send_all(fd, "HTTP/1.1 100 Continue\r\n\r\n")) return;
    }
  }

  req.body = buf.substr(header_end + 4);
  while (req.body.size() < content_length) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        send_simple(fd, 408, "timed out reading request body");
      return;
    }
    if (n == 0) return;
    req.body.append(chunk, static_cast<std::size_t>(n));
  }
  req.body.resize(content_length);  // ignore pipelined bytes past the body

  HttpResponse resp;
  try {
    resp = handler(req);
  } catch (const std::exception& e) {
    resp = HttpResponse{};
    resp.status = 500;
    resp.body = std::string("internal error: ") + e.what() + "\n";
  } catch (...) {
    resp = HttpResponse{};
    resp.status = 500;
    resp.body = "internal error\n";
  }
  (void)send_all(fd, render_response(resp));
}

}  // namespace

void HttpServer::start() {
  if (impl_->running.exchange(true)) return;

  // A worker writing to a client that already hung up gets EPIPE via
  // MSG_NOSIGNAL — but belt and braces for a long-lived daemon: any code
  // path that misses the flag must also not die.
  ::signal(SIGPIPE, SIG_IGN);

  for (unsigned w = 0; w < options_.workers; ++w) {
    impl_->workers.emplace_back([this] {
      for (;;) {
        int fd = -1;
        {
          std::unique_lock<std::mutex> lock(impl_->mu);
          impl_->cv.wait(lock, [this] {
            return !impl_->pending.empty() || impl_->stopping.load();
          });
          if (impl_->pending.empty()) return;  // stopping and drained
          fd = impl_->pending.front();
          impl_->pending.pop_front();
        }
        serve_connection(fd, options_, handler_);
        ::shutdown(fd, SHUT_RDWR);
        ::close(fd);
      }
    });
  }

  impl_->acceptor = std::thread([this] {
    for (;;) {
      const int fd = ::accept(impl_->listen_fd, nullptr, nullptr);
      if (fd >= 0) ::fcntl(fd, F_SETFD, FD_CLOEXEC);
      if (fd < 0) {
        if (errno == EINTR) continue;
        // stop() shut the listener down (EINVAL) — or the kernel is out
        // of descriptors, in which case accepting again immediately would
        // spin; either way, bail if stopping, retry otherwise.
        if (impl_->stopping.load()) return;
        if (errno == EMFILE || errno == ENFILE) {
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        continue;
      }
      bool admitted = false;
      {
        const std::lock_guard<std::mutex> lock(impl_->mu);
        if (impl_->pending.size() < options_.max_pending &&
            !impl_->stopping.load()) {
          impl_->pending.push_back(fd);
          admitted = true;
        }
      }
      if (admitted) {
        impl_->cv.notify_one();
      } else {
        // Admission control: a full queue answers immediately instead of
        // letting connections (and their kernel buffers) pile up unbounded.
        send_simple(fd, 503, "server saturated, retry later");
        ::close(fd);
      }
    }
  });
}

void HttpServer::stop() {
  if (!impl_->running.load()) {
    if (impl_->listen_fd >= 0) {
      ::close(impl_->listen_fd);
      impl_->listen_fd = -1;
    }
    return;
  }
  {
    // Set under the mutex: a worker that has just found the queue empty
    // and not stopping holds it until it sleeps, so the notify below cannot
    // fall between its predicate check and its wait.
    const std::lock_guard<std::mutex> lock(impl_->mu);
    if (impl_->stopping.exchange(true)) return;
  }

  // Shutting the listener down wakes accept() with an error; the stopping
  // flag tells it (and the workers, once the queue drains) to exit.
  // In-flight and already-queued requests still complete — that is the
  // graceful drain contract SIGTERM relies on. The descriptor is closed
  // only once the acceptor has exited: it reads listen_fd on every
  // accept(), and a closed number could be reused by another socket.
  ::shutdown(impl_->listen_fd, SHUT_RDWR);
  impl_->cv.notify_all();

  if (impl_->acceptor.joinable()) impl_->acceptor.join();
  ::close(impl_->listen_fd);
  impl_->listen_fd = -1;
  for (auto& w : impl_->workers)
    if (w.joinable()) w.join();
  impl_->workers.clear();
  impl_->running.store(false);
}

}  // namespace msehsim::serve
