// Minimal blocking HTTP/1.0 server for the observatory's pull endpoints.
//
// Deliberately tiny: one request per connection (Connection: close), GET
// only, loopback only, served over the shared SocketServer — so each
// connection gets its own thread, and a stalled client holds only its own.
// That is exactly what a Prometheus scraper or a curl in a CI script
// needs, and it keeps the serving path off every simulation hot path — the
// sim never blocks on a socket; scrapers pay for their own snapshots.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

#include "observatory/socket_server.hpp"

namespace cgn::observatory {

/// A rendered HTTP response body plus its media type.
struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

/// Route handler: receives the request path (no host, no query split —
/// handlers that care can parse), returns the response. Called on the
/// connection's thread, so calls for concurrent requests may overlap; it
/// must synchronize with the rest of the process itself.
using HttpHandler = std::function<HttpResponse(const std::string& path)>;

/// Request-head cap: a longer head gets 431.
inline constexpr std::size_t kMaxHttpRequestBytes = 8192;

/// A public endpoint-shaped daemon must bound what a client can make it
/// buffer: oversized request heads get 431, a slow-loris that stalls
/// mid-request gets 408 when the receive timeout fires, requests carrying
/// a body get 413 — all explicit 4xx replies instead of a silent close.
struct HttpServerConfig {
  int recv_timeout_ms = 5000;  ///< SO_RCVTIMEO; a stalled client gets 408
};

class HttpServer {
 public:
  HttpServer() = default;

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds 127.0.0.1:`port` (0 picks an ephemeral port; see port()) and
  /// starts serving. Returns false with `*error` set when the socket can't
  /// be bound. Calling start() twice without stop() fails.
  bool start(std::uint16_t port, HttpHandler handler,
             std::string* error = nullptr, HttpServerConfig config = {});

  /// Stops accepting, closes every connection, joins all threads.
  void stop() { server_.stop(); }

  [[nodiscard]] bool running() const noexcept { return server_.running(); }

  /// The bound port (the kernel's pick when start() was given 0).
  [[nodiscard]] std::uint16_t port() const noexcept { return server_.port(); }

  /// Requests answered, any status. Readable from any thread.
  [[nodiscard]] std::uint64_t requests_served() const noexcept {
    return requests_.load(std::memory_order_relaxed);
  }

 private:
  void handle_connection(Connection& conn, const HttpHandler& handler);

  std::atomic<std::uint64_t> requests_{0};
  SocketServer server_;  ///< last: its threads use the members above
};

}  // namespace cgn::observatory
