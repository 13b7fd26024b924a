// The observatory's one socket server, shared by the HTTP pull endpoints
// (http.hpp) and push ingestion (ingest.hpp).
//
// Loopback only, blocking I/O, one thread per connection: an accept thread
// admits at most kMaxConnections live connections (one past the cap is
// closed at accept) and gives each its own thread, which sets the socket
// timeouts and runs the protocol handler.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>

namespace cgn::observatory {

enum class ReadStatus : std::uint8_t {
  ok,
  closed,     ///< EOF before the first byte (clean disconnect)
  truncated,  ///< EOF or hard error mid-read, or the size cap reached
  timed_out,  ///< SO_RCVTIMEO fired (slow loris)
};

/// One accepted connection: buffered reads and a full send over its fd.
class Connection {
 public:
  explicit Connection(int fd) : fd_(fd) {}

  /// Reads exactly `n` bytes into `out`, riding out EINTR and partial reads.
  ReadStatus read_exact(std::size_t n, std::string& out);
  /// Reads a request head into `out` as the connection's first read:
  /// through a blank line, or a lone complete line ("GET /x\n" from a
  /// hand-rolled probe). `truncated` once `max` bytes came without an end.
  ReadStatus read_head(std::size_t max, std::string& out);
  /// Sends all of `data` across short writes and EINTR, never raising
  /// SIGPIPE. False when the peer is gone or SO_SNDTIMEO fired.
  bool send_all(std::string_view data);

 private:
  /// Appends one recv() to buf_; `ok` when bytes arrived.
  ReadStatus fill();

  int fd_;
  std::string buf_;      ///< received bytes; those from pos_ on are unread
  std::size_t pos_ = 0;
};

class SocketServer {
 public:
  using Handler = std::function<void(Connection&)>;

  /// Live connections; one more is closed at accept.
  static constexpr std::size_t kMaxConnections = 16;
  /// SO_SNDTIMEO: a peer that stops reading is dropped.
  static constexpr int kSendTimeoutMs = 5000;

  SocketServer() = default;
  ~SocketServer() { stop(); }

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Binds 127.0.0.1:`port` (0 = ephemeral) and starts accepting; each
  /// connection runs `handler` on its own thread with SO_RCVTIMEO set to
  /// `recv_timeout_ms`. False with `*error` set when the socket can't be
  /// bound or the server already runs.
  bool start(std::uint16_t port, int recv_timeout_ms, Handler handler,
             std::string* error);
  /// Stops accepting, shuts down every live connection (blocked reads
  /// return EOF at once), joins all threads. Idempotent.
  void stop();

  [[nodiscard]] bool running() const noexcept { return listen_fd_ >= 0; }
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

 private:
  struct Slot {
    int fd;  ///< -1 once the handler returned: off the roster, to reap
    std::thread thread;
  };

  void accept_loop();
  void serve(std::list<Slot>::iterator slot);

  Handler handler_;
  int recv_timeout_ms_ = 0;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;

  std::mutex mu_;
  std::list<Slot> slots_;  ///< connection roster (iterators stay valid)

  std::thread accept_thread_;
};

}  // namespace cgn::observatory
