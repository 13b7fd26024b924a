#include "observatory/socket_server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace cgn::observatory {

namespace {

void set_timeout(int fd, int option, int ms) {
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = (ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, option, &tv, sizeof tv);
}

bool head_complete(std::string_view head) {
  if (head.find("\r\n\r\n") != std::string_view::npos ||
      head.find("\n\n") != std::string_view::npos)
    return true;
  const std::size_t nl = head.find('\n');
  return nl != std::string_view::npos && nl == head.size() - 1;
}

}  // namespace

// --- connection I/O ---------------------------------------------------------

ReadStatus Connection::fill() {
  // Consumed bytes are dropped only here, when more are needed, so a
  // buffer holding many small frames is not shifted once per frame.
  buf_.erase(0, pos_);
  pos_ = 0;
  char chunk[16384];
  for (;;) {
    const ssize_t k = ::recv(fd_, chunk, sizeof chunk, 0);
    if (k > 0) {
      buf_.append(chunk, static_cast<std::size_t>(k));
      return ReadStatus::ok;
    }
    if (k < 0 && errno == EINTR) continue;
    if (k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      return ReadStatus::timed_out;
    return buf_.empty() ? ReadStatus::closed : ReadStatus::truncated;
  }
}

ReadStatus Connection::read_exact(std::size_t n, std::string& out) {
  while (buf_.size() - pos_ < n) {
    const ReadStatus st = fill();
    if (st != ReadStatus::ok) return st;
  }
  out.assign(buf_, pos_, n);
  pos_ += n;
  return ReadStatus::ok;
}

ReadStatus Connection::read_head(std::size_t max, std::string& out) {
  ReadStatus st = ReadStatus::ok;
  while (st == ReadStatus::ok && !head_complete(buf_))
    st = buf_.size() >= max ? ReadStatus::truncated : fill();
  out = std::exchange(buf_, {});
  return st;
}

bool Connection::send_all(std::string_view data) {
  while (!data.empty()) {
    const ssize_t k = ::send(fd_, data.data(), data.size(), MSG_NOSIGNAL);
    if (k < 0 && errno == EINTR) continue;
    if (k <= 0) return false;
    data.remove_prefix(static_cast<std::size_t>(k));
  }
  return true;
}

// --- server -----------------------------------------------------------------

bool SocketServer::start(std::uint16_t port, int recv_timeout_ms,
                         Handler handler, std::string* error) {
  if (running()) {
    if (error) *error = "already running";
    return false;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  const auto fail = [&](const char* what) {
    if (error) *error = std::string(what) + ": " + std::strerror(errno);
    if (fd >= 0) ::close(fd);
    return false;
  };
  if (fd < 0) return fail("socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0)
    return fail("bind");
  if (::listen(fd, SOMAXCONN) < 0) return fail("listen");
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0)
    return fail("getsockname");

  port_ = ntohs(addr.sin_port);
  handler_ = std::move(handler);
  recv_timeout_ms_ = recv_timeout_ms;
  listen_fd_ = fd;
  accept_thread_ = std::thread([this] { accept_loop(); });
  return true;
}

void SocketServer::stop() {
  if (listen_fd_ < 0) return;
  ::shutdown(listen_fd_, SHUT_RDWR);  // wakes the blocked accept()
  accept_thread_.join();
  std::list<Slot> slots;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Slot& s : slots_)
      if (s.fd >= 0) ::shutdown(s.fd, SHUT_RDWR);
    slots.swap(slots_);
  }
  for (Slot& s : slots) s.thread.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  port_ = 0;
}

void SocketServer::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down (or broken beyond repair)
    }
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = slots_.begin(); it != slots_.end();) {
      if (it->fd >= 0) {
        ++it;
        continue;
      }
      it->thread.join();
      it = slots_.erase(it);
    }
    if (slots_.size() >= kMaxConnections) {
      ::close(fd);
      continue;
    }
    const auto slot = slots_.insert(slots_.end(), Slot{fd, {}});
    slot->thread = std::thread([this, slot] { serve(slot); });
  }
}

void SocketServer::serve(std::list<Slot>::iterator slot) {
  const int fd = slot->fd;
  set_timeout(fd, SO_RCVTIMEO, recv_timeout_ms_);
  set_timeout(fd, SO_SNDTIMEO, kSendTimeoutMs);
  {
    Connection conn(fd);
    handler_(conn);
  }
  {
    // Off the roster before the close: a closed descriptor number can be
    // reused at once (by a client socket in this process), and stop() must
    // never shut that down.
    std::lock_guard<std::mutex> lock(mu_);
    slot->fd = -1;
  }
  ::close(fd);
}

}  // namespace cgn::observatory
