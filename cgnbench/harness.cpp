#include "harness.hpp"

#include <arpa/inet.h>
#include <malloc.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <thread>

namespace cgnbench {

double now_s() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

void Tally::check(bool ok, const std::string& what) {
  add(1, ok ? 0 : 1, what);
}

void Tally::add(std::uint64_t n, std::uint64_t bad, const std::string& what) {
  attempted += n;
  failed += bad;
  if (bad > 0 && failures.size() < 16) failures.push_back(what);
}

// --- spans ------------------------------------------------------------------

int Tracer::begin(const std::string& name) {
  // The innermost still-open span of this run is the parent; spans are
  // recorded from one thread, so "open" is "end_s not yet set".
  int parent = -1;
  for (int i = static_cast<int>(spans_.size()) - 1; i >= 0; --i) {
    const Span& s = spans_[static_cast<std::size_t>(i)];
    if (s.end_s == 0.0) {
      parent = i;
      break;
    }
  }
  spans_.push_back(Span{name, now_s(), 0.0, parent, run_});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::end(int index) {
  spans_[static_cast<std::size_t>(index)].end_s = now_s();
}

namespace {

std::string layer_of(const std::string& name) {
  return name.substr(0, name.find('.'));
}

/// Per span: duration minus the summed durations of its direct children
/// (children run sequentially inside their parent on one thread).
std::vector<double> self_times(const std::vector<Tracer::Span>& spans) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    self[i] = spans[i].end_s - spans[i].start_s;
  for (const Tracer::Span& s : spans)
    if (s.parent >= 0)
      self[static_cast<std::size_t>(s.parent)] -= s.end_s - s.start_s;
  return self;
}

}  // namespace

std::map<std::string, double> Tracer::layer_self_s() const {
  std::map<std::string, double> out;
  const std::vector<double> self = self_times(spans_);
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].run >= 0) out[layer_of(spans_[i].name)] += self[i];
  return out;
}

void Tracer::root_totals(double& total_s, double& self_s) const {
  total_s = self_s = 0.0;
  const std::vector<double> self = self_times(spans_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0 || spans_[i].run < 0) continue;
    total_s += spans_[i].end_s - spans_[i].start_s;
    self_s += self[i];
  }
}

bool Tracer::write_json(const std::string& path) const {
  std::ofstream os(path);
  os.precision(12);
  os << "{\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i ? "," : "") << "\n{\"name\":\"" << s.name
       << "\",\"start_s\":" << s.start_s << ",\"end_s\":" << s.end_s
       << ",\"parent\":" << s.parent << ",\"run\":" << s.run << '}';
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

// --- loopback HTTP ----------------------------------------------------------

HttpReply http_get(std::uint16_t port, const std::string& path,
                   int timeout_ms) {
  HttpReply reply;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return reply;
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::string raw;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) {
    const std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
    std::size_t sent = 0;
    while (sent < req.size()) {
      const ssize_t n = ::send(fd, req.data() + sent, req.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) break;
      sent += static_cast<std::size_t>(n);
    }
    char buf[16384];
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      if (n <= 0) {
        reply.ok = n == 0 && sent == req.size();  // orderly close = done
        break;
      }
      raw.append(buf, static_cast<std::size_t>(n));
    }
  }
  ::close(fd);
  const std::size_t head_end = raw.find("\r\n\r\n");
  if (!reply.ok || raw.rfind("HTTP/1.", 0) != 0 ||
      head_end == std::string::npos || raw.size() < 12) {
    reply.ok = false;
    return reply;
  }
  reply.status = std::atoi(raw.c_str() + 9);
  reply.body = raw.substr(head_end + 4);
  return reply;
}

// --- JSON well-formedness ---------------------------------------------------

namespace {

struct JsonCursor {
  const std::string& s;
  std::size_t i = 0;
  int depth = 0;

  void ws() {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\n' || s[i] == '\r' ||
                            s[i] == '\t'))
      ++i;
  }
  bool lit(const char* word) {
    const std::string w(word);
    if (s.compare(i, w.size(), w) != 0) return false;
    i += w.size();
    return true;
  }
  bool string() {
    if (i >= s.size() || s[i] != '"') return false;
    for (++i; i < s.size(); ++i) {
      const auto c = static_cast<unsigned char>(s[i]);
      if (c == '"') {
        ++i;
        return true;
      }
      if (c < 0x20) return false;
      if (c == '\\') {
        if (++i >= s.size()) return false;
        if (s[i] == 'u') {
          for (int k = 0; k < 4; ++k)
            if (++i >= s.size() ||
                !std::isxdigit(static_cast<unsigned char>(s[i])))
              return false;
        } else if (std::string("\"\\/bfnrt").find(s[i]) ==
                   std::string::npos) {
          return false;
        }
      }
    }
    return false;
  }
  bool digits() {
    const std::size_t start = i;
    while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i]))) ++i;
    return i > start;
  }
  bool number() {
    if (i < s.size() && s[i] == '-') ++i;
    if (i < s.size() && s[i] == '0')
      ++i;
    else if (!digits())
      return false;
    if (i < s.size() && s[i] == '.' && (++i, !digits())) return false;
    if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
      ++i;
      if (i < s.size() && (s[i] == '+' || s[i] == '-')) ++i;
      if (!digits()) return false;
    }
    return true;
  }
  bool value() {
    if (++depth > 64) return false;
    ws();
    bool ok = false;
    if (i >= s.size()) {
      ok = false;
    } else if (s[i] == '{') {
      ok = container('}', true);
    } else if (s[i] == '[') {
      ok = container(']', false);
    } else if (s[i] == '"') {
      ok = string();
    } else if (s[i] == 't') {
      ok = lit("true");
    } else if (s[i] == 'f') {
      ok = lit("false");
    } else if (s[i] == 'n') {
      ok = lit("null");
    } else {
      ok = number();
    }
    --depth;
    ws();
    return ok;
  }
  bool container(char close, bool object) {
    ++i;
    ws();
    if (i < s.size() && s[i] == close) {
      ++i;
      return true;
    }
    for (;;) {
      if (object) {
        ws();
        if (!string()) return false;
        ws();
        if (i >= s.size() || s[i++] != ':') return false;
      }
      if (!value()) return false;
      if (i >= s.size()) return false;
      if (s[i] == ',') {
        ++i;
        continue;
      }
      if (s[i] == close) {
        ++i;
        return true;
      }
      return false;
    }
  }
};

}  // namespace

bool json_valid(const std::string& text) {
  JsonCursor c{text};
  return c.value() && c.i == text.size();
}

// --- process probes ---------------------------------------------------------

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return static_cast<double>(std::atol(line.c_str() + 6)) / 1024.0;
  return 0.0;
}

bool reset_peak_rss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.close();
  return !clear.fail();
}

double heap_in_use_bytes() {
  return static_cast<double>(mallinfo2().uordblks);
}

double spinner_capacity(int threads, double seconds) {
  auto spin = [seconds](std::atomic<std::uint64_t>& out) {
    std::uint64_t x = 0x9E3779B97F4A7C15ull, n = 0;
    const double stop = now_s() + seconds;
    while (now_s() < stop) {
      for (int k = 0; k < 4096; ++k) x = x * 6364136223846793005ull + 1;
      n += 4096;
    }
    out.fetch_add(n + (x & 1), std::memory_order_relaxed);
  };
  std::atomic<std::uint64_t> one{0};
  spin(one);
  std::atomic<std::uint64_t> many{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) pool.emplace_back(spin, std::ref(many));
  for (std::thread& t : pool) t.join();
  return one.load() == 0 ? 0.0
                         : static_cast<double>(many.load()) /
                               static_cast<double>(one.load());
}

}  // namespace cgnbench
