#include "observatory/http.hpp"

#include <cctype>
#include <cstdint>
#include <sstream>
#include <utility>

namespace cgn::observatory {

namespace {

std::string_view status_text(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 408:
      return "Request Timeout";
    case 413:
      return "Payload Too Large";
    case 431:
      return "Request Header Fields Too Large";
    default:
      return "Internal Server Error";
  }
}

/// Case-insensitive Content-Length scan over the request head: true for a
/// positive length, or one too long to represent. Absent or unparsable
/// reads as no body.
bool declares_body(const std::string& head) {
  std::string lower(head.size(), '\0');
  for (std::size_t i = 0; i < head.size(); ++i)
    lower[i] = static_cast<char>(
        std::tolower(static_cast<unsigned char>(head[i])));
  const std::size_t at = lower.find("content-length:");
  if (at == std::string::npos) return false;
  std::size_t i = at + sizeof("content-length:") - 1;
  while (i < lower.size() && (lower[i] == ' ' || lower[i] == '\t')) ++i;
  std::size_t value = 0;
  for (; i < lower.size() && lower[i] >= '0' && lower[i] <= '9'; ++i) {
    const auto digit = static_cast<std::size_t>(lower[i] - '0');
    if (value > (SIZE_MAX - digit) / 10) return true;
    value = value * 10 + digit;
  }
  return value > 0;
}

}  // namespace

bool HttpServer::start(std::uint16_t port, HttpHandler handler,
                       std::string* error, HttpServerConfig config) {
  return server_.start(
      port, config.recv_timeout_ms,
      [this, handler = std::move(handler)](Connection& conn) {
        handle_connection(conn, handler);
      },
      error);
}

void HttpServer::handle_connection(Connection& conn,
                                   const HttpHandler& handler) {
  std::string request;
  const ReadStatus read = conn.read_head(kMaxHttpRequestBytes, request);

  HttpResponse resp;
  if (read == ReadStatus::truncated &&
      request.size() >= kMaxHttpRequestBytes) {
    resp = {431, "text/plain; charset=utf-8", "request head too large\n"};
  } else if (read == ReadStatus::timed_out) {
    resp = {408, "text/plain; charset=utf-8", "request timed out\n"};
  } else if (request.find('\0') != std::string::npos) {
    resp = {400, "text/plain; charset=utf-8", "bad request\n"};
  } else if (declares_body(request)) {
    resp = {413, "text/plain; charset=utf-8", "request bodies not accepted\n"};
  } else {
    const std::size_t line_end = request.find('\r');
    const std::string line =
        request.substr(0, line_end == std::string::npos ? request.find('\n')
                                                        : line_end);
    std::istringstream parse(line);
    std::string method, path, version;
    parse >> method >> path >> version;
    if (method.empty() || path.empty()) {
      resp = {400, "text/plain; charset=utf-8", "bad request\n"};
    } else if (method != "GET") {
      resp = {405, "text/plain; charset=utf-8", "method not allowed\n"};
    } else {
      // Handlers see the path without the query string.
      const std::size_t q = path.find('?');
      if (q != std::string::npos) path.resize(q);
      try {
        resp = handler(path);
      } catch (const std::exception& e) {
        resp = {500, "text/plain; charset=utf-8",
                std::string("internal error: ") + e.what() + "\n"};
      }
    }
  }

  std::ostringstream head;
  head << "HTTP/1.0 " << resp.status << ' ' << status_text(resp.status)
       << "\r\nContent-Type: " << resp.content_type
       << "\r\nContent-Length: " << resp.body.size()
       << "\r\nConnection: close\r\n\r\n";
  conn.send_all(head.str() + resp.body);
  requests_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace cgn::observatory
