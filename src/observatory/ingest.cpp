#include "observatory/ingest.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "scenario/result_codec.hpp"

namespace cgn::observatory {

namespace {

constexpr const char* kQueueDepthProbe = "observatory.ingest.queue_depth";
constexpr const char* kShedTotalProbe = "observatory.ingest.shed_total";
constexpr const char* kRejectedProbe = "observatory.ingest.rejected_total";
constexpr const char* kMaxLagProbe = "observatory.ingest.max_lag";

}  // namespace

// --- wire codec -------------------------------------------------------------

std::string ingest_frame(IngestFrameType type, std::string_view body) {
  std::string payload;
  payload.reserve(1 + body.size());
  payload.push_back(static_cast<char>(type));
  payload.append(body);
  super::wire::Writer h;
  h.u32(kIngestMagic);
  h.u32(static_cast<std::uint32_t>(payload.size()));
  h.u64(super::wire::fnv1a(payload));
  std::string frame = h.take();
  frame += payload;
  return frame;
}

void put_stream_event(super::wire::Writer& w, const StreamEvent& event) {
  w.u8(static_cast<std::uint8_t>(event.kind));
  w.f64(event.time);
  switch (event.kind) {
    case StreamEvent::Kind::bt_queried:
    case StreamEvent::Kind::bt_learned:
    case StreamEvent::Kind::bt_ping_response:
      scenario::codec::put_contact(w, event.contact);
      break;
    case StreamEvent::Kind::bt_leak:
      scenario::codec::put_contact(w, event.contact);
      scenario::codec::put_contact(w, event.internal);
      break;
    case StreamEvent::Kind::nz_session:
      scenario::codec::put_session(w, event.session);
      break;
  }
}

bool get_stream_event(super::wire::Reader& r, StreamEvent& out) {
  const std::uint8_t kind = r.u8();
  if (!r.ok() || kind > kStreamEventKindMax) return false;
  out.kind = static_cast<StreamEvent::Kind>(kind);
  out.time = r.f64();
  switch (out.kind) {
    case StreamEvent::Kind::bt_queried:
    case StreamEvent::Kind::bt_learned:
    case StreamEvent::Kind::bt_ping_response:
      out.contact = scenario::codec::get_contact(r);
      break;
    case StreamEvent::Kind::bt_leak:
      out.contact = scenario::codec::get_contact(r);
      out.internal = scenario::codec::get_contact(r);
      break;
    case StreamEvent::Kind::nz_session:
      out.session = scenario::codec::get_session(r);
      break;
  }
  return r.ok();
}

void put_campaign_report(super::wire::Writer& w,
                         const super::CampaignReport& report) {
  w.u32(static_cast<std::uint32_t>(report.shards.size()));
  for (const super::ShardOutcome& o : report.shards) {
    w.u8(static_cast<std::uint8_t>(o.status));
    w.u32(static_cast<std::uint32_t>(o.attempts));
    w.f64(o.elapsed_s);
    w.str(o.error);
  }
}

bool get_campaign_report(super::wire::Reader& r, super::CampaignReport& out) {
  out.shards.clear();
  const std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    super::ShardOutcome o;
    const std::uint8_t status = r.u8();
    if (status > static_cast<std::uint8_t>(
                     super::ShardStatus::deadline_aborted))
      return false;
    o.status = static_cast<super::ShardStatus>(status);
    o.attempts = static_cast<int>(r.u32());
    o.elapsed_s = r.f64();
    o.error = std::string(r.str());
    out.shards.push_back(std::move(o));
  }
  return r.ok() && out.shards.size() == n;
}

// --- server -----------------------------------------------------------------

IngestServer::IngestServer(Observatory& obs, IngestConfig config)
    : obs_(obs), config_(config) {
  if (config_.queue_capacity == 0) config_.queue_capacity = 1;
}

IngestServer::~IngestServer() { stop(); }

bool IngestServer::start(std::uint16_t port, std::string* error) {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stopping_.store(false, std::memory_order_relaxed);
  }
  if (!server_.start(
          port, kIngestRecvTimeoutMs,
          [this](Connection& conn) { handle_connection(conn); }, error))
    return false;
  auto& reg = obs::MetricsRegistry::global();
  reg.register_probe(kQueueDepthProbe, [this] {
    std::lock_guard<std::mutex> lock(queue_mu_);
    return static_cast<double>(queue_.size());
  });
  reg.register_probe(kShedTotalProbe, [this] {
    return static_cast<double>(shed_total_.load(std::memory_order_relaxed));
  });
  reg.register_probe(kRejectedProbe, [this] {
    return static_cast<double>(stats().rejected_total());
  });
  reg.register_probe(kMaxLagProbe, [this] {
    return static_cast<double>(
        max_queue_depth_.load(std::memory_order_relaxed));
  });
  drain_thread_ = std::thread([this] { drain_loop(); });
  return true;
}

void IngestServer::stop() {
  if (!running() && !drain_thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stopping_.store(true, std::memory_order_relaxed);
  }
  queue_cv_.notify_all();
  space_cv_.notify_all();
  drain_cv_.notify_all();
  server_.stop();
  if (drain_thread_.joinable()) drain_thread_.join();
  auto& reg = obs::MetricsRegistry::global();
  reg.unregister_probe(kQueueDepthProbe);
  reg.unregister_probe(kShedTotalProbe);
  reg.unregister_probe(kRejectedProbe);
  reg.unregister_probe(kMaxLagProbe);
}

IngestStats IngestServer::stats() const {
  IngestStats s;
  s.connections = connections_.load(std::memory_order_relaxed);
  s.frames_accepted = frames_accepted_.load(std::memory_order_relaxed);
  s.events_enqueued = events_enqueued_.load(std::memory_order_relaxed);
  s.events_ingested = events_ingested_.load(std::memory_order_relaxed);
  s.events_replayed = events_replayed_.load(std::memory_order_relaxed);
  s.seq_gap = seq_gap_.load(std::memory_order_relaxed);
  s.bad_magic = bad_magic_.load(std::memory_order_relaxed);
  s.bad_length = bad_length_.load(std::memory_order_relaxed);
  s.bad_checksum = bad_checksum_.load(std::memory_order_relaxed);
  s.truncated = truncated_.load(std::memory_order_relaxed);
  s.bad_payload = bad_payload_.load(std::memory_order_relaxed);
  s.unknown_type = unknown_type_.load(std::memory_order_relaxed);
  s.identity_rejected = identity_rejected_.load(std::memory_order_relaxed);
  s.timeouts = timeouts_.load(std::memory_order_relaxed);
  s.parks = parks_.load(std::memory_order_relaxed);
  s.shed_total = shed_total_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < s.shed_by_kind.size(); ++i)
    s.shed_by_kind[i] = shed_by_kind_[i].load(std::memory_order_relaxed);
  s.max_queue_depth = max_queue_depth_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    s.queue_depth = queue_.size();
  }
  return s;
}

std::uint64_t IngestServer::cursor(const std::string& campaign) const {
  std::lock_guard<std::mutex> lock(cursors_mu_);
  const auto it = campaigns_.find(campaign);
  return it == campaigns_.end() ? 0 : it->second.next_seq;
}

void IngestServer::set_drain_paused(bool paused) {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    drain_paused_ = paused;
  }
  queue_cv_.notify_all();
}

void IngestServer::handle_connection(Connection& conn) {
  connections_.fetch_add(1, std::memory_order_relaxed);
  std::string campaign;
  IngestOverloadPolicy policy = IngestOverloadPolicy::park;
  bool hello_seen = false;
  std::uint64_t since_ack = 0;
  std::string header;
  std::string payload;
  // Every rejected frame lands in exactly one counter. A stall or a
  // mid-frame EOF ends the connection; reject() answers with an error frame.
  const auto read_failed = [&](ReadStatus st) {
    if (st == ReadStatus::ok) return false;
    (st == ReadStatus::timed_out ? timeouts_ : truncated_)
        .fetch_add(1, std::memory_order_relaxed);
    return true;
  };
  const auto reject = [&](std::atomic<std::uint64_t>& counter,
                          std::string_view why) {
    counter.fetch_add(1, std::memory_order_relaxed);
    super::wire::Writer w;
    w.str(why);
    conn.send_all(ingest_frame(IngestFrameType::error, w.bytes()));
  };

  while (!stopping_.load(std::memory_order_relaxed)) {
    const ReadStatus st = conn.read_exact(kIngestHeaderBytes, header);
    if (st == ReadStatus::closed || read_failed(st)) return;
    super::wire::Reader hr(header);
    const std::uint32_t magic = hr.u32();
    const std::uint32_t frame_len = hr.u32();
    const std::uint64_t checksum = hr.u64();
    if (magic != kIngestMagic) {
      // The byte stream is desynchronized — nothing downstream can be
      // trusted, so the connection dies rather than resynchronize by guess.
      bad_magic_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (frame_len == 0 || frame_len > kIngestMaxFramePayload) {
      // A giant declared length must never allocate; reject before resize.
      reject(bad_length_, "declared payload length out of range");
      return;
    }
    if (read_failed(conn.read_exact(frame_len, payload))) return;
    if (super::wire::fnv1a(payload) != checksum) {
      // Framing is intact (exactly frame_len bytes consumed), so the
      // connection survives a corrupt payload.
      reject(bad_checksum_, "payload checksum mismatch");
      continue;
    }

    super::wire::Reader r(payload);
    const auto type = static_cast<IngestFrameType>(r.u8());
    if (!hello_seen && type != IngestFrameType::hello) {
      reject(bad_payload_, "first frame must be hello");
      return;
    }
    switch (type) {
      case IngestFrameType::hello: {
        const std::uint32_t proto = r.u32();
        const std::string name(r.str());
        const std::uint8_t pol = r.u8();
        const std::uint64_t world_seed = r.u64();
        const std::uint64_t plan_hash = r.u64();
        if (!r.done() || name.empty() ||
            pol > static_cast<std::uint8_t>(IngestOverloadPolicy::shed)) {
          reject(bad_payload_, "malformed hello");
          return;
        }
        if (proto != kIngestProtocolVersion) {
          reject(bad_payload_, "unsupported protocol version");
          return;
        }
        std::uint64_t next = 0;
        bool identity_ok = true;
        {
          std::lock_guard<std::mutex> lock(cursors_mu_);
          CampaignState& cs = campaigns_[name];
          if (cs.bound &&
              (cs.world_seed != world_seed || cs.plan_hash != plan_hash)) {
            identity_ok = false;
          } else {
            if (!cs.bound) {
              cs.bound = true;
              cs.world_seed = world_seed;
              cs.plan_hash = plan_hash;
            }
            next = cs.next_seq;
          }
        }
        if (!identity_ok) {
          reject(identity_rejected_,
                 "campaign bound to a different world/plan");
          return;
        }
        campaign = name;
        policy = static_cast<IngestOverloadPolicy>(pol);
        hello_seen = true;
        frames_accepted_.fetch_add(1, std::memory_order_relaxed);
        super::wire::Writer w;
        w.u64(next);
        conn.send_all(ingest_frame(IngestFrameType::resume, w.bytes()));
        break;
      }
      case IngestFrameType::announce: {
        const std::uint64_t total = r.u64();
        if (!r.done()) {
          reject(bad_payload_, "malformed announce");
          break;
        }
        frames_accepted_.fetch_add(1, std::memory_order_relaxed);
        obs_.set_stream_total(campaign, total);
        break;
      }
      case IngestFrameType::event: {
        const std::uint64_t seq = r.u64();
        StreamEvent ev;
        if (!get_stream_event(r, ev) || !r.done()) {
          reject(bad_payload_, "malformed event");
          break;
        }
        bool accepted = false;
        bool gap = false;
        std::uint64_t next = 0;
        {
          std::lock_guard<std::mutex> lock(cursors_mu_);
          CampaignState& cs = campaigns_[campaign];
          if (seq < cs.next_seq) {
            // Idempotent replay below the cursor (reconnected feeder).
          } else if (seq > cs.next_seq) {
            gap = true;
          } else {
            cs.next_seq = seq + 1;
            accepted = true;
          }
          next = cs.next_seq;
        }
        if (gap) {
          reject(seq_gap_, "sequence gap");
          break;
        }
        if (!accepted) {
          events_replayed_.fetch_add(1, std::memory_order_relaxed);
          break;
        }
        Item item;
        item.kind = Item::Kind::event;
        item.campaign = campaign;
        item.event = ev;
        if (!enqueue(std::move(item), policy, conn)) return;
        frames_accepted_.fetch_add(1, std::memory_order_relaxed);
        if (++since_ack >= kIngestAckEvery) {
          since_ack = 0;
          super::wire::Writer w;
          w.u64(next);
          conn.send_all(ingest_frame(IngestFrameType::ack, w.bytes()));
        }
        break;
      }
      case IngestFrameType::report: {
        Item item;
        item.kind = Item::Kind::report;
        item.campaign = campaign;
        item.report_kind = std::string(r.str());
        if (!get_campaign_report(r, item.report) || !r.done() ||
            item.report_kind.empty()) {
          reject(bad_payload_, "malformed report");
          break;
        }
        // Reports bypass the capacity check (bounded overshoot: a handful
        // per connection) — parking a report behind its own campaign's
        // parked events would deadlock a single-connection feeder.
        {
          std::lock_guard<std::mutex> lock(queue_mu_);
          queue_.push_back(std::move(item));
          note_queue_depth_locked();
        }
        queue_cv_.notify_one();
        frames_accepted_.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      case IngestFrameType::done: {
        if (!r.done()) {
          reject(bad_payload_, "malformed done");
          break;
        }
        auto gate = std::make_shared<bool>(false);
        Item item;
        item.kind = Item::Kind::done;
        item.campaign = campaign;
        item.done_gate = gate;
        {
          std::unique_lock<std::mutex> lk(queue_mu_);
          queue_.push_back(std::move(item));
          note_queue_depth_locked();
          queue_cv_.notify_all();
          drain_cv_.wait(lk, [&] {
            return stopping_.load(std::memory_order_relaxed) || *gate;
          });
        }
        if (stopping_.load(std::memory_order_relaxed)) return;
        frames_accepted_.fetch_add(1, std::memory_order_relaxed);
        super::wire::Writer w;
        w.u64(cursor(campaign));
        // One write: as two small ones, the second would wait under Nagle
        // for the client's delayed ACK of the first (~40 ms per campaign).
        conn.send_all(ingest_frame(IngestFrameType::ack, w.bytes()) +
                      ingest_frame(IngestFrameType::done_ack));
        break;
      }
      default: {
        reject(unknown_type_, "unknown frame type");
        break;
      }
    }
  }
}

bool IngestServer::enqueue(Item item, IngestOverloadPolicy policy,
                           Connection& conn) {
  std::unique_lock<std::mutex> lk(queue_mu_);
  if (queue_.size() >= config_.queue_capacity) {
    if (policy == IngestOverloadPolicy::shed) {
      // The event was accepted (its seq advanced the cursor) and is now
      // deliberately dropped — counted per kind so overload degradation is
      // fully accounted, and never retransmitted.
      const auto kind = static_cast<std::size_t>(item.event.kind);
      shed_total_.fetch_add(1, std::memory_order_relaxed);
      if (kind < shed_by_kind_.size())
        shed_by_kind_[kind].fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    parks_.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t depth = queue_.size();
    lk.unlock();
    super::wire::Writer w;
    w.u64(depth);
    conn.send_all(ingest_frame(IngestFrameType::park, w.bytes()));
    lk.lock();
    space_cv_.wait(lk, [&] {
      return stopping_.load(std::memory_order_relaxed) ||
             queue_.size() < config_.queue_capacity;
    });
    if (stopping_.load(std::memory_order_relaxed)) return false;
  }
  queue_.push_back(std::move(item));
  events_enqueued_.fetch_add(1, std::memory_order_relaxed);
  note_queue_depth_locked();
  queue_cv_.notify_one();
  return true;
}

void IngestServer::note_queue_depth_locked() {
  const auto depth = static_cast<std::uint64_t>(queue_.size());
  std::uint64_t seen = max_queue_depth_.load(std::memory_order_relaxed);
  while (depth > seen &&
         !max_queue_depth_.compare_exchange_weak(seen, depth,
                                                 std::memory_order_relaxed)) {
  }
}

void IngestServer::drain_loop() {
  for (;;) {
    Item item;
    {
      std::unique_lock<std::mutex> lk(queue_mu_);
      queue_cv_.wait(lk, [&] {
        return stopping_.load(std::memory_order_relaxed) ||
               (!queue_.empty() && !drain_paused_);
      });
      if (stopping_.load(std::memory_order_relaxed)) return;
      item = std::move(queue_.front());
      queue_.pop_front();
    }
    space_cv_.notify_one();
    switch (item.kind) {
      case Item::Kind::event:
        obs_.ingest(item.campaign, item.event);
        events_ingested_.fetch_add(1, std::memory_order_relaxed);
        break;
      case Item::Kind::report:
        obs_.note_campaign_report(item.campaign, item.report_kind,
                                  item.report);
        break;
      case Item::Kind::done:
        obs_.note_stream_done(item.campaign);
        {
          std::lock_guard<std::mutex> lk(queue_mu_);
          *item.done_gate = true;
        }
        drain_cv_.notify_all();
        break;
    }
  }
}

// --- client -----------------------------------------------------------------

PushClient::PushClient(PushClientConfig config) : config_(std::move(config)) {}

PushClient::~PushClient() { close(); }

void PushClient::connect() {
  if (fd_ >= 0) throw IngestError("already connected");
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0)
    throw IngestError(std::string("socket: ") + std::strerror(errno));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    close();
    throw IngestError("bad host: " + config_.host);
  }
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const std::string why = std::strerror(errno);
    close();
    throw IngestError("connect 127.0.0.1:" + std::to_string(config_.port) +
                      ": " + why);
  }
  next_seq_ = 0;
  resume_cursor_ = 0;
  done_acked_ = false;
  rxbuf_.clear();

  super::wire::Writer w;
  w.u32(kIngestProtocolVersion);
  w.str(config_.campaign);
  w.u8(static_cast<std::uint8_t>(config_.policy));
  w.u64(config_.world_seed);
  w.u64(config_.plan_hash);
  send_frame(IngestFrameType::hello, w.bytes());
  const IngestFrameType want = IngestFrameType::resume;
  pump_incoming(&want);
}

void PushClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void PushClient::add_stream_total(std::uint64_t n) {
  announced_ += n;
  super::wire::Writer w;
  w.u64(announced_);
  send_frame(IngestFrameType::announce, w.bytes());
}

void PushClient::ingest(const StreamEvent& event) {
  const std::uint64_t seq = next_seq_++;
  if (seq < resume_cursor_) {
    // The server already has this event from a previous connection; the
    // deterministic replay just counts it off.
    ++events_skipped_;
    return;
  }
  super::wire::Writer w;
  w.u64(seq);
  put_stream_event(w, event);
  send_frame(IngestFrameType::event, w.bytes());
  ++events_sent_;
  pump_incoming(nullptr);
}

void PushClient::note_stream_done() {
  send_frame(IngestFrameType::done, {});
  const IngestFrameType want = IngestFrameType::done_ack;
  pump_incoming(&want);
}

void PushClient::note_campaign_report(const std::string& kind,
                                      const super::CampaignReport& report) {
  super::wire::Writer w;
  w.str(kind);
  put_campaign_report(w, report);
  send_frame(IngestFrameType::report, w.bytes());
}

void PushClient::send_frame(IngestFrameType type, std::string_view body) {
  if (fd_ < 0) throw IngestError("not connected");
  const std::string frame = ingest_frame(type, body);
  raw_send(frame.data(), frame.size());
}

void PushClient::raw_send(const char* data, std::size_t n) {
  const fault::SocketFaultProfile& f = config_.faults;
  while (n > 0) {
    if (f.disconnect_after_bytes != 0 &&
        bytes_sent_ >= f.disconnect_after_bytes) {
      close();
      throw IngestError("fault injection: disconnect after " +
                        std::to_string(f.disconnect_after_bytes) + " bytes");
    }
    std::size_t chunk = n;
    if (f.max_write_bytes != 0) chunk = std::min(chunk, f.max_write_bytes);
    if (f.disconnect_after_bytes != 0)
      chunk = std::min(chunk, static_cast<std::size_t>(
                                  f.disconnect_after_bytes - bytes_sent_));
    const ssize_t k = ::send(fd_, data, chunk, MSG_NOSIGNAL);
    if (k < 0) {
      if (errno == EINTR) continue;
      const std::string why = std::strerror(errno);
      close();
      throw IngestError("send: " + why);
    }
    bytes_sent_ += static_cast<std::uint64_t>(k);
    data += k;
    n -= static_cast<std::size_t>(k);
    if (f.write_delay_us > 0 && n > 0)
      ::usleep(static_cast<useconds_t>(f.write_delay_us));
  }
}

void PushClient::apply_server_frame(IngestFrameType type,
                                    std::string_view body) {
  super::wire::Reader r(body);
  switch (type) {
    case IngestFrameType::resume:
      resume_cursor_ = r.u64();
      break;
    case IngestFrameType::ack:
      acked_ = r.u64();
      break;
    case IngestFrameType::park:
      ++parks_;
      break;
    case IngestFrameType::done_ack:
      done_acked_ = true;
      break;
    case IngestFrameType::error: {
      const std::string message(r.str());
      close();
      throw IngestError("server: " +
                        (message.empty() ? "unspecified error" : message));
    }
    default:
      close();
      throw IngestError("unexpected server frame type " +
                        std::to_string(static_cast<int>(type)));
  }
}

void PushClient::pump_incoming(const IngestFrameType* until) {
  for (;;) {
    // Parse every complete frame already buffered.
    while (rxbuf_.size() >= kIngestHeaderBytes) {
      super::wire::Reader hr(
          std::string_view(rxbuf_).substr(0, kIngestHeaderBytes));
      const std::uint32_t magic = hr.u32();
      const std::uint32_t frame_len = hr.u32();
      const std::uint64_t checksum = hr.u64();
      if (magic != kIngestMagic || frame_len == 0) {
        close();
        throw IngestError("desynchronized server stream");
      }
      if (rxbuf_.size() < kIngestHeaderBytes + frame_len) break;
      const std::string payload =
          rxbuf_.substr(kIngestHeaderBytes, frame_len);
      rxbuf_.erase(0, kIngestHeaderBytes + frame_len);
      if (super::wire::fnv1a(payload) != checksum) {
        close();
        throw IngestError("corrupt server frame");
      }
      const auto type = static_cast<IngestFrameType>(
          static_cast<std::uint8_t>(payload[0]));
      apply_server_frame(type, std::string_view(payload).substr(1));
      if (until != nullptr && type == *until) return;
    }
    if (fd_ < 0) {
      if (until == nullptr) return;
      throw IngestError("connection closed before reply");
    }

    pollfd pfd{};
    pfd.fd = fd_;
    pfd.events = POLLIN;
    const int timeout_ms = until == nullptr ? 0 : config_.reply_timeout_ms;
    const int rv = ::poll(&pfd, 1, timeout_ms);
    if (rv < 0) {
      if (errno == EINTR) continue;
      const std::string why = std::strerror(errno);
      close();
      throw IngestError("poll: " + why);
    }
    if (rv == 0) {
      if (until == nullptr) return;  // nothing pending; stay non-blocking
      close();
      throw IngestError("timed out waiting for server reply");
    }
    char buf[4096];
    const ssize_t k = ::recv(fd_, buf, sizeof(buf), 0);
    if (k > 0) {
      rxbuf_.append(buf, static_cast<std::size_t>(k));
      continue;
    }
    if (k < 0 && errno == EINTR) continue;
    if (k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (until == nullptr) return;
      continue;
    }
    close();
    throw IngestError("server closed the connection");
  }
}

}  // namespace cgn::observatory
