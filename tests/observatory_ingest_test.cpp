// Push-ingestion tests: wire codec round-trips, the malformed-frame
// corpus (every rejected frame lands in exactly one counter and the daemon
// stays healthy), bounded-queue backpressure and shedding, reconnect-and-
// resume figure equality, and the hardened HttpServer parsing limits.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "netcore/as_registry.hpp"
#include "obs/metrics.hpp"
#include "observatory/http.hpp"
#include "observatory/ingest.hpp"
#include "observatory/observatory.hpp"
#include "observatory/socket_server.hpp"
#include "super/wire.hpp"

namespace cgn {
namespace {

using netcore::Ipv4Address;
using netcore::Ipv4Prefix;
using netcore::RoutingTable;
using observatory::IngestFrameType;
using observatory::StreamEvent;

RoutingTable two_as_routes() {
  RoutingTable routes;
  routes.announce(Ipv4Prefix::parse("16.0.0.0/8"), 1);
  routes.announce(Ipv4Prefix::parse("17.0.0.0/8"), 2);
  return routes;
}

dht::Contact contact(std::uint8_t a, std::uint8_t b, std::uint8_t c,
                     std::uint8_t d, std::uint16_t port = 6881) {
  dht::Contact out;
  out.endpoint = {Ipv4Address(a, b, c, d), port};
  return out;
}

netalyzr::SessionResult session(netcore::Asn asn, std::uint8_t dev_octet,
                                std::uint8_t pub_octet, bool translated) {
  netalyzr::SessionResult s;
  s.asn = asn;
  s.ip_dev = Ipv4Address(192, 168, 1, dev_octet);
  s.ip_pub = Ipv4Address(16, 0, pub_octet, 1);
  s.ip_cpe = translated ? Ipv4Address(10, 64, dev_octet, 1) : *s.ip_pub;
  return s;
}

/// A deterministic mixed event stream that exercises every event kind and
/// produces nontrivial fig04/fig05 figure sets.
std::vector<StreamEvent> synthetic_stream() {
  std::vector<StreamEvent> events;
  const dht::Contact shared = contact(10, 0, 0, 7);
  for (std::uint8_t i = 1; i <= 6; ++i) {
    const dht::Contact leaker = contact(16, 0, 0, i);
    StreamEvent q;
    q.kind = StreamEvent::Kind::bt_queried;
    q.contact = leaker;
    events.push_back(q);
    StreamEvent l;
    l.kind = StreamEvent::Kind::bt_leak;
    l.contact = leaker;
    l.internal = shared;
    events.push_back(l);
    l.internal = contact(10, 0, 1, i);
    events.push_back(l);
    StreamEvent p;
    p.kind = StreamEvent::Kind::bt_ping_response;
    p.contact = leaker;
    events.push_back(p);
  }
  for (std::uint8_t i = 0; i < 12; ++i) {
    StreamEvent e;
    e.kind = StreamEvent::Kind::nz_session;
    e.session = session(1, i, static_cast<std::uint8_t>(i % 7), true);
    events.push_back(e);
  }
  for (std::size_t i = 0; i < events.size(); ++i)
    events[i].time = static_cast<double>(i + 1);
  return events;
}

/// Raw client socket for hand-crafted (including malformed) frames.
class RawIngestClient {
 public:
  explicit RawIngestClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    EXPECT_EQ(
        ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr),
        0);
  }
  ~RawIngestClient() { close(); }

  void close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  void send_bytes(std::string_view bytes) {
    ASSERT_GT(::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL), 0);
  }

  /// Reads until the peer closes (or times out); returns everything.
  std::string drain() {
    std::string out;
    char buf[1024];
    timeval tv{};
    tv.tv_sec = 5;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    for (;;) {
      const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
      if (n <= 0) break;
      out.append(buf, static_cast<std::size_t>(n));
    }
    return out;
  }

 private:
  int fd_ = -1;
};

std::string hello_frame(const std::string& campaign,
                        observatory::IngestOverloadPolicy policy =
                            observatory::IngestOverloadPolicy::park,
                        std::uint64_t world_seed = 1,
                        std::uint64_t plan_hash = 2,
                        std::uint32_t proto = observatory::
                            kIngestProtocolVersion) {
  super::wire::Writer w;
  w.u32(proto);
  w.str(campaign);
  w.u8(static_cast<std::uint8_t>(policy));
  w.u64(world_seed);
  w.u64(plan_hash);
  return observatory::ingest_frame(IngestFrameType::hello, w.bytes());
}

std::string event_frame(std::uint64_t seq, const StreamEvent& e) {
  super::wire::Writer w;
  w.u64(seq);
  observatory::put_stream_event(w, e);
  return observatory::ingest_frame(IngestFrameType::event, w.bytes());
}

/// Polls `cond` for up to 5 seconds.
template <typename F>
bool eventually(F cond) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return cond();
}

// --- wire codec -------------------------------------------------------------

TEST(ObservatoryIngestCodec, StreamEventRoundTripsEveryKind) {
  std::vector<StreamEvent> events = synthetic_stream();
  for (const StreamEvent& in : events) {
    super::wire::Writer w;
    observatory::put_stream_event(w, in);
    super::wire::Reader r(w.bytes());
    StreamEvent out;
    ASSERT_TRUE(observatory::get_stream_event(r, out));
    EXPECT_TRUE(r.done());
    EXPECT_EQ(out.kind, in.kind);
    EXPECT_EQ(out.time, in.time);
    // Re-encoding must reproduce the exact bytes (the byte-identity
    // contract rides on this).
    super::wire::Writer w2;
    observatory::put_stream_event(w2, out);
    EXPECT_EQ(w.bytes(), w2.bytes());
  }
}

TEST(ObservatoryIngestCodec, RejectsUnknownEventKind) {
  super::wire::Writer w;
  w.u8(observatory::kStreamEventKindMax + 1);
  w.f64(1.0);
  super::wire::Reader r(w.bytes());
  StreamEvent out;
  EXPECT_FALSE(observatory::get_stream_event(r, out));
}

TEST(ObservatoryIngestCodec, CampaignReportRoundTrips) {
  super::CampaignReport in;
  in.shards.resize(3);
  in.shards[0].status = super::ShardStatus::completed;
  in.shards[0].attempts = 1;
  in.shards[0].elapsed_s = 0.25;
  in.shards[1].status = super::ShardStatus::recovered;
  in.shards[1].attempts = 2;
  in.shards[1].error = "transient";
  in.shards[2].status = super::ShardStatus::quarantined;
  in.shards[2].attempts = 3;
  in.shards[2].error = "boom";

  super::wire::Writer w;
  observatory::put_campaign_report(w, in);
  super::wire::Reader r(w.bytes());
  super::CampaignReport out;
  ASSERT_TRUE(observatory::get_campaign_report(r, out));
  EXPECT_TRUE(r.done());
  ASSERT_EQ(out.shards.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(out.shards[i].status, in.shards[i].status);
    EXPECT_EQ(out.shards[i].attempts, in.shards[i].attempts);
    EXPECT_EQ(out.shards[i].elapsed_s, in.shards[i].elapsed_s);
    EXPECT_EQ(out.shards[i].error, in.shards[i].error);
  }
}

TEST(ObservatoryIngestCodec, FrameHeaderChecksumsPayload) {
  const std::string frame =
      observatory::ingest_frame(IngestFrameType::done, "xyz");
  ASSERT_EQ(frame.size(), observatory::kIngestHeaderBytes + 4);
  super::wire::Reader r(frame);
  EXPECT_EQ(r.u32(), observatory::kIngestMagic);
  EXPECT_EQ(r.u32(), 4u);
  const std::uint64_t sum = r.u64();
  EXPECT_EQ(sum, super::wire::fnv1a(frame.substr(
                     observatory::kIngestHeaderBytes)));
}

// --- malformed-frame corpus over a real socket ------------------------------

class ObservatoryIngestServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    routes_ = two_as_routes();
    obs_ = std::make_unique<observatory::Observatory>(routes_, registry_);
    observatory::IngestConfig cfg;
    cfg.queue_capacity = 4;
    std::string error;
    ASSERT_TRUE(obs_->serve_ingest(0, cfg, &error)) << error;
    server_ = obs_->ingest_server();
  }

  RoutingTable routes_;
  netcore::AsRegistry registry_;
  std::unique_ptr<observatory::Observatory> obs_;
  observatory::IngestServer* server_ = nullptr;
};

TEST_F(ObservatoryIngestServerTest, MalformedFrameCorpusIsFullyAccounted) {
  const observatory::IngestStats before = server_->stats();

  {  // truncated header: half a length prefix, then EOF
    RawIngestClient c(obs_->ingest_port());
    c.send_bytes(std::string("\x43\x47\x4e\x49\x10", 5));
    c.close();
  }
  {  // bad magic
    RawIngestClient c(obs_->ingest_port());
    c.send_bytes(std::string(observatory::kIngestHeaderBytes, 'Z'));
    c.drain();
  }
  {  // giant declared length must be rejected without allocating
    super::wire::Writer h;
    h.u32(observatory::kIngestMagic);
    h.u32(0x7fffffff);
    h.u64(0);
    RawIngestClient c(obs_->ingest_port());
    c.send_bytes(h.bytes());
    c.drain();
  }
  {  // mid-payload EOF
    const std::string frame = hello_frame("corpus");
    RawIngestClient c(obs_->ingest_port());
    c.send_bytes(std::string_view(frame).substr(0, frame.size() - 3));
    c.close();
  }
  {  // bad checksum: flip one payload byte, connection must survive and a
     // correct hello on the same connection must then be accepted
    std::string frame = hello_frame("corpus");
    frame.back() = static_cast<char>(frame.back() ^ 0x01);
    RawIngestClient c(obs_->ingest_port());
    c.send_bytes(frame);
    c.send_bytes(hello_frame("corpus"));
    ASSERT_TRUE(eventually([&] {
      return server_->stats().frames_accepted >= before.frames_accepted + 1;
    }));
  }
  {  // unknown frame type
    RawIngestClient c(obs_->ingest_port());
    c.send_bytes(hello_frame("corpus"));
    c.send_bytes(observatory::ingest_frame(
        static_cast<IngestFrameType>(99), "?"));
    ASSERT_TRUE(eventually(
        [&] { return server_->stats().unknown_type == before.unknown_type + 1; }));
  }
  {  // duplicate + out-of-order sequence numbers
    std::vector<StreamEvent> events = synthetic_stream();
    RawIngestClient c(obs_->ingest_port());
    c.send_bytes(hello_frame("corpus"));
    c.send_bytes(event_frame(0, events[0]));
    c.send_bytes(event_frame(0, events[0]));   // duplicate: replayed
    c.send_bytes(event_frame(17, events[1]));  // gap: rejected
    ASSERT_TRUE(eventually([&] {
      const observatory::IngestStats s = server_->stats();
      return s.events_replayed == before.events_replayed + 1 &&
             s.seq_gap == before.seq_gap + 1;
    }));
  }

  const observatory::IngestStats after = server_->stats();
  EXPECT_EQ(after.truncated, before.truncated + 2)
      << "half header + mid-payload EOF";
  EXPECT_EQ(after.bad_magic, before.bad_magic + 1);
  EXPECT_EQ(after.bad_length, before.bad_length + 1);
  EXPECT_EQ(after.bad_checksum, before.bad_checksum + 1);
  EXPECT_EQ(after.unknown_type, before.unknown_type + 1);
  EXPECT_EQ(after.seq_gap, before.seq_gap + 1);
  EXPECT_EQ(after.events_replayed, before.events_replayed + 1);
  EXPECT_EQ(after.rejected_total(), before.rejected_total() + 7)
      << "every rejected frame lands in exactly one counter";

  // The daemon itself stays healthy through all of it.
  const observatory::HttpResponse health = obs_->handle("/health");
  EXPECT_EQ(health.status, 200);
  EXPECT_NE(health.body.find("\"push\":{"), std::string::npos) << health.body;
  EXPECT_NE(health.body.find("\"rejected_total\":7"), std::string::npos)
      << health.body;
}

TEST_F(ObservatoryIngestServerTest, HelloIdentityMismatchIsRejected) {
  {
    RawIngestClient c(obs_->ingest_port());
    c.send_bytes(hello_frame("bound", observatory::IngestOverloadPolicy::park,
                             /*world_seed=*/1, /*plan_hash=*/2));
    ASSERT_TRUE(
        eventually([&] { return server_->stats().frames_accepted >= 1; }));
  }
  RawIngestClient c(obs_->ingest_port());
  c.send_bytes(hello_frame("bound", observatory::IngestOverloadPolicy::park,
                           /*world_seed=*/9, /*plan_hash=*/9));
  ASSERT_TRUE(
      eventually([&] { return server_->stats().identity_rejected == 1; }));
  EXPECT_NE(c.drain().find("different world"), std::string::npos);
}

TEST_F(ObservatoryIngestServerTest, ParkBackpressureBoundsTheQueue) {
  server_->set_drain_paused(true);
  const std::vector<StreamEvent> events = synthetic_stream();

  observatory::PushClientConfig cfg;
  cfg.port = obs_->ingest_port();
  cfg.campaign = "park";
  cfg.world_seed = 1;
  cfg.plan_hash = 2;
  observatory::PushClient client(cfg);
  client.connect();
  std::thread pusher([&] {
    client.add_stream_total(events.size());
    for (const StreamEvent& e : events) client.ingest(e);
  });

  // The queue must cap at its capacity (4) while the connection parks.
  ASSERT_TRUE(eventually([&] { return server_->stats().parks > 0; }));
  EXPECT_LE(server_->stats().queue_depth, 4u);
  EXPECT_LE(server_->stats().max_queue_depth, 4u);

  server_->set_drain_paused(false);
  pusher.join();
  client.note_stream_done();  // blocks until the drain applied everything
  EXPECT_EQ(obs_->events_ingested("park"), events.size());
  EXPECT_TRUE(obs_->stream_done("park"));
  EXPECT_EQ(server_->stats().events_ingested, events.size());
  EXPECT_GT(client.parks_seen(), 0u);
}

TEST_F(ObservatoryIngestServerTest, ShedPolicyDropsDeterministicallyAndCounts) {
  server_->set_drain_paused(true);
  const std::vector<StreamEvent> events = synthetic_stream();

  observatory::PushClientConfig cfg;
  cfg.port = obs_->ingest_port();
  cfg.campaign = "shed";
  cfg.policy = observatory::IngestOverloadPolicy::shed;
  cfg.world_seed = 1;
  cfg.plan_hash = 2;
  observatory::PushClient client(cfg);
  client.connect();
  client.add_stream_total(events.size());
  for (const StreamEvent& e : events) client.ingest(e);

  // Wait for the connection thread to consume everything it was sent.
  ASSERT_TRUE(eventually(
      [&] { return server_->cursor("shed") == events.size(); }));
  observatory::IngestStats st = server_->stats();
  EXPECT_EQ(st.events_enqueued + st.shed_total, events.size())
      << "every accepted event is either queued or counted shed";
  EXPECT_EQ(st.events_enqueued, 4u) << "bounded by queue capacity";
  std::uint64_t by_kind = 0;
  for (const std::uint64_t n : st.shed_by_kind) by_kind += n;
  EXPECT_EQ(by_kind, st.shed_total) << "per-kind shed counters must add up";

  server_->set_drain_paused(false);
  ASSERT_TRUE(eventually([&] {
    const observatory::IngestStats s = server_->stats();
    return s.events_ingested == s.events_enqueued;
  }));
  // Shed events advanced the cursor: the client is never asked to resend.
  EXPECT_EQ(server_->cursor("shed"), events.size());
}

TEST_F(ObservatoryIngestServerTest, ConnectionPastTheCapIsClosed) {
  std::vector<std::unique_ptr<RawIngestClient>> held;
  for (std::size_t i = 0; i < observatory::SocketServer::kMaxConnections; ++i)
    held.push_back(std::make_unique<RawIngestClient>(obs_->ingest_port()));
  ASSERT_TRUE(eventually([&] {
    return server_->stats().connections ==
           observatory::SocketServer::kMaxConnections;
  }));

  RawIngestClient extra(obs_->ingest_port());
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(extra.drain(), "") << "closed at accept, before any reply";
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(1));
  EXPECT_EQ(server_->stats().connections,
            observatory::SocketServer::kMaxConnections);
}

TEST_F(ObservatoryIngestServerTest, EmptyPushCycleIsNotStalledByDelayedAck) {
  std::vector<double> cycle_ms;
  for (int i = 0; i < 5; ++i) {
    observatory::PushClientConfig cfg;
    cfg.port = obs_->ingest_port();
    cfg.campaign = "empty";
    cfg.world_seed = 1;
    cfg.plan_hash = 2;
    const auto t0 = std::chrono::steady_clock::now();
    observatory::PushClient client(cfg);
    client.connect();
    client.note_stream_done();
    cycle_ms.push_back(std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - t0)
                           .count());
  }
  std::sort(cycle_ms.begin(), cycle_ms.end());
  EXPECT_LT(cycle_ms[2], 20.0) << "median hello -> done_ack cycle, ms";
}

TEST_F(ObservatoryIngestServerTest, ReconnectResumeReproducesFigures) {
  const std::vector<StreamEvent> events = synthetic_stream();

  // Ground truth: the same events through the in-process default channel
  // of a second observatory over the same routes.
  std::map<std::string, analysis::Figures> truth;
  {
    observatory::Observatory truth_obs(routes_, registry_);
    truth_obs.add_stream_total(events.size());
    for (const StreamEvent& e : events) truth_obs.ingest(e);
    truth_obs.note_stream_done();
    truth = truth_obs.figure_sets();
  }

  observatory::PushClientConfig cfg;
  cfg.port = obs_->ingest_port();
  cfg.campaign = "resume";
  cfg.world_seed = 1;
  cfg.plan_hash = 2;
  cfg.faults.disconnect_after_bytes = 700;  // dies mid-stream, mid-frame
  bool died = false;
  try {
    observatory::PushClient client(cfg);
    client.connect();
    client.add_stream_total(events.size());
    for (const StreamEvent& e : events) client.ingest(e);
    client.note_stream_done();
  } catch (const observatory::IngestError&) {
    died = true;
  }
  ASSERT_TRUE(died) << "the injected disconnect must fire mid-stream";

  // Second attempt: clean connection, deterministic replay from scratch;
  // the client skips below the server's cursor.
  cfg.faults = {};
  observatory::PushClient client(cfg);
  client.connect();
  EXPECT_GT(client.resume_cursor(), 0u) << "server must hand back progress";
  client.add_stream_total(events.size());
  for (const StreamEvent& e : events) client.ingest(e);
  client.note_stream_done();
  EXPECT_EQ(client.events_skipped(), client.resume_cursor());

  EXPECT_TRUE(obs_->stream_done("resume"));
  EXPECT_EQ(obs_->events_ingested("resume"), events.size());
  EXPECT_EQ(obs_->figure_sets("resume"), truth)
      << "kill + resume must converge on byte-identical figures";

  // The per-campaign figures are served at /figures/<name>.
  const observatory::HttpResponse resp = obs_->handle("/figures/resume");
  EXPECT_EQ(resp.status, 200);
  EXPECT_NE(resp.body.find("\"stream_done\":true"), std::string::npos);
  EXPECT_EQ(obs_->handle("/figures/nope").status, 404);
}

TEST_F(ObservatoryIngestServerTest, MultiCampaignStreamsStayIndependent) {
  const std::vector<StreamEvent> events = synthetic_stream();
  auto push = [&](const std::string& campaign, std::size_t take) {
    observatory::PushClientConfig cfg;
    cfg.port = obs_->ingest_port();
    cfg.campaign = campaign;
    cfg.world_seed = 1;
    cfg.plan_hash = 2;
    observatory::PushClient client(cfg);
    client.connect();
    client.add_stream_total(take);
    for (std::size_t i = 0; i < take; ++i) client.ingest(events[i]);
    client.note_stream_done();
  };
  std::thread a([&] { push("alpha", events.size()); });
  std::thread b([&] { push("beta", events.size() / 2); });
  a.join();
  b.join();
  EXPECT_EQ(obs_->events_ingested("alpha"), events.size());
  EXPECT_EQ(obs_->events_ingested("beta"), events.size() / 2);
  EXPECT_NE(obs_->figure_sets("alpha"), obs_->figure_sets("beta"));
  obs_->drop_campaign("beta");
  EXPECT_EQ(obs_->handle("/figures/beta").status, 404);
  EXPECT_EQ(obs_->handle("/figures/alpha").status, 200);
}

// --- hardened HTTP parsing --------------------------------------------------

class ObservatoryHttpHardeningTest : public ::testing::Test {
 protected:
  void start(observatory::HttpServerConfig cfg = {}) {
    std::string error;
    ASSERT_TRUE(server_.start(
        0,
        [this](const std::string& path) {
          observatory::HttpResponse r;
          r.body = path == "/big" ? big_body_ : "ok:" + path;
          return r;
        },
        &error, cfg))
        << error;
  }

  observatory::HttpServer server_;
  std::string big_body_ = std::string(4 << 20, 'x');
};

TEST_F(ObservatoryHttpHardeningTest, OversizedRequestHeadGets431) {
  start();
  RawIngestClient c(server_.port());
  c.send_bytes("GET /" + std::string(observatory::kMaxHttpRequestBytes, 'a'));
  EXPECT_NE(c.drain().find("431"), std::string::npos);
}

TEST_F(ObservatoryHttpHardeningTest, EmbeddedNulGets400) {
  start();
  RawIngestClient c(server_.port());
  c.send_bytes(std::string("GET /he\0alth HTTP/1.0\r\n\r\n", 25));
  EXPECT_NE(c.drain().find("400"), std::string::npos);
}

TEST_F(ObservatoryHttpHardeningTest, RequestBodyGets413) {
  start();
  // 2^64 must not wrap to a zero length and slip through.
  for (const char* length : {"4", "18446744073709551616"}) {
    RawIngestClient c(server_.port());
    c.send_bytes(std::string("GET /health HTTP/1.0\r\nContent-Length: ") +
                 length + "\r\n\r\nabcd");
    EXPECT_NE(c.drain().find("413"), std::string::npos) << length;
  }
}

TEST_F(ObservatoryHttpHardeningTest, SlowLorisGets408OnRecvTimeout) {
  observatory::HttpServerConfig cfg;
  cfg.recv_timeout_ms = 200;  // pins SO_RCVTIMEO: the stall must 408 fast
  start(cfg);
  RawIngestClient c(server_.port());
  c.send_bytes("GET /hea");  // never finishes the request line
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_NE(c.drain().find("408"), std::string::npos);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(3));
}

TEST_F(ObservatoryHttpHardeningTest, StalledClientBlocksNeitherOthersNorStop) {
  observatory::HttpServerConfig cfg;
  cfg.recv_timeout_ms = 2000;
  start(cfg);
  RawIngestClient loris(server_.port());
  loris.send_bytes("GET /hea");  // never finishes the request line

  const auto t0 = std::chrono::steady_clock::now();
  RawIngestClient c(server_.port());
  c.send_bytes("GET /health HTTP/1.0\r\n\r\n");
  EXPECT_NE(c.drain().find("ok:/health"), std::string::npos);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(1))
      << "a second scrape must not wait out the stalled one";

  const auto t1 = std::chrono::steady_clock::now();
  server_.stop();
  EXPECT_LT(std::chrono::steady_clock::now() - t1, std::chrono::seconds(1))
      << "stop() must not wait out the stalled connection";
}

TEST_F(ObservatoryHttpHardeningTest, BareRequestLineIsStillServed) {
  start();
  RawIngestClient c(server_.port());
  c.send_bytes("GET /metrics\n");
  EXPECT_NE(c.drain().find("ok:/metrics"), std::string::npos);
}

TEST_F(ObservatoryHttpHardeningTest, LargeBodySurvivesPartialSends) {
  start();
  RawIngestClient c(server_.port());
  c.send_bytes("GET /big HTTP/1.0\r\n\r\n");
  const std::string got = c.drain();
  const std::size_t body_at = got.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  EXPECT_EQ(got.size() - body_at - 4, big_body_.size())
      << "send() short writes must not truncate the body";
}

TEST(ObservatoryHttpMetrics, GaugeTrackMaxKeepsHighWaterMark) {
  if (!obs::kMetricsEnabled)
    GTEST_SKIP() << "metrics compiled out (-DCGN_OBS=OFF)";
  obs::Gauge g;
  g.track_max(7);
  g.track_max(3);  // lower: must not regress
  EXPECT_EQ(g.value(), 7);
  g.track_max(11);
  EXPECT_EQ(g.value(), 11);
}

}  // namespace
}  // namespace cgn
