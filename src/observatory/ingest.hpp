// cgn::observatory push ingestion — external processes feed StreamEvents
// into a running observatory over a socket.
//
// The daemon's in-process StreamDriver covers one process; the paper's
// deployment is the opposite shape: long-lived collectors (Netalyzr
// front-ends, crawler boxes) pushing observations into a central analysis
// service over unreliable links, for months. This module is that boundary,
// hardened the way the checkpoint layer is hardened:
//
//  * Framed wire codec. Every frame is a 16-byte header — u32 magic
//    ("CGNI"), u32 payload length, u64 FNV-1a checksum of the payload
//    (super::wire::fnv1a, the checkpoint checksum) — followed by the
//    payload, whose first byte is the FrameType. All integers are
//    little-endian via super::wire. Events round-trip through the same
//    scenario::codec serializers the campaign checkpoints use, so a
//    push-fed observatory reproduces batch figures byte-identically.
//  * Strict validation. Bad magic, oversized declared lengths, mid-frame
//    EOF and stalls desynchronize the stream and close the connection;
//    checksum/payload/sequence errors are counted, answered with an error
//    frame, and the connection continues. Every rejected frame lands in
//    exactly one IngestStats counter.
//  * Bounded queue + explicit backpressure. Accepted events enter a queue
//    of at most queue_capacity items. When it is full, a `park` policy
//    connection is notified (park frame) and blocks until the drain thread
//    makes room; a `shed` policy connection has the event dropped with a
//    per-kind counter — deterministic overload degradation, never
//    unbounded growth.
//  * Resume cursors. Events carry a per-campaign sequence number; the
//    server acknowledges progress (ack frames) and replies to a hello with
//    the next expected sequence. A crashed-and-restarted feeder replays
//    its deterministic campaign from the start; the client skips
//    everything below the server's cursor, so the channel's figures are
//    byte-identical to an uninterrupted push. Shed events advance the
//    cursor too (they were *accepted* and deliberately dropped), so a
//    shedding server never invites an endless retransmit loop.
//  * Multi-campaign multiplexing. Each hello names a campaign; concurrent
//    connections feed independent Observatory channels with per-campaign
//    figure sets at /figures/<campaign>.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>

#include "fault/socket_fault.hpp"
#include "observatory/observatory.hpp"
#include "observatory/socket_server.hpp"
#include "super/wire.hpp"

namespace cgn::observatory {

// --- wire protocol ----------------------------------------------------------

/// "CGNI" little-endian — first 4 bytes of every frame.
inline constexpr std::uint32_t kIngestMagic = 0x494E4743;
inline constexpr std::uint32_t kIngestProtocolVersion = 1;
/// u32 magic + u32 payload length + u64 fnv1a(payload).
inline constexpr std::size_t kIngestHeaderBytes = 16;
/// The server acks every N-th accepted event (and on done).
inline constexpr std::uint64_t kIngestAckEvery = 256;
/// Frames declaring more payload than this are rejected (bad_length) and
/// the connection closed — a giant length must never allocate.
inline constexpr std::size_t kIngestMaxFramePayload = 1u << 20;
/// SO_RCVTIMEO per push connection: a slow-loris feeder mid-frame is cut
/// off and counted (timeouts), not allowed to pin a thread forever.
inline constexpr int kIngestRecvTimeoutMs = 30000;

enum class IngestFrameType : std::uint8_t {
  // client -> server
  hello = 1,     ///< u32 protocol, str campaign, u8 policy, u64 world_seed,
                 ///< u64 plan_hash
  announce = 2,  ///< u64 cumulative announced-event total (max-merged)
  event = 3,     ///< u64 seq + encoded StreamEvent
  report = 4,    ///< str kind + encoded CampaignReport
  done = 5,      ///< stream complete; server replies done_ack after drain
  // server -> client
  resume = 16,    ///< u64 next expected seq (reply to hello)
  ack = 17,       ///< u64 cursor (next expected seq)
  park = 18,      ///< u64 queue depth; sent once before blocking the sender
  error = 19,     ///< str message
  done_ack = 20,  ///< every accepted event of this campaign is in the figures
};

/// What the server does with an accepted event when the queue is full.
enum class IngestOverloadPolicy : std::uint8_t {
  park = 0,  ///< block the connection until the drain thread makes room
  shed = 1,  ///< drop the event, count it per kind, advance the cursor
};

/// Frames a payload: header (magic, length, checksum) + payload bytes.
[[nodiscard]] std::string ingest_frame(IngestFrameType type,
                                       std::string_view body = {});

/// StreamEvent codec — delegates struct fields to scenario::codec so the
/// bytes match the campaign checkpoints exactly.
void put_stream_event(super::wire::Writer& w, const StreamEvent& event);
/// False on unknown kind or short payload (reader may also flip !ok()).
[[nodiscard]] bool get_stream_event(super::wire::Reader& r, StreamEvent& out);

void put_campaign_report(super::wire::Writer& w,
                         const super::CampaignReport& report);
[[nodiscard]] bool get_campaign_report(super::wire::Reader& r,
                                       super::CampaignReport& out);

// --- server -----------------------------------------------------------------

struct IngestConfig {
  /// Bounded ingest queue: events admitted but not yet drained into the
  /// detectors. Full queue => park or shed, per the connection's policy.
  std::size_t queue_capacity = 4096;
};

/// Point-in-time counter snapshot. Every frame the server ever saw is
/// accounted: accepted, replayed (idempotent duplicate), or in exactly one
/// reject bucket.
struct IngestStats {
  std::uint64_t connections = 0;      ///< accepted connections, lifetime
  std::uint64_t frames_accepted = 0;  ///< frames parsed and applied
  std::uint64_t events_enqueued = 0;
  std::uint64_t events_ingested = 0;  ///< drained into the detectors
  std::uint64_t events_replayed = 0;  ///< seq below cursor: skipped, acked
  std::uint64_t seq_gap = 0;          ///< seq ahead of cursor: rejected
  std::uint64_t bad_magic = 0;
  std::uint64_t bad_length = 0;
  std::uint64_t bad_checksum = 0;
  std::uint64_t truncated = 0;  ///< EOF or stall mid-frame
  std::uint64_t bad_payload = 0;
  std::uint64_t unknown_type = 0;
  std::uint64_t identity_rejected = 0;  ///< hello for a bound campaign with
                                        ///< a different world/plan identity
  std::uint64_t timeouts = 0;           ///< recv timeouts (slow loris)
  std::uint64_t parks = 0;
  std::uint64_t shed_total = 0;
  std::array<std::uint64_t, 5> shed_by_kind{};  ///< StreamEvent::Kind index
  std::uint64_t queue_depth = 0;
  std::uint64_t max_queue_depth = 0;  ///< high-water mark == max ingest lag

  [[nodiscard]] std::uint64_t rejected_total() const noexcept {
    return seq_gap + bad_magic + bad_length + bad_checksum + truncated +
           bad_payload + unknown_type + identity_rejected;
  }
};

/// The push-ingestion protocol over the shared SocketServer: each push
/// connection's thread parses frames into one bounded queue, and one drain
/// thread applies the items to the Observatory. Owned by the Observatory
/// (serve_ingest()).
class IngestServer {
 public:
  IngestServer(Observatory& obs, IngestConfig config);
  ~IngestServer();

  IngestServer(const IngestServer&) = delete;
  IngestServer& operator=(const IngestServer&) = delete;

  /// Binds 127.0.0.1:`port` (0 = ephemeral) and starts the threads.
  bool start(std::uint16_t port, std::string* error = nullptr);
  /// Stops accepting, closes every connection, joins all threads.
  void stop();

  [[nodiscard]] bool running() const noexcept { return server_.running(); }
  [[nodiscard]] std::uint16_t port() const noexcept { return server_.port(); }
  [[nodiscard]] const IngestConfig& config() const noexcept { return config_; }

  [[nodiscard]] IngestStats stats() const;
  /// Next expected sequence number of `campaign` (0 if never seen).
  [[nodiscard]] std::uint64_t cursor(const std::string& campaign) const;

  /// Test hook: freeze the drain thread so the queue backs up
  /// deterministically (backpressure / shedding drills).
  void set_drain_paused(bool paused);

 private:
  struct Item {
    enum class Kind : std::uint8_t { event, report, done } kind = Kind::event;
    std::string campaign;
    StreamEvent event;
    std::string report_kind;
    super::CampaignReport report;
    /// done items: flipped (under queue_mu_) once the drain applied it.
    std::shared_ptr<bool> done_gate;
  };

  struct CampaignState {
    std::uint64_t next_seq = 0;
    std::uint64_t world_seed = 0;
    std::uint64_t plan_hash = 0;
    bool bound = false;  ///< identity fields set by the first hello
  };

  void handle_connection(Connection& conn);
  void drain_loop();
  /// True once enqueued (or shed, which still counts as handled); false
  /// only when the server is stopping.
  bool enqueue(Item item, IngestOverloadPolicy policy, Connection& conn);
  void note_queue_depth_locked();

  Observatory& obs_;
  IngestConfig config_;

  std::thread drain_thread_;
  /// Written under queue_mu_, so a waiter on its condition variables
  /// cannot miss the flip.
  std::atomic<bool> stopping_{false};

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;  ///< drain waits: items or stop
  std::condition_variable space_cv_;  ///< parked producers wait: room or stop
  std::condition_variable drain_cv_;  ///< done-gate waiters
  std::deque<Item> queue_;
  bool drain_paused_ = false;

  mutable std::mutex cursors_mu_;
  std::map<std::string, CampaignState> campaigns_;

  // Exact cross-thread counters (several connection threads write them, so
  // the single-writer obs cells don't fit; /metrics reads them via probes).
  std::atomic<std::uint64_t> connections_{0};
  std::atomic<std::uint64_t> frames_accepted_{0};
  std::atomic<std::uint64_t> events_enqueued_{0};
  std::atomic<std::uint64_t> events_ingested_{0};
  std::atomic<std::uint64_t> events_replayed_{0};
  std::atomic<std::uint64_t> seq_gap_{0};
  std::atomic<std::uint64_t> bad_magic_{0};
  std::atomic<std::uint64_t> bad_length_{0};
  std::atomic<std::uint64_t> bad_checksum_{0};
  std::atomic<std::uint64_t> truncated_{0};
  std::atomic<std::uint64_t> bad_payload_{0};
  std::atomic<std::uint64_t> unknown_type_{0};
  std::atomic<std::uint64_t> identity_rejected_{0};
  std::atomic<std::uint64_t> timeouts_{0};
  std::atomic<std::uint64_t> parks_{0};
  std::atomic<std::uint64_t> shed_total_{0};
  std::array<std::atomic<std::uint64_t>, 5> shed_by_kind_{};
  std::atomic<std::uint64_t> max_queue_depth_{0};

  SocketServer server_;  ///< last: its threads use the members above
};

// --- client -----------------------------------------------------------------

/// A push connection failed: refused, reset, mid-frame fault injection, a
/// server error frame, or a protocol violation.
class IngestError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct PushClientConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::string campaign = "push";
  IngestOverloadPolicy policy = IngestOverloadPolicy::park;
  /// Campaign identity (hello): the server refuses to mix worlds into one
  /// campaign channel.
  std::uint64_t world_seed = 0;
  std::uint64_t plan_hash = 0;
  /// Blocking-read budget for resume/done_ack replies. Generous: done_ack
  /// waits for the server to drain a full queue.
  int reply_timeout_ms = 600000;
  /// Deterministic socket-fault injection on the send path (tests/soak).
  fault::SocketFaultProfile faults;
};

/// EventSink that frames every observation onto the socket. The same
/// StreamDriver that feeds an in-process Observatory feeds this instead —
/// that symmetry is the byte-identity argument for push-fed figures.
class PushClient : public EventSink {
 public:
  explicit PushClient(PushClientConfig config);
  ~PushClient() override;

  PushClient(const PushClient&) = delete;
  PushClient& operator=(const PushClient&) = delete;

  /// Connects, sends hello, blocks for the server's resume cursor.
  /// Throws IngestError on refusal or protocol violation.
  void connect();
  void close();
  [[nodiscard]] bool connected() const noexcept { return fd_ >= 0; }

  /// The server's next expected sequence at connect() time. ingest() calls
  /// numbered below it are skipped client-side (idempotent replay).
  [[nodiscard]] std::uint64_t resume_cursor() const noexcept {
    return resume_cursor_;
  }
  [[nodiscard]] std::uint64_t events_sent() const noexcept {
    return events_sent_;
  }
  [[nodiscard]] std::uint64_t events_skipped() const noexcept {
    return events_skipped_;
  }
  [[nodiscard]] std::uint64_t parks_seen() const noexcept { return parks_; }
  [[nodiscard]] std::uint64_t acked_cursor() const noexcept { return acked_; }

  // EventSink: every method throws IngestError when the socket dies.
  void add_stream_total(std::uint64_t n) override;
  void ingest(const StreamEvent& event) override;
  void note_stream_done() override;
  void note_campaign_report(const std::string& kind,
                            const super::CampaignReport& report) override;
  // capture_trace: inherited no-op — hop traces never cross the wire.

 private:
  void send_frame(IngestFrameType type, std::string_view body);
  void raw_send(const char* data, std::size_t n);
  /// Applies one server frame (ack/park/error/done_ack). error throws.
  void apply_server_frame(IngestFrameType type, std::string_view body);
  /// Drains frames the server already sent (non-blocking), or blocks until
  /// `until` arrives when `until != nullptr`.
  void pump_incoming(const IngestFrameType* until);

  PushClientConfig config_;
  int fd_ = -1;
  std::uint64_t next_seq_ = 0;
  std::uint64_t resume_cursor_ = 0;
  std::uint64_t announced_ = 0;
  std::uint64_t events_sent_ = 0;
  std::uint64_t events_skipped_ = 0;
  std::uint64_t parks_ = 0;
  std::uint64_t acked_ = 0;
  std::uint64_t bytes_sent_ = 0;
  bool done_acked_ = false;
  std::string rxbuf_;
};

}  // namespace cgn::observatory
