// cgn::observatory — the streaming analysis engine behind the live
// endpoint.
//
// An Observatory ingests the campaign as an ordered event stream
// (BitTorrent crawl observations and Netalyzr sessions, see StreamDriver)
// and keeps the paper's detectors *incrementally* up to date: the §4.1
// leakage clustering runs on analysis::StreamingBtAnalyzer, the §4.2
// session classification on analysis::StreamingNetalyzrClassifier, and the
// §5 coverage roll-up is derived from both on demand. Because the streaming
// engines are the same code the batch detectors delegate to — and their
// results are order-independent — the figures served mid-stream converge
// on exactly the bytes the bench binaries write to BENCH_<name>.json.
//
// Streams arrive through two doors. The in-process StreamDriver feeds the
// *default channel* (the historical single-campaign shape of /figures and
// /health). External processes push frames through an IngestServer
// (serve_ingest(); see ingest.hpp), each hello naming a campaign that gets
// its own channel — an independent detector stack with per-campaign figure
// sets at /figures/<campaign>. Both doors run the same detector code over
// the same event structs, so a push-fed channel's figures are byte-
// identical to the batch ground truth.
//
// The HTTP side (serve()) exposes:
//   GET /metrics          — Prometheus text exposition of the registry
//   GET /figures          — default-channel figure sets (bench JSON schema)
//   GET /figures/<name>   — a push campaign's figure sets (same schema)
//   GET /health           — uptime, ingest lag, windows, campaigns, push
//   GET /trace            — the latest captured hop-trace window
//
// Threading: producers call ingest()/note_*() (the StreamDriver thread
// and/or the IngestServer's drain thread); the HttpServer calls the render
// methods on one thread per request, so concurrent scrapes overlap. Every
// touch of streaming state goes through one mutex — scrape cost lands on
// the scraper, never on the simulation hot path.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <mutex>

#include "analysis/coverage.hpp"
#include "analysis/figures.hpp"
#include "analysis/stream.hpp"
#include "dht/messages.hpp"
#include "netalyzr/session.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "observatory/http.hpp"
#include "super/supervisor.hpp"

namespace cgn::observatory {

class IngestServer;
struct IngestConfig;

/// One campaign observation, as replayed by the StreamDriver.
struct StreamEvent {
  enum class Kind : std::uint8_t {
    bt_queried,        ///< crawler queried this contact
    bt_learned,        ///< contact learned from a nodes reply
    bt_ping_response,  ///< contact answered the bt_ping sweep
    bt_leak,           ///< `contact` leaked internal peer `internal`
    nz_session,        ///< one finished Netalyzr session
  };

  Kind kind = Kind::bt_queried;
  /// Simulated campaign time of the observation — drives windowing.
  double time = 0.0;
  dht::Contact contact;             ///< bt_* events (the leaker for bt_leak)
  dht::Contact internal;            ///< bt_leak only: the leaked peer
  netalyzr::SessionResult session;  ///< nz_session only
};

/// Highest StreamEvent::Kind value — wire decoders validate against it.
inline constexpr std::uint8_t kStreamEventKindMax =
    static_cast<std::uint8_t>(StreamEvent::Kind::nz_session);

/// Abstract destination for a campaign event stream. The StreamDriver
/// writes through this interface, so the exact same campaign replay can
/// feed an in-process Observatory or a PushClient framing events onto a
/// socket (ingest.hpp) — which is what makes push-fed figures a replay of
/// the in-process ones rather than a parallel implementation.
class EventSink {
 public:
  virtual ~EventSink() = default;

  /// Announces `n` more events on their way — ingest lag is
  /// (announced − ingested). Call before emitting a batch.
  virtual void add_stream_total(std::uint64_t n) = 0;
  virtual void ingest(const StreamEvent& event) = 0;
  /// Marks the stream complete.
  virtual void note_stream_done() = 0;
  /// Attaches a campaign's supervision report under `kind` (e.g.
  /// "crawl_ping", "netalyzr").
  virtual void note_campaign_report(const std::string& kind,
                                    const super::CampaignReport& report) = 0;
  /// Hop-trace capture is in-process only; remote sinks drop it.
  virtual void capture_trace(const obs::TraceRing& ring) { (void)ring; }
};

/// Per-window ingest tallies (window = floor(event.time / window_s)).
struct WindowTally {
  std::int64_t index = 0;
  std::uint64_t events = 0;
  std::uint64_t bt_contacts = 0;  ///< queried + learned + ping responses
  std::uint64_t leaks = 0;
  std::uint64_t sessions = 0;
};

struct ObservatoryConfig {
  /// Window length in simulated seconds (env knob CGN_OBSERVATORY_WINDOW_S).
  double window_s = 3600.0;
  /// Closed windows kept for /health (oldest evicted beyond this).
  std::size_t max_window_history = 48;
};

class Observatory : public EventSink {
 public:
  Observatory(const netcore::RoutingTable& routes,
              const netcore::AsRegistry& registry,
              ObservatoryConfig config = {});
  ~Observatory() override;

  Observatory(const Observatory&) = delete;
  Observatory& operator=(const Observatory&) = delete;

  // --- producer side: default channel (EventSink) --------------------------

  void ingest(const StreamEvent& event) override;
  void add_stream_total(std::uint64_t n) override;
  void note_stream_done() override;
  void note_campaign_report(const std::string& kind,
                            const super::CampaignReport& report) override;

  /// Copies the ring's retained events + kind tallies for /trace and bumps
  /// the observatory.trace.* counters by the tally deltas since the last
  /// capture of the same ring lineage.
  void capture_trace(const obs::TraceRing& ring) override;

  // --- producer side: named push-campaign channels -------------------------
  // Called by the IngestServer's drain thread; channels are created on
  // first touch and live until drop_campaign().

  void ingest(const std::string& campaign, const StreamEvent& event);
  /// Cumulative announced total, max-merged — a reconnected feeder re-
  /// announcing the same campaign never double-counts.
  void set_stream_total(const std::string& campaign, std::uint64_t total);
  void note_stream_done(const std::string& campaign);
  void note_campaign_report(const std::string& campaign,
                            const std::string& kind,
                            const super::CampaignReport& report);
  /// Forgets a finished push campaign (detectors, sessions, reports) so a
  /// long-running daemon's memory is bounded by its *live* campaigns.
  void drop_campaign(const std::string& campaign);

  // --- consumer side (any thread) ----------------------------------------

  [[nodiscard]] std::uint64_t events_ingested() const;
  [[nodiscard]] std::uint64_t stream_total() const;
  [[nodiscard]] bool stream_done() const;
  [[nodiscard]] std::uint64_t events_ingested(const std::string& campaign) const;
  [[nodiscard]] bool stream_done(const std::string& campaign) const;

  /// Current detector states (full batch-equivalent result structs).
  [[nodiscard]] analysis::BtDetectionResult bt_snapshot() const;
  [[nodiscard]] analysis::NetalyzrDetectionResult nz_snapshot() const;
  [[nodiscard]] analysis::CoverageResult coverage_snapshot() const;
  /// Transition-mechanism scoring over every battery-carrying session
  /// ingested so far (empty result in v4-only campaigns).
  [[nodiscard]] analysis::TransitionDetectionResult transition_snapshot()
      const;

  /// The bench figure sets computed from the current stream state, keyed
  /// by bench name ("fig04_clusters", "fig05_netalyzr_candidates",
  /// "tab05_coverage", plus "fig14_transition" once battery sessions
  /// appear on the stream).
  [[nodiscard]] std::map<std::string, analysis::Figures> figure_sets() const;
  /// Same, for a named push campaign (empty map when it doesn't exist).
  [[nodiscard]] std::map<std::string, analysis::Figures> figure_sets(
      const std::string& campaign) const;

  /// JSON bodies of the endpoints (also useful headless, without serve()).
  void render_figures_json(std::ostream& os) const;
  void render_health_json(std::ostream& os) const;
  void render_trace_json(std::ostream& os) const;

  // --- endpoints ----------------------------------------------------------

  /// Starts the HTTP endpoint on 127.0.0.1:`port` (0 = ephemeral).
  bool serve(std::uint16_t port, std::string* error = nullptr);
  void stop_serving();
  [[nodiscard]] bool serving() const noexcept { return server_.running(); }
  [[nodiscard]] std::uint16_t port() const noexcept { return server_.port(); }
  [[nodiscard]] std::uint64_t http_requests() const noexcept {
    return server_.requests_served();
  }

  /// Starts the push-ingestion listener on 127.0.0.1:`port` (0 =
  /// ephemeral). At most one per observatory.
  bool serve_ingest(std::uint16_t port, const IngestConfig& config,
                    std::string* error = nullptr);
  bool serve_ingest(std::uint16_t port, std::string* error = nullptr);
  void stop_ingest();
  [[nodiscard]] bool ingest_serving() const noexcept;
  [[nodiscard]] std::uint16_t ingest_port() const noexcept;
  [[nodiscard]] IngestServer* ingest_server() noexcept {
    return ingest_.get();
  }

  /// The route dispatch behind serve(), exposed for in-process tests.
  [[nodiscard]] HttpResponse handle(const std::string& path) const;

 private:
  /// One independent detector stack over one event stream. The default
  /// channel (main_) serves the in-process StreamDriver and the historical
  /// endpoint shapes; push campaigns each get their own.
  struct Channel {
    explicit Channel(const netcore::RoutingTable& routes)
        : bt(routes), nz(routes) {}
    analysis::StreamingBtAnalyzer bt;
    analysis::StreamingNetalyzrClassifier nz;
    /// Battery-carrying sessions retained verbatim: the transition
    /// verdicts need AS-level aggregates (the DS-Lite signature), so fig14
    /// re-runs the batch detector over them on demand.
    std::vector<netalyzr::SessionResult> transition_sessions;
    std::uint64_t ingested = 0;
    std::uint64_t announced = 0;
    bool done = false;
    std::map<std::string, super::CampaignReport> reports;
  };

  void roll_window_locked(double t);
  void ingest_into_locked(Channel& ch, const StreamEvent& event);
  Channel& push_channel_locked(const std::string& campaign);
  [[nodiscard]] const Channel* find_push_locked(
      const std::string& campaign) const;
  [[nodiscard]] std::map<std::string, analysis::Figures> figure_sets_locked(
      const Channel& ch) const;
  void render_figures_locked(std::ostream& os, const Channel& ch) const;
  void render_health_locked(std::ostream& os) const;
  void render_trace_locked(std::ostream& os) const;

  const netcore::RoutingTable& routes_;
  const netcore::AsRegistry& registry_;
  ObservatoryConfig config_;
  std::chrono::steady_clock::time_point started_;

  mutable std::mutex mu_;
  Channel main_;
  std::map<std::string, std::unique_ptr<Channel>> push_;
  double virtual_time_ = 0.0;
  bool window_open_ = false;
  WindowTally current_window_;
  std::vector<WindowTally> closed_windows_;
  std::uint64_t windows_closed_ = 0;
  std::vector<obs::TraceEvent> trace_events_;
  std::array<std::uint64_t, obs::TraceRing::kKindTallySlots> trace_tally_{};
  std::uint64_t trace_total_ = 0;
  std::array<std::uint64_t, obs::TraceRing::kKindTallySlots>
      trace_tally_seen_{};

  obs::Counter& events_counter_;
  obs::Counter& leaks_counter_;
  obs::Counter& sessions_counter_;
  obs::Counter& windows_counter_;

  HttpServer server_;
  std::unique_ptr<IngestServer> ingest_;
};

}  // namespace cgn::observatory
