#include "observatory/observatory.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "observatory/ingest.hpp"
#include "sim/network.hpp"

namespace cgn::observatory {

namespace {

constexpr const char* kIngestLagProbe = "observatory.ingest_lag";
constexpr const char* kHttpRequestsProbe = "observatory.http_requests";

/// Human name of a hop-trace kind slot (sim::Network uses the first four).
std::string_view trace_kind_name(std::size_t slot) {
  switch (static_cast<sim::Network::TraceKind>(slot)) {
    case sim::Network::TraceKind::hop:
      return "hop";
    case sim::Network::TraceKind::middlebox:
      return "middlebox";
    case sim::Network::TraceKind::delivered:
      return "delivered";
    case sim::Network::TraceKind::dropped:
      return "dropped";
  }
  return "other";
}

void render_campaign_json(std::ostream& os,
                          const super::CampaignReport& report) {
  os << "{\"planned\":" << report.planned()
     << ",\"finished\":" << report.finished() << ",\"completed\":"
     << report.count(super::ShardStatus::completed) << ",\"recovered\":"
     << report.count(super::ShardStatus::recovered) << ",\"resumed\":"
     << report.count(super::ShardStatus::resumed) << ",\"quarantined\":"
     << report.count(super::ShardStatus::quarantined)
     << ",\"deadline_aborted\":"
     << report.count(super::ShardStatus::deadline_aborted) << ",\"not_run\":"
     << report.count(super::ShardStatus::not_run)
     << ",\"attempts\":" << report.total_attempts()
     << ",\"coverage\":" << report.coverage()
     << ",\"degraded\":" << (report.degraded() ? "true" : "false") << '}';
}

void render_window_json(std::ostream& os, const WindowTally& w) {
  os << "{\"index\":" << w.index << ",\"events\":" << w.events
     << ",\"bt_contacts\":" << w.bt_contacts << ",\"leaks\":" << w.leaks
     << ",\"sessions\":" << w.sessions << '}';
}

}  // namespace

Observatory::Observatory(const netcore::RoutingTable& routes,
                         const netcore::AsRegistry& registry,
                         ObservatoryConfig config)
    : routes_(routes),
      registry_(registry),
      config_(config),
      started_(std::chrono::steady_clock::now()),
      main_(routes),
      events_counter_(obs::counter("observatory.events")),
      leaks_counter_(obs::counter("observatory.leaks")),
      sessions_counter_(obs::counter("observatory.sessions")),
      windows_counter_(obs::counter("observatory.windows_closed")) {
  if (config_.window_s <= 0.0) config_.window_s = 3600.0;
  auto& reg = obs::MetricsRegistry::global();
  reg.register_probe(kIngestLagProbe, [this] {
    std::lock_guard<std::mutex> lock(mu_);
    return main_.announced > main_.ingested
               ? static_cast<double>(main_.announced - main_.ingested)
               : 0.0;
  });
  reg.register_probe(kHttpRequestsProbe, [this] {
    return static_cast<double>(server_.requests_served());
  });
}

Observatory::~Observatory() {
  stop_ingest();
  stop_serving();
  auto& reg = obs::MetricsRegistry::global();
  reg.unregister_probe(kIngestLagProbe);
  reg.unregister_probe(kHttpRequestsProbe);
}

void Observatory::roll_window_locked(double t) {
  const auto index =
      static_cast<std::int64_t>(t / config_.window_s);  // windows are ≥ 0
  if (window_open_ && index == current_window_.index) return;
  if (window_open_) {
    closed_windows_.push_back(current_window_);
    if (closed_windows_.size() > config_.max_window_history)
      closed_windows_.erase(closed_windows_.begin());
    ++windows_closed_;
    windows_counter_.inc();
  }
  current_window_ = WindowTally{};
  current_window_.index = index;
  window_open_ = true;
}

void Observatory::ingest_into_locked(Channel& ch, const StreamEvent& event) {
  roll_window_locked(event.time);
  virtual_time_ = std::max(virtual_time_, event.time);
  ++ch.ingested;
  ++current_window_.events;
  events_counter_.inc();
  switch (event.kind) {
    case StreamEvent::Kind::bt_queried:
      ch.bt.note_queried(event.contact);
      ++current_window_.bt_contacts;
      break;
    case StreamEvent::Kind::bt_learned:
      ch.bt.note_learned(event.contact);
      ++current_window_.bt_contacts;
      break;
    case StreamEvent::Kind::bt_ping_response:
      ch.bt.note_ping_response(event.contact);
      ++current_window_.bt_contacts;
      break;
    case StreamEvent::Kind::bt_leak:
      ch.bt.note_leak(event.contact, event.internal);
      ++current_window_.leaks;
      leaks_counter_.inc();
      break;
    case StreamEvent::Kind::nz_session:
      ch.nz.ingest(event.session);
      if (event.session.transition)
        ch.transition_sessions.push_back(event.session);
      ++current_window_.sessions;
      sessions_counter_.inc();
      break;
  }
}

void Observatory::ingest(const StreamEvent& event) {
  std::lock_guard<std::mutex> lock(mu_);
  ingest_into_locked(main_, event);
}

void Observatory::add_stream_total(std::uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  main_.announced += n;
}

void Observatory::note_stream_done() {
  std::lock_guard<std::mutex> lock(mu_);
  main_.done = true;
}

void Observatory::note_campaign_report(const std::string& kind,
                                       const super::CampaignReport& report) {
  std::lock_guard<std::mutex> lock(mu_);
  main_.reports[kind] = report;
}

Observatory::Channel& Observatory::push_channel_locked(
    const std::string& campaign) {
  auto it = push_.find(campaign);
  if (it == push_.end())
    it = push_.emplace(campaign, std::make_unique<Channel>(routes_)).first;
  return *it->second;
}

const Observatory::Channel* Observatory::find_push_locked(
    const std::string& campaign) const {
  const auto it = push_.find(campaign);
  return it == push_.end() ? nullptr : it->second.get();
}

void Observatory::ingest(const std::string& campaign,
                         const StreamEvent& event) {
  std::lock_guard<std::mutex> lock(mu_);
  ingest_into_locked(push_channel_locked(campaign), event);
}

void Observatory::set_stream_total(const std::string& campaign,
                                   std::uint64_t total) {
  std::lock_guard<std::mutex> lock(mu_);
  Channel& ch = push_channel_locked(campaign);
  ch.announced = std::max(ch.announced, total);
}

void Observatory::note_stream_done(const std::string& campaign) {
  std::lock_guard<std::mutex> lock(mu_);
  push_channel_locked(campaign).done = true;
}

void Observatory::note_campaign_report(const std::string& campaign,
                                       const std::string& kind,
                                       const super::CampaignReport& report) {
  std::lock_guard<std::mutex> lock(mu_);
  push_channel_locked(campaign).reports[kind] = report;
}

void Observatory::drop_campaign(const std::string& campaign) {
  std::lock_guard<std::mutex> lock(mu_);
  push_.erase(campaign);
}

void Observatory::capture_trace(const obs::TraceRing& ring) {
  // The counters are bumped after mu_ is released: a /metrics scrape holds
  // the registry lock while its probes take mu_.
  std::array<std::uint64_t, obs::TraceRing::kKindTallySlots> fresh{};
  {
    std::lock_guard<std::mutex> lock(mu_);
    ring.events_into(trace_events_);
    if (ring.total_pushed() < trace_total_) trace_tally_seen_.fill(0);
    trace_total_ = ring.total_pushed();
    for (std::size_t k = 0; k < fresh.size(); ++k) {
      const std::uint64_t now = ring.kind_tally(static_cast<std::uint8_t>(k));
      trace_tally_[k] = now;
      if (now > trace_tally_seen_[k]) {
        fresh[k] = now - trace_tally_seen_[k];
        trace_tally_seen_[k] = now;
      }
    }
  }
  for (std::size_t k = 0; k < fresh.size(); ++k)
    if (fresh[k] > 0)
      obs::counter("observatory.trace." + std::string(trace_kind_name(k)))
          .inc(fresh[k]);
}

std::uint64_t Observatory::events_ingested() const {
  std::lock_guard<std::mutex> lock(mu_);
  return main_.ingested;
}

std::uint64_t Observatory::stream_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return main_.announced;
}

bool Observatory::stream_done() const {
  std::lock_guard<std::mutex> lock(mu_);
  return main_.done;
}

std::uint64_t Observatory::events_ingested(const std::string& campaign) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Channel* ch = find_push_locked(campaign);
  return ch ? ch->ingested : 0;
}

bool Observatory::stream_done(const std::string& campaign) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Channel* ch = find_push_locked(campaign);
  return ch != nullptr && ch->done;
}

analysis::BtDetectionResult Observatory::bt_snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return main_.bt.snapshot();
}

analysis::NetalyzrDetectionResult Observatory::nz_snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return main_.nz.snapshot();
}

analysis::CoverageResult Observatory::coverage_snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  analysis::CoverageResult cov = analysis::combine_coverage(
      main_.bt.snapshot(), main_.nz.snapshot(), registry_);
  const auto bt_it = main_.reports.find("crawl_ping");
  const auto nz_it = main_.reports.find("netalyzr");
  analysis::note_supervision(
      cov, bt_it == main_.reports.end() ? nullptr : &bt_it->second,
      nz_it == main_.reports.end() ? nullptr : &nz_it->second);
  return cov;
}

analysis::TransitionDetectionResult Observatory::transition_snapshot() const {
  std::vector<netalyzr::SessionResult> sessions;
  {
    std::lock_guard<std::mutex> lock(mu_);
    sessions = main_.transition_sessions;
  }
  // The detector's aggregates are order-independent (counts + sorted
  // quantiles), so a stream prefix scores exactly like the same sessions
  // batch-analyzed by bench_fig14_transition.
  return analysis::TransitionDetector().analyze(sessions);
}

std::map<std::string, analysis::Figures> Observatory::figure_sets_locked(
    const Channel& ch) const {
  std::map<std::string, analysis::Figures> sets;
  sets["fig04_clusters"] = analysis::fig04_figures(ch.bt.snapshot());
  sets["fig05_netalyzr_candidates"] =
      analysis::fig05_figures(ch.nz.snapshot());
  {
    analysis::CoverageResult cov = analysis::combine_coverage(
        ch.bt.snapshot(), ch.nz.snapshot(), registry_);
    const auto bt_it = ch.reports.find("crawl_ping");
    const auto nz_it = ch.reports.find("netalyzr");
    analysis::note_supervision(
        cov, bt_it == ch.reports.end() ? nullptr : &bt_it->second,
        nz_it == ch.reports.end() ? nullptr : &nz_it->second);
    sets["tab05_coverage"] = analysis::tab05_figures(cov);
  }
  // Served only once transition-battery sessions appear, so v4-only
  // campaigns keep their historical /figures byte-shape.
  const analysis::TransitionDetectionResult tr =
      analysis::TransitionDetector().analyze(ch.transition_sessions);
  if (tr.observed_sessions > 0)
    sets["fig14_transition"] = analysis::fig14_figures(tr);
  return sets;
}

std::map<std::string, analysis::Figures> Observatory::figure_sets() const {
  std::lock_guard<std::mutex> lock(mu_);
  return figure_sets_locked(main_);
}

std::map<std::string, analysis::Figures> Observatory::figure_sets(
    const std::string& campaign) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Channel* ch = find_push_locked(campaign);
  return ch ? figure_sets_locked(*ch)
            : std::map<std::string, analysis::Figures>{};
}

void Observatory::render_figures_locked(std::ostream& os,
                                        const Channel& ch) const {
  const auto sets = figure_sets_locked(ch);
  os << "{\"stream_done\":" << (ch.done ? "true" : "false")
     << ",\"events_ingested\":" << ch.ingested << ",\"figure_sets\":{";
  bool first = true;
  for (const auto& [name, figures] : sets) {
    if (!first) os << ',';
    first = false;
    obs::json_escape(os, name);
    os << ":{\"figures\":";
    analysis::render_figures_json(os, figures);
    os << '}';
  }
  os << "}}";
}

void Observatory::render_figures_json(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  render_figures_locked(os, main_);
}

void Observatory::render_health_json(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  render_health_locked(os);
}

void Observatory::render_health_locked(std::ostream& os) const {
  const double uptime =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started_)
          .count();
  const auto old_precision = os.precision(12);
  os << "{\"status\":\"" << (main_.done ? "complete" : "streaming")
     << "\",\"uptime_s\":" << uptime << ",\"window_s\":" << config_.window_s
     << ",\"virtual_time_s\":" << virtual_time_;
  os << ",\"ingest\":{\"announced\":" << main_.announced
     << ",\"ingested\":" << main_.ingested << ",\"lag\":"
     << (main_.announced > main_.ingested ? main_.announced - main_.ingested
                                          : 0)
     << ",\"done\":" << (main_.done ? "true" : "false")
     << ",\"bt_events\":" << main_.bt.events_ingested()
     << ",\"leaks\":" << main_.bt.leaks_ingested()
     << ",\"sessions\":" << main_.nz.sessions_ingested() << '}';
  os << ",\"windows\":{\"closed\":" << windows_closed_ << ",\"current\":";
  if (window_open_)
    render_window_json(os, current_window_);
  else
    os << "null";
  os << ",\"history\":[";
  for (std::size_t i = 0; i < closed_windows_.size(); ++i) {
    if (i) os << ',';
    render_window_json(os, closed_windows_[i]);
  }
  os << "]}";
  os << ",\"campaigns\":{";
  bool first = true;
  for (const auto& [kind, report] : main_.reports) {
    if (!first) os << ',';
    first = false;
    obs::json_escape(os, kind);
    os << ':';
    render_campaign_json(os, report);
  }
  os << '}';
  // The push block appears only when an ingest listener is attached, so a
  // driver-fed daemon's /health keeps its historical byte shape.
  if (ingest_) {
    const IngestStats st = ingest_->stats();
    os << ",\"push\":{\"queue_depth\":" << st.queue_depth
       << ",\"queue_capacity\":" << ingest_->config().queue_capacity
       << ",\"max_queue_depth\":" << st.max_queue_depth
       << ",\"parks\":" << st.parks << ",\"shed_total\":" << st.shed_total
       << ",\"rejected_total\":" << st.rejected_total()
       << ",\"events_replayed\":" << st.events_replayed
       << ",\"connections\":" << st.connections << ",\"campaigns\":{";
    bool first_push = true;
    for (const auto& [name, ch] : push_) {
      if (!first_push) os << ',';
      first_push = false;
      obs::json_escape(os, name);
      os << ":{\"announced\":" << ch->announced
         << ",\"ingested\":" << ch->ingested << ",\"lag\":"
         << (ch->announced > ch->ingested ? ch->announced - ch->ingested : 0)
         << ",\"done\":" << (ch->done ? "true" : "false") << '}';
    }
    os << "}}";
  }
  os << ",\"http_requests\":" << server_.requests_served() << '}';
  os.precision(old_precision);
}

void Observatory::render_trace_json(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  render_trace_locked(os);
}

void Observatory::render_trace_locked(std::ostream& os) const {
  const auto old_precision = os.precision(12);
  os << "{\"total_pushed\":" << trace_total_
     << ",\"captured\":" << trace_events_.size() << ",\"kinds\":{";
  std::uint64_t other = 0;
  for (std::size_t k = 0; k < obs::TraceRing::kKindTallySlots; ++k) {
    if (trace_kind_name(k) == "other") {
      other += trace_tally_[k];
      continue;
    }
    obs::json_escape(os, std::string(trace_kind_name(k)));
    os << ':' << trace_tally_[k] << ',';
  }
  os << "\"other\":" << other << "},\"events\":[";
  for (std::size_t i = 0; i < trace_events_.size(); ++i) {
    const obs::TraceEvent& e = trace_events_[i];
    if (i) os << ',';
    os << "{\"time\":" << e.time << ",\"node\":" << e.node
       << ",\"ttl\":" << e.ttl << ",\"kind\":\"" << trace_kind_name(e.kind)
       << "\",\"code\":" << static_cast<int>(e.code);
    if (static_cast<sim::Network::TraceKind>(e.kind) ==
        sim::Network::TraceKind::dropped) {
      os << ",\"drop_reason\":\""
         << sim::to_string(static_cast<sim::DropReason>(e.code)) << '"';
    }
    os << '}';
  }
  os << "]}";
  os.precision(old_precision);
}

bool Observatory::serve(std::uint16_t port, std::string* error) {
  return server_.start(
      port, [this](const std::string& path) { return handle(path); }, error);
}

void Observatory::stop_serving() { server_.stop(); }

bool Observatory::serve_ingest(std::uint16_t port, const IngestConfig& config,
                               std::string* error) {
  if (ingest_) {
    if (error) *error = "ingest already serving";
    return false;
  }
  auto server = std::make_unique<IngestServer>(*this, config);
  if (!server->start(port, error)) return false;
  ingest_ = std::move(server);
  return true;
}

bool Observatory::serve_ingest(std::uint16_t port, std::string* error) {
  return serve_ingest(port, IngestConfig{}, error);
}

void Observatory::stop_ingest() {
  if (!ingest_) return;
  ingest_->stop();
  ingest_.reset();
}

bool Observatory::ingest_serving() const noexcept {
  return ingest_ != nullptr && ingest_->running();
}

std::uint16_t Observatory::ingest_port() const noexcept {
  return ingest_ ? ingest_->port() : 0;
}

HttpResponse Observatory::handle(const std::string& path) const {
  std::ostringstream body;
  if (path == "/metrics") {
    obs::MetricsRegistry::global().export_prometheus(body);
    return {200, "text/plain; version=0.0.4; charset=utf-8", body.str()};
  }
  if (path == "/figures") {
    render_figures_json(body);
    body << '\n';
    return {200, "application/json", body.str()};
  }
  if (path.rfind("/figures/", 0) == 0) {
    const std::string campaign = path.substr(sizeof("/figures/") - 1);
    std::lock_guard<std::mutex> lock(mu_);
    const Channel* ch = find_push_locked(campaign);
    if (ch == nullptr)
      return {404, "text/plain; charset=utf-8", "no such campaign\n"};
    render_figures_locked(body, *ch);
    body << '\n';
    return {200, "application/json", body.str()};
  }
  if (path == "/health") {
    render_health_json(body);
    body << '\n';
    return {200, "application/json", body.str()};
  }
  if (path == "/trace") {
    render_trace_json(body);
    body << '\n';
    return {200, "application/json", body.str()};
  }
  if (path == "/") {
    body << "cgn observatory\n"
            "  GET /metrics          Prometheus text exposition\n"
            "  GET /figures          bench figure sets (JSON)\n"
            "  GET /figures/<name>   a push campaign's figure sets (JSON)\n"
            "  GET /health           ingest/window/campaign status (JSON)\n"
            "  GET /trace            latest hop-trace window (JSON)\n";
    return {200, "text/plain; charset=utf-8", body.str()};
  }
  return {404, "text/plain; charset=utf-8", "not found\n"};
}

}  // namespace cgn::observatory
