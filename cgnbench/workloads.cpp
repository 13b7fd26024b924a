#include "workloads.hpp"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <regex>
#include <sstream>
#include <stop_token>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "analysis/bt_detector.hpp"
#include "analysis/coverage.hpp"
#include "analysis/figures.hpp"
#include "analysis/netalyzr_detector.hpp"
#include "analysis/transition.hpp"
#include "dht/messages.hpp"
#include "nat/nat_device.hpp"
#include "netalyzr/messages.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "observatory/http.hpp"
#include "observatory/ingest.hpp"
#include "observatory/observatory.hpp"
#include "observatory/stream_driver.hpp"
#include "scenario/campaign.hpp"
#include "scenario/internet.hpp"
#include "super/wire.hpp"

namespace cgnbench {
namespace {

using namespace cgn;
using FigureSets = std::map<std::string, analysis::Figures>;

/// The generator draws per-AS populations, so at one scale the campaign
/// work varies several-fold between seeds. Each workload therefore scans
/// scales in [lo, hi] and keeps the one whose planned work (BitTorrent
/// peers and Netalyzr sessions, read off the plan without materializing a
/// line) lands closest to its targets: the world still comes from the
/// seed, the amount of work per campaign does not. A target of 0 is not
/// held. Targets keep one campaign well inside a run, so a run's medians
/// rest on several campaigns (NOTES.md).
struct WorldSize {
  double lo, hi, step;
  std::size_t bt_peers, nz_sessions;
};
constexpr WorldSize kBtSize{0.03, 0.10, 0.001, 750, 0};
constexpr WorldSize kV6Size{0.6, 1.4, 0.02, 0, 5000};
constexpr WorldSize kIngestSize{0.03, 0.10, 0.001, 500, 300};
constexpr std::size_t kV6Workers = 2;
// Every run cycles through this many worlds: the seed's own and ones
// derived from it. Worlds of equal planned work still differ in structure
// (DHT traffic per peer varies by +-15% between seeds), so a run's
// figures average over several of them.
constexpr int kWorldsPerRun = 4;
// Campaigns (or push cycles) per run at the least, whatever --seconds
// says: every world of the run is visited.
constexpr int kMinIterations = kWorldsPerRun;
// Each sim iteration builds its world this many times, timed, and keeps
// the last build for its campaign. The set-up samples then spread over
// the measured window as the campaigns do, instead of catching the host
// in whatever mode it was in when the run began.
constexpr int kBuildsPerIteration = 3;
// The pushed stream: the first kStreamQuota[k] events of each kind k
// (StreamEvent::Kind order: queried, learned, ping response, leak,
// session) of the capture, sent kStreamRepeats times per push cycle under
// fresh sequence numbers. Captures of a sized world vary in length and
// mix between seeds (17 to 2,400 leaks), and both the cost of an event
// and the state a channel keeps for it differ by kind. The quotas sit
// below the fewest seen over 16 worlds. The repeats make a cycle's ingest
// work outweigh the fixed wait of its done/done_ack exchange (NOTES.md).
constexpr std::size_t kStreamQuota[] = {150, 500, 150, 16, 200};
static_assert(std::size(kStreamQuota) ==
              observatory::kStreamEventKindMax + 1u);
constexpr int kStreamRepeats = 200;
// Open-loop query generator: every kHealthEvery-th request is a /health,
// the rest /figures. The ingest workload queries at kIngestQueryHz for its
// whole measured window; in traced runs, sim workloads serve kSimQueries
// at kSimQueryHz after their last campaign. Either way more than 1,000
// /figures replies are timed, so at least ten lie beyond the p99.
constexpr double kIngestQueryHz = 250.0;
constexpr double kSimQueryHz = 500.0;
constexpr int kHealthEvery = 5;
constexpr int kSimQueries = 1500;
constexpr int kQueryTimeoutMs = 2000;

double since(double t0) { return now_s() - t0; }

volatile std::size_t g_sink = 0;  // keeps timed probe loops observable

/// The calibrated world at `scale` (InternetConfig's 1:8 model scaled the
/// way the paper benches scale it), built lazily so only the lines a
/// campaign touches are materialized.
scenario::InternetConfig world_config(double scale, std::uint64_t seed,
                                      bool v6) {
  scenario::InternetConfig cfg;
  cfg.seed = seed;
  auto scaled = [scale](std::size_t n) {
    return std::max<std::size_t>(
        8, static_cast<std::size_t>(static_cast<double>(n) * scale));
  };
  cfg.routed_ases = scaled(cfg.routed_ases);
  cfg.pbl_eyeballs = scaled(cfg.pbl_eyeballs);
  cfg.apnic_eyeballs = scaled(cfg.apnic_eyeballs);
  cfg.cellular_ases = scaled(cfg.cellular_ases);
  cfg.v6.enabled = v6;
  cfg.lazy_build = true;
  return cfg;
}

std::size_t planned_bt_peers(const scenario::Internet& world) {
  std::size_t n = 0;
  for (const scenario::IspInstance& isp : world.isps) n += isp.bt_peer_count;
  return n;
}

std::size_t planned_sessions(const scenario::Internet& world) {
  std::size_t n = 0;
  for (const scenario::IspInstance& isp : world.isps)
    n += isp.nz_session_target;
  return n;
}

/// World `j` of a run with seed `seed`; world 0 is the seed's own.
std::uint64_t world_seed(std::uint64_t seed, int j) {
  return seed ^ (static_cast<std::uint64_t>(j) * 0x9E3779B97F4A7C15ull);
}

/// The world config of `size` for this seed; records the chosen scale and
/// its planned work in `out` (kept in the run record, not the result).
scenario::InternetConfig sized_config(const WorldSize& size,
                                      std::uint64_t seed, bool v6,
                                      Outcome& out) {
  auto miss = [](std::size_t got, std::size_t target) {
    return target == 0 ? 0.0
                       : std::abs(static_cast<double>(got) -
                                  static_cast<double>(target)) /
                             static_cast<double>(target);
  };
  scenario::InternetConfig best;
  double best_miss = 1e300, best_scale = 0;
  std::size_t best_peers = 0, best_sessions = 0;
  const int steps =
      static_cast<int>(std::lround((size.hi - size.lo) / size.step));
  for (int i = 0; i <= steps; ++i) {
    const double scale = size.lo + size.step * i;
    const scenario::InternetConfig cfg = world_config(scale, seed, v6);
    const auto world = scenario::build_internet(cfg);
    const std::size_t peers = planned_bt_peers(*world);
    const std::size_t sessions = planned_sessions(*world);
    const double m =
        miss(peers, size.bt_peers) + miss(sessions, size.nz_sessions);
    if (m < best_miss) {
      best = cfg;
      best_miss = m;
      best_scale = scale;
      best_peers = peers;
      best_sessions = sessions;
    }
  }
  out.set("world.scale", best_scale, "ratio");
  out.set("world.planned_bt_peers", static_cast<double>(best_peers), "count");
  out.set("world.planned_sessions", static_cast<double>(best_sessions),
          "count");
  return best;
}

/// The committed figures digest of `workload` at `seed` in
/// cgnbench/digests.json ("" when that seed has none). A missing file is a
/// failed check: the run could not verify its figures.
std::string committed_digest(const Options& opt, Tally& tally) {
  std::ifstream in("cgnbench/digests.json");
  tally.check(in.good(), "cannot read cgnbench/digests.json");
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  std::smatch block, entry;
  if (!std::regex_search(text, block,
                         std::regex("\"" + opt.workload +
                                    "\"\\s*:\\s*\\{([^}]*)\\}")))
    return "";
  const std::string seeds = block[1];
  if (!std::regex_search(seeds, entry,
                         std::regex("\"" + std::to_string(opt.seed) +
                                    "\"\\s*:\\s*\"([0-9a-f]+)\"")))
    return "";
  return entry[1];
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Digest of a figure-set map, over the exact bytes the benches write.
std::string digest(const FigureSets& sets) {
  std::ostringstream os;
  for (const auto& [name, figures] : sets) {
    os << name << '=';
    analysis::render_figures_json(os, figures);
    os << '\n';
  }
  return hex64(super::wire::fnv1a(os.str()));
}

double figure(const analysis::Figures& f, const std::string& key) {
  for (const auto& [k, v] : f)
    if (k == key) return v;
  return -1.0;
}

double share(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Campaigns on one world must reproduce the same figures, and the run's
/// worlds together must reproduce the committed digest of the seed.
struct DigestCheck {
  std::string expected;          ///< committed digest ("" = seed has none)
  std::vector<FigureSets> first;  ///< per world: its first campaign's sets

  void check(std::size_t world, const FigureSets& sets, Tally& tally) {
    if (first.size() <= world) first.resize(world + 1);
    if (first[world].empty())
      first[world] = sets;
    else
      tally.check(sets == first[world],
                  "figures differ between campaigns on one world");
  }
  /// Digest over every world's figure sets, checked against `expected`.
  std::string finish(Tally& tally) const {
    FigureSets all;
    for (std::size_t j = 0; j < first.size(); ++j)
      for (const auto& [name, figures] : first[j])
        all["w" + std::to_string(j) + "/" + name] = figures;
    const std::string d = digest(all);
    if (!expected.empty())
      tally.check(d == expected,
                  "figures digest " + d + " != committed " + expected);
    return d;
  }
};

/// The sized configs of a run's worlds.
std::vector<scenario::InternetConfig> run_worlds(const WorldSize& size,
                                                 std::uint64_t seed, bool v6,
                                                 Outcome& out) {
  std::vector<scenario::InternetConfig> cfgs;
  for (int j = 0; j < kWorldsPerRun; ++j)
    cfgs.push_back(sized_config(size, world_seed(seed, j), v6, out));
  return cfgs;
}

void band(Tally& tally, const std::string& what, double v, double lo,
          double hi) {
  tally.check(v >= lo && v <= hi,
              what + " = " + std::to_string(v) + " outside [" +
                  std::to_string(lo) + ", " + std::to_string(hi) + "]");
}

/// Shards that dropped out of a supervised campaign (quarantined or
/// deadline-aborted) are failed operations.
void count_shards(Tally& tally, const super::CampaignReport& report,
                  const std::string& what) {
  tally.add(report.planned(), report.planned() - report.finished(),
            what + " shards lost: " + report.describe());
}

double phase_wall(const std::string& path) {
  for (const obs::PhaseProfiler::Phase& p :
       obs::PhaseProfiler::global().phases())
    if (p.path == path) return p.wall_s;
  return 0.0;
}

std::uint64_t counter(const char* name) { return obs::counter(name).value(); }

/// Clears the process-wide counters and phases before a campaign, so the
/// per-layer counts describe exactly one campaign.
void reset_obs() {
  obs::MetricsRegistry::global().reset_values();
  obs::PhaseProfiler::global().reset();
}

/// par.* from a supervised campaign's shard report: how busy the workers
/// were over the campaign wall, and the largest shard's share of the work.
void par_metrics(Outcome& out, const super::CampaignReport& report,
                 double wall_s, std::size_t workers) {
  double sum = 0.0, max = 0.0;
  for (const super::ShardOutcome& s : report.shards) {
    sum += s.elapsed_s;
    max = std::max(max, s.elapsed_s);
  }
  out.set("par.busy_share",
          share(sum, wall_s * static_cast<double>(workers)), "ratio");
  out.set("par.max_shard_share", share(max, sum), "ratio");
  out.set("super.shards", static_cast<double>(report.planned()), "count");
  out.set("super.shards_retried",
          static_cast<double>(report.count(super::ShardStatus::recovered)),
          "count");
}

/// Simulator counters of the campaign just run (obs registry + the
/// network's own tally).
void sim_counters(Outcome& out, const scenario::Internet& world) {
  const sim::NetworkStats& st = world.net.stats();
  out.set("sim.packets", static_cast<double>(st.sent), "count");
  out.set("sim.delivered_share",
          share(static_cast<double>(st.delivered),
                static_cast<double>(st.sent)),
          "ratio");
  out.set("dht.messages", static_cast<double>(counter("dht.messages_sent")),
          "count");
  out.set("nat.mappings_created",
          static_cast<double>(counter("nat.mappings_created")), "count");
  out.set("nat.translations",
          static_cast<double>(counter("nat.outbound_translated") +
                              counter("nat.inbound_translated")),
          "count");
  out.set("nat.hairpins",
          static_cast<double>(counter("nat.hairpins_forwarded")), "count");
}

std::size_t homes_materialized(const scenario::Internet& world) {
  std::unordered_set<long long> homes;
  for (const scenario::IspInstance& isp : world.isps)
    for (const scenario::Subscriber& s : isp.subscribers)
      if (s.device != sim::kNoNode)
        homes.insert((static_cast<long long>(isp.asn) << 32) | s.home_id);
  return homes.size();
}

// --- open-loop query generator ----------------------------------------------

struct QueryResults {
  std::vector<double> figures_ms;  ///< /figures latency from the due time
  std::vector<double> lateness_ms;  ///< send time minus due time
  std::uint64_t sent = 0;
  std::uint64_t failed = 0;
  std::string first_failure;
};

/// Issues GETs to 127.0.0.1:`port` on a fixed schedule until `stop` is
/// requested (or `limit` requests went out). /figures replies must equal
/// `figures_body`; /health replies must be well-formed JSON. A failed
/// request counts as missing any latency limit: it is recorded at the
/// timeout.
QueryResults query_loop(std::uint16_t port, const std::string& figures_body,
                        double rate_hz, const std::stop_token& stop,
                        int limit) {
  QueryResults r;
  const double t0 = now_s();
  for (std::uint64_t k = 0;; ++k) {
    if (stop.stop_requested() ||
        (limit > 0 && k >= static_cast<std::uint64_t>(limit)))
      break;
    const double due = t0 + static_cast<double>(k) / rate_hz;
    // Sleep to just short of the due time, then spin: a sleeping thread's
    // wake-up lag would otherwise land in every latency sample.
    constexpr double kSpinS = 300e-6;
    if (due - now_s() > kSpinS)
      std::this_thread::sleep_for(std::chrono::microseconds(
          static_cast<long>((due - now_s() - kSpinS) * 1e6)));
    while (now_s() < due) {
    }
    const double start = now_s();
    const bool health = k % kHealthEvery == kHealthEvery - 1;
    const HttpReply reply =
        http_get(port, health ? "/health" : "/figures", kQueryTimeoutMs);
    const double latency_ms = (now_s() - due) * 1e3;
    bool ok = reply.ok && reply.status == 200 && json_valid(reply.body);
    if (ok && !health) ok = reply.body == figures_body;
    ++r.sent;
    r.lateness_ms.push_back((start - due) * 1e3);
    if (!ok) {
      ++r.failed;
      if (r.first_failure.empty())
        r.first_failure = std::string(health ? "/health" : "/figures") +
                          " status " + std::to_string(reply.status);
    }
    if (!health)
      r.figures_ms.push_back(ok ? latency_ms
                                : std::max<double>(latency_ms,
                                                   kQueryTimeoutMs));
  }
  return r;
}

void report_queries(Outcome& out, const QueryResults& q) {
  out.tally.add(q.sent, q.failed, "query failed: " + q.first_failure);
  out.set("query_p50_ms", quantile(q.figures_ms, 0.50), "ms");
  out.set("query_p99_ms", quantile(q.figures_ms, 0.99), "ms");
  out.set("observatory.query_lateness_ms", quantile(q.lateness_ms, 0.99),
          "ms");
}

std::string render_sets(const FigureSets& sets) {
  std::ostringstream os;
  os << "{\"figure_sets\":{";
  bool first = true;
  for (const auto& [name, figures] : sets) {
    os << (first ? "" : ",") << '"' << name << "\":{\"figures\":";
    analysis::render_figures_json(os, figures);
    os << '}';
    first = false;
  }
  os << "}}\n";
  return os.str();
}

/// A sim workload's query leg (traced runs): serves the last campaign's
/// figure sets on the observatory's HTTP server and queries them
/// open-loop.
void serve_and_query(Outcome& out, const FigureSets& sets, int campaigns) {
  const std::string body = render_sets(sets);
  const std::string health = "{\"status\":\"complete\",\"campaigns\":" +
                             std::to_string(campaigns) + "}\n";
  observatory::HttpServer server;
  std::string error;
  const bool started = server.start(
      0,
      [&](const std::string& path) {
        if (path == "/figures")
          return observatory::HttpResponse{200, "application/json", body};
        if (path == "/health")
          return observatory::HttpResponse{200, "application/json", health};
        return observatory::HttpResponse{404, "text/plain", "not found\n"};
      },
      &error);
  out.tally.check(started, "http server: " + error);
  if (!started) return;
  report_queries(out, query_loop(server.port(), body, kSimQueryHz,
                                 std::stop_token(), kSimQueries));
  server.stop();
}

// --- per-layer probes (traced runs) -----------------------------------------

enum class EchoKind { nat444, cgn_only, nat64, xlat464, dslite };
constexpr std::pair<EchoKind, const char*> kEchoKinds[] = {
    {EchoKind::nat444, "nat444"},   {EchoKind::cgn_only, "cgn_only"},
    {EchoKind::nat64, "nat64"},     {EchoKind::xlat464, "xlat464"},
    {EchoKind::dslite, "dslite"}};

bool is_kind(const scenario::Subscriber& s, EchoKind kind) {
  switch (kind) {
    case EchoKind::nat444:
      return s.v6_mode == nat::TranslatorMode::nat44 && s.cpe && s.behind_cgn;
    case EchoKind::cgn_only:
      return s.v6_mode == nat::TranslatorMode::nat44 && !s.cpe &&
             s.behind_cgn;
    case EchoKind::nat64:
      return s.v6_mode == nat::TranslatorMode::nat64 && !s.has_clat;
    case EchoKind::xlat464:
      return s.v6_mode == nat::TranslatorMode::nat64 && s.has_clat;
    case EchoKind::dslite:
      return s.v6_mode == nat::TranslatorMode::dslite_aftr;
  }
  return false;
}

/// Warmed Network::send echo round trips (device -> Netalyzr echo server ->
/// device) from up to 8 already-materialized lines of each kind. Kinds the
/// world has no line of read 0.
void probe_echo(Outcome& out, scenario::Internet& world) {
  constexpr int kLines = 8, kWarm = 64, kTimed = 512;
  const netcore::Endpoint dst = world.servers.netalyzr->echo_endpoint();
  std::uint64_t tx = 0;
  for (const auto& [kind, name] : kEchoKinds) {
    std::vector<double> ns;
    int lines = 0;
    for (scenario::IspInstance& isp : world.isps) {
      for (scenario::Subscriber& s : isp.subscribers) {
        if (lines >= kLines) break;
        if (s.device == sim::kNoNode || !is_kind(s, kind)) continue;
        // A v6-only stack reaches v4 servers by name only: resolve the echo
        // server through the carrier's DNS64, as the Netalyzr client does.
        if (s.v6stack && isp.dns64)
          s.v6stack->note_resolved(dst.address,
                                   isp.dns64->resolve_aaaa(dst.address).aaaa);
        auto send = [&] {
          sim::Packet pkt = sim::Packet::tcp({s.device_address, 41000}, dst);
          pkt.payload = netalyzr::NetalyzrMessage{netalyzr::EchoRequest{++tx}};
          return world.net.send(std::move(pkt), s.device);
        };
        ++lines;
        out.tally.check(send().delivered,
                        std::string("echo not delivered on a ") + name +
                            " line");
        for (int i = 0; i < kWarm; ++i) (void)send();
        for (int i = 0; i < kTimed; ++i) {
          const double t0 = now_s();
          (void)send();
          ns.push_back((now_s() - t0) * 1e9);
        }
      }
    }
    out.set(std::string("sim.echo_ns.") + name + ".p50", quantile(ns, 0.5),
            "ns");
    out.set(std::string("sim.echo_ns.") + name + ".p99", quantile(ns, 0.99),
            "ns");
  }
}

/// RoutingTable::lookup over the workload's own learned destinations.
void probe_lookup(Outcome& out, const scenario::Internet& world,
                  const std::vector<netcore::Ipv4Address>& dests) {
  if (dests.empty()) return;
  constexpr std::size_t kLookups = 200'000;
  std::size_t routed = 0;
  const double t0 = now_s();
  for (std::size_t i = 0; i < kLookups; ++i)
    routed += world.routes.lookup(dests[i % dests.size()]).has_value();
  out.set("netcore.lookup_ns", since(t0) * 1e9 / kLookups, "ns");
  g_sink = g_sink + routed;
}

/// process_outbound creating a mapping, then process_inbound hitting it, on
/// fresh NatDevices built from each CGN deployment's config (up to 16).
void probe_nat(Outcome& out, const scenario::Internet& world) {
  constexpr int kOps = 4096;
  std::vector<double> out_ns, in_ns;
  int devices = 0;
  for (const scenario::IspInstance& isp : world.isps) {
    if (!isp.cgn || devices >= 16) continue;
    ++devices;
    nat::NatConfig cfg = isp.cgn->config();
    nat::NatDevice dev(cfg, isp.cgn->external_pool(), sim::Rng(7));
    const netcore::Endpoint remote{netcore::Ipv4Address(16, 9, 9, 9), 80};
    std::vector<sim::Packet> translated;
    translated.reserve(kOps);
    double t0 = now_s();
    for (int i = 0; i < kOps; ++i) {
      sim::Packet p = sim::Packet::udp(
          {netcore::Ipv4Address(10, 1, static_cast<std::uint8_t>(i >> 8),
                                static_cast<std::uint8_t>(i)),
           static_cast<std::uint16_t>(20000 + i % 1000)},
          remote);
      if (dev.process_outbound(p, 0.0) == sim::Middlebox::Verdict::forward)
        translated.push_back(p);
    }
    out_ns.push_back(since(t0) * 1e9 / kOps);
    out.tally.check(!translated.empty(),
                    "nat probe: no outbound mapping created");
    if (translated.empty()) continue;
    t0 = now_s();
    for (int i = 0; i < kOps; ++i) {
      const sim::Packet& o = translated[static_cast<std::size_t>(i) %
                                        translated.size()];
      sim::Packet in = sim::Packet::udp(remote, o.src);
      (void)dev.process_inbound(in, 1.0);
    }
    in_ns.push_back(since(t0) * 1e9 / kOps);
  }
  out.set("nat.outbound_new_ns", median(out_ns), "ns");
  out.set("nat.inbound_hit_ns", median(in_ns), "ns");
}

/// Internet::ensure_line on up to 256 homes of a fresh copy of the world:
/// time per home and heap bytes per home.
void probe_materialize(Outcome& out, const scenario::InternetConfig& cfg) {
  auto world = scenario::build_internet(cfg);
  constexpr std::size_t kHomes = 256;
  std::vector<double> us;
  std::unordered_set<long long> seen;
  const double heap0 = heap_in_use_bytes();
  for (scenario::IspInstance& isp : world->isps) {
    for (std::size_t slot = 0;
         slot < isp.subscribers.size() && us.size() < kHomes; ++slot) {
      const long long home = (static_cast<long long>(isp.asn) << 32) |
                             isp.subscribers[slot].home_id;
      if (isp.subscribers[slot].device != sim::kNoNode ||
          !seen.insert(home).second)
        continue;
      const double t0 = now_s();
      (void)world->ensure_line(isp, slot);
      us.push_back(since(t0) * 1e6);
    }
  }
  const double heap = heap_in_use_bytes() - heap0;
  out.set("scenario.ensure_line_us.p50", quantile(us, 0.5), "us");
  out.set("mem.heap_bytes_per_home",
          us.empty() ? 0.0 : heap / static_cast<double>(us.size()), "B");
}

/// One extra timed maintenance round and announce per peer, and find_nodes
/// handling (closest-8 selection plus the reply send) on the warmed tables.
void probe_dht(Outcome& out, scenario::Internet& world) {
  const std::vector<dht::DhtNode*>& peers = world.bt_peers();
  std::vector<double> maint_us, announce_us, find_ns;
  for (dht::DhtNode* peer : peers) {
    double t0 = now_s();
    peer->run_maintenance(world.net);
    maint_us.push_back(since(t0) * 1e6);
    t0 = now_s();
    peer->announce(world.net, world.servers.tracker->endpoint(), 1);
    announce_us.push_back(since(t0) * 1e6);
  }
  // The requester sits in unrouted space, so each reply is dropped at the
  // core instead of feeding a receiver.
  const netcore::Endpoint requester{netcore::Ipv4Address(240, 0, 0, 1), 6881};
  sim::Rng rng(world.config.seed);
  std::uint64_t tx = 0;
  for (std::size_t i = 0; i < peers.size() && i < 256; ++i) {
    for (int k = 0; k < 8; ++k) {
      sim::Packet pkt = sim::Packet::udp(requester, peers[i]->local_endpoint());
      pkt.payload = dht::Message{dht::FindNodesMsg{
          ++tx, dht::NodeId160::random(rng), dht::NodeId160::random(rng)}};
      const double t0 = now_s();
      peers[i]->handle(world.net, pkt);
      find_ns.push_back(since(t0) * 1e9);
    }
  }
  out.set("dht.maintenance_us.p50", quantile(maint_us, 0.5), "us");
  out.set("dht.maintenance_us.p99", quantile(maint_us, 0.99), "us");
  out.set("dht.announce_us.p50", quantile(announce_us, 0.5), "us");
  out.set("dht.find_nodes_ns", quantile(find_ns, 0.5), "ns");
}

/// Per-layer self time (seconds per traced campaign), the residual share
/// of the root spans, and the tracing overhead on campaign_s.
void trace_metrics(Outcome& out, const Tracer& tracer, int traced_runs,
                   const std::vector<double>& traced_campaign,
                   const std::vector<double>& plain_campaign) {
  static const char* kLayers[] = {"scenario", "dht",      "crawler",
                                  "netalyzr", "analysis", "observatory"};
  const std::map<std::string, double> self = tracer.layer_self_s();
  for (const char* layer : kLayers) {
    auto it = self.find(layer);
    out.set(std::string("trace.self_s.") + layer,
            it == self.end() ? 0.0
                             : it->second / std::max(1, traced_runs),
            "s");
  }
  double total = 0, root_self = 0;
  tracer.root_totals(total, root_self);
  out.set("trace.residual_share", share(root_self, total), "ratio");
  const double plain = median(plain_campaign);
  out.set("trace.overhead_share",
          plain > 0 ? median(traced_campaign) / plain - 1.0 : 0.0, "ratio");
}

/// Zero-valued defaults for every per-layer metric a workload does not
/// exercise (a layer that does nothing reads 0).
void layer_defaults(Outcome& out) {
  for (const char* n :
       {"dht.maintenance_us.p50", "dht.maintenance_us.p99",
        "dht.announce_us.p50"})
    out.set(n, 0, "us");
  out.set("dht.find_nodes_ns", 0, "ns");
  for (const auto& [kind, name] : kEchoKinds) {
    out.set(std::string("sim.echo_ns.") + name + ".p50", 0, "ns");
    out.set(std::string("sim.echo_ns.") + name + ".p99", 0, "ns");
  }
  for (const char* n : {"netcore.lookup_ns", "nat.outbound_new_ns",
                        "nat.inbound_hit_ns", "observatory.encode_ns"})
    out.set(n, 0, "ns");
  for (const char* n :
       {"dht.messages", "sim.packets", "nat.mappings_created",
        "nat.translations", "nat.hairpins", "scenario.homes_materialized",
        "super.shards", "super.shards_retried", "netalyzr.sessions",
        "observatory.parks", "observatory.max_queue_depth",
        "observatory.rejected_total", "observatory.shed_total"})
    out.set(n, 0, "count");
  for (const char* n : {"sim.delivered_share", "par.busy_share",
                        "par.max_shard_share", "crawler.pong_share"})
    out.set(n, 0, "ratio");
  out.set("scenario.ensure_line_us.p50", 0, "us");
  out.set("mem.heap_bytes_per_home", 0, "B");
  for (const char* n : {"bt.bootstrap_s", "bt.rounds_s", "crawler.walk_s",
                        "crawler.ping_sweep_s", "analysis.bt_detect_s",
                        "analysis.nz_detect_s", "analysis.transition_detect_s",
                        "analysis.figures_s"})
    out.set(n, 0, "s");
  out.set("netalyzr.session_us", 0, "us");
  out.set("observatory.inproc_events_per_s", 0, "1/s");
  out.set("observatory.render_figures_us", 0, "us");
  out.set("observatory.query_lateness_ms", 0, "ms");
}

/// Samples of one figure kept per world. The run reports the mean of the
/// per-world medians, so each world weighs the same however many
/// iterations its cost left room for.
struct PerWorld {
  std::vector<std::vector<double>> samples =
      std::vector<std::vector<double>>(kWorldsPerRun);

  void add(std::size_t world, double v) { samples[world].push_back(v); }
  [[nodiscard]] double value() const {
    double sum = 0;
    int worlds = 0;
    for (const std::vector<double>& v : samples)
      if (!v.empty()) {
        sum += median(v);
        ++worlds;
      }
    return worlds ? sum / worlds : 0.0;
  }
};

/// Builds world `world` of a run kBuildsPerIteration times, filing each
/// build's time in `setup_s`; returns the last build.
std::unique_ptr<scenario::Internet> build_world(
    const scenario::InternetConfig& cfg, std::size_t world,
    PerWorld& setup_s) {
  std::unique_ptr<scenario::Internet> built;
  for (int i = 0; i < kBuildsPerIteration; ++i) {
    built.reset();
    const double t = now_s();
    built = scenario::build_internet(cfg);
    setup_s.add(world, since(t));
  }
  return built;
}

/// Timed-loop bookkeeping shared by the workloads: iterate until the
/// measured window is spent (at least kMinIterations times); in a traced
/// run, every other cycle over the worlds records spans so the untraced
/// ones give the overhead baseline.
struct Loop {
  Loop(const Options& o, Tracer& t) : opt(o), tracer(t) {}

  const Options& opt;
  Tracer& tracer;
  double t0 = now_s();
  int iteration = 0;
  int traced = 0;

  std::vector<double> traced_s, plain_s;  ///< iteration walls, warm only

  /// The world the current iteration runs on.
  [[nodiscard]] std::size_t world() const {
    return static_cast<std::size_t>((iteration - 1) % kWorldsPerRun);
  }

  bool next() {
    if (iteration >= kMinIterations && since(t0) >= opt.seconds) return false;
    tracer.set_run(iteration);
    // Whole cycles over the run's worlds alternate traced and untraced, so
    // both sides of the overhead comparison cover the same worlds.
    tracer.set_enabled(opt.trace && (iteration / kWorldsPerRun) % 2 == 0);
    traced += tracer.enabled() ? 1 : 0;
    ++iteration;
    return true;
  }
  /// Files one iteration's wall for the tracing-overhead comparison; the
  /// first (cold) iteration is left out of it.
  void note_wall(double wall_s) {
    if (iteration > 1)
      (tracer.enabled() ? traced_s : plain_s).push_back(wall_s);
  }
};

// --- bt_crawl ---------------------------------------------------------------

FigureSets bt_figures(const analysis::BtDetectionResult& bt) {
  const auto& s = bt.summary;
  double internal_total = 0, leaking_total = 0, leaking_as_rels = 0;
  for (const auto& row : bt.per_range) {
    internal_total += static_cast<double>(row.internal_total);
    leaking_total += static_cast<double>(row.leaking_total);
    leaking_as_rels += static_cast<double>(row.leaking_ases);
  }
  return {
      {"tab02_crawl_summary",
       {{"queried_peers", static_cast<double>(s.queried_peers)},
        {"queried_unique_ips", static_cast<double>(s.queried_unique_ips)},
        {"learned_peers", static_cast<double>(s.learned_peers)},
        {"learned_unique_ips", static_cast<double>(s.learned_unique_ips)},
        {"learned_ases", static_cast<double>(s.learned_ases)},
        {"responding_peers", static_cast<double>(s.responding_peers)}}},
      {"tab03_leakage",
       {{"internal_total", internal_total},
        {"leaking_total", leaking_total},
        {"leaking_as_relationships", leaking_as_rels}}},
      {"fig04_clusters", analysis::fig04_figures(bt)}};
}

/// Paper-shape bands of Tables 2/3 and Figure 4 (EXPERIMENTS.md). They
/// describe the paper's population, not every world of ~750 peers, so
/// their counts are summed over a run's campaigns and checked once. One of
/// seed 803's worlds has no CGN-internal peer in 10X/100X; over 320 worlds,
/// one of seed 367308766's has 4 ASes beyond 5x5 of 7 that show clusters,
/// and the responding share reads 6.3% to 51% (NOTES.md).
struct BtRunTotals {
  analysis::CrawlSummary summary;
  std::uint64_t leaking_ases[4] = {};  // 192X, 172X, 10X, 100X
  std::uint64_t carrier_internal = 0;
  double clustered_ases = 0, ases_beyond_5x5 = 0;

  void check(Tally& tally) const {
    const auto& s = summary;
    tally.check(s.learned_peers > s.queried_peers,
                "table 2: learned peers not above queried");
    // The learned AS footprint is the larger (paper 26.7K vs 18.8K; 156 vs
    // 150 at scale 0.4). In worlds this small the two differ by a few ASes
    // either way, so a 10% shortfall is tolerated.
    tally.check(static_cast<double>(s.learned_ases) >=
                    0.9 * static_cast<double>(s.queried_ases),
                "table 2: learned AS footprint well below queried");
    // NAT filtering keeps a share of learned peers from answering bt_ping
    // (paper 56% respond, 32% at scale 0.4; small worlds dip lower).
    band(tally, "table 2 responding share of learned",
         share(static_cast<double>(s.responding_peers),
               static_cast<double>(s.learned_peers)),
         0.05, 0.85);
    // Home-NAT 192X leaks spread over the most ASes; the carrier ranges
    // carry internal peers.
    tally.check(leaking_ases[0] >= leaking_ases[1] &&
                    leaking_ases[0] >= leaking_ases[2] &&
                    leaking_ases[0] >= leaking_ases[3],
                "table 3: 192X does not leak over the most ASes");
    tally.check(carrier_internal > 0,
                "table 3: no internal peers in 10X/100X in any world");
    // Figure 4: most leaking ASes show only sub-threshold (home-NAT)
    // clusters; the few beyond 5x5 are the detectable CGNs. A world this
    // small may hold none, so only the "minority" half of the claim is
    // checked.
    tally.check(clustered_ases >= 1,
                "figure 4: no AS shows clusters in any world");
    tally.check(ases_beyond_5x5 <= 0.5 * clustered_ases,
                "figure 4: ASes beyond 5x5 are not a minority of clustered "
                "ASes");
  }
};

void add_bt_totals(const analysis::BtDetectionResult& bt,
                   BtRunTotals& totals) {
  auto& t = totals.summary;
  t.queried_peers += bt.summary.queried_peers;
  t.learned_peers += bt.summary.learned_peers;
  t.queried_ases += bt.summary.queried_ases;
  t.learned_ases += bt.summary.learned_ases;
  t.responding_peers += bt.summary.responding_peers;
  const auto& r = bt.per_range;
  for (std::size_t k = 0; k < std::size(totals.leaking_ases); ++k)
    totals.leaking_ases[k] += r[k].leaking_ases;
  totals.carrier_internal += r[2].internal_total + r[3].internal_total;
  const analysis::Figures f4 = analysis::fig04_figures(bt);
  totals.clustered_ases += figure(f4, "ases_with_clusters");
  totals.ases_beyond_5x5 += figure(f4, "ases_beyond_5x5");
}

void run_bt_crawl(const Options& opt, Outcome& out, Tracer& tracer) {
  const std::vector<scenario::InternetConfig> cfgs =
      run_worlds(kBtSize, opt.seed, false, out);
  DigestCheck digests{committed_digest(opt, out.tally), {}};
  PerWorld setup_s, campaign_s, events_per_s;
  BtRunTotals totals;
  std::unique_ptr<scenario::Internet> world;
  std::unique_ptr<crawler::DhtCrawler> crawler;
  FigureSets sets;
  Loop loop(opt, tracer);
  while (loop.next()) {
    crawler.reset();  // its receiver points into the old world
    world.reset();
    reset_obs();
    ScopedSpan root(tracer, "bench.campaign");
    {
      ScopedSpan s(tracer, "scenario.build");
      world = build_world(cfgs[loop.world()], loop.world(), setup_s);
    }
    const double t = now_s();
    {
      ScopedSpan s(tracer, "dht.bittorrent_phase");
      scenario::run_bittorrent_phase(*world);
    }
    super::CampaignReport report;
    {
      ScopedSpan s(tracer, "crawler.crawl_phase");
      scenario::CrawlPhaseConfig crawl;
      crawl.threads = 1;
      crawler = scenario::run_crawl_phase(*world, crawl, &report);
    }
    const double t_detect = now_s();
    analysis::BtDetectionResult bt;
    {
      ScopedSpan s(tracer, "analysis.bt_detect");
      bt = analysis::BtDetector().analyze(crawler->dataset(), world->routes);
    }
    const double t_figures = now_s();
    {
      ScopedSpan s(tracer, "analysis.figures");
      sets = bt_figures(bt);
      digests.check(loop.world(), sets, out.tally);
      add_bt_totals(bt, totals);
      count_shards(out.tally, report, "ping sweep");
    }
    const double wall = since(t);
    loop.note_wall(wall);
    campaign_s.add(loop.world(), wall);
    // Vantage points served per second: the planned BitTorrent peers, a
    // count the world sizing holds steady across seeds.
    events_per_s.add(loop.world(),
                     static_cast<double>(planned_bt_peers(*world)) / wall);

    // Per-layer figures of this campaign (the last one is reported).
    sim_counters(out, *world);
    out.set("bt.bootstrap_s", phase_wall("campaign.bittorrent/bootstrap"),
            "s");
    out.set("bt.rounds_s", phase_wall("campaign.bittorrent/rounds"), "s");
    out.set("crawler.walk_s", phase_wall("campaign.crawl/walk"), "s");
    out.set("crawler.ping_sweep_s", phase_wall("campaign.crawl/ping_sweep"),
            "s");
    out.set("crawler.pong_share",
            share(static_cast<double>(counter("crawler.bt_pongs_received")),
                  static_cast<double>(counter("crawler.bt_pings_sent"))),
            "ratio");
    out.set("analysis.bt_detect_s", t_figures - t_detect, "s");
    out.set("analysis.figures_s", since(t_figures), "s");
    par_metrics(out, report, phase_wall("campaign.crawl/ping_sweep"), 1);
  }
  tracer.set_enabled(false);
  totals.check(out.tally);
  out.set("setup_s", setup_s.value(), "s");
  out.set("campaign_s", campaign_s.value(), "s");
  out.set("ingest_events_per_s", events_per_s.value(), "1/s");
  out.figures_digest = digests.finish(out.tally);
  out.set("scenario.homes_materialized",
          static_cast<double>(homes_materialized(*world)), "count");
  out.set("peak_rss_mib", peak_rss_mib(), "MiB");
  if (opt.trace) {
    serve_and_query(out, sets, loop.iteration);
    std::vector<netcore::Ipv4Address> dests;
    for (const dht::Contact& c : crawler->dataset().learned_contacts())
      dests.push_back(c.endpoint.address);
    probe_echo(out, *world);
    probe_lookup(out, *world, dests);
    probe_dht(out, *world);
    probe_nat(out, *world);
    crawler.reset();
    world.reset();
    probe_materialize(out, cfgs[loop.world()]);
    trace_metrics(out, tracer, loop.traced, loop.traced_s, loop.plain_s);
  }
}

// --- netalyzr_v6 ------------------------------------------------------------

FigureSets nz_figures(const analysis::NetalyzrDetectionResult& nz,
                      const analysis::TransitionDetectionResult& tr,
                      const netcore::AsRegistry& registry) {
  const analysis::CoverageResult cov =
      analysis::combine_coverage(analysis::BtDetectionResult{}, nz, registry);
  const analysis::Table5& t = cov.table5;
  return {
      {"fig05_netalyzr_candidates", analysis::fig05_figures(nz)},
      {"tab05_netalyzr",
       {{"routed_population", static_cast<double>(t.population[0])},
        {"pbl_population", static_cast<double>(t.population[1])},
        {"pbl_noncellular_covered",
         static_cast<double>(t.netalyzr_noncellular[1].covered)},
        {"pbl_noncellular_positive",
         static_cast<double>(t.netalyzr_noncellular[1].positive)},
        {"cellular_covered",
         static_cast<double>(t.netalyzr_cellular[0].covered)},
        {"cellular_positive",
         static_cast<double>(t.netalyzr_cellular[0].positive)}}},
      {"fig14_transition", analysis::fig14_figures(tr)}};
}

/// Paper-shape bands: Table 5 Netalyzr rows and Figure 14 recall.
/// All three describe the paper's population; one world of ~5,000
/// sessions can fall outside them (one of seed 13's worlds flags 1 of 88
/// covered non-cellular ASes; Figure 14 below). They are summed over a
/// run's campaigns and checked once.
struct NzRunTotals {
  static constexpr const char* kMechanisms[] = {"nat444", "nat64", "464xlat",
                                                "dslite"};
  double noncellular_positive = 0, noncellular_covered = 0;
  double cellular_positive = 0, cellular_covered = 0;
  double cgn_positive_ases = 0;
  double truth_sessions[std::size(kMechanisms)] = {};
  double correct_sessions[std::size(kMechanisms)] = {};

  void check(Tally& tally) const {
    // A v4-only world lands at 9-16% (EXPERIMENTS.md, Figure 5). Here part
    // of the fixed-line CGN fleet runs NAT64 or DS-Lite, which the
    // Netalyzr address test does not flag (the transition battery does),
    // so only "a CGN-positive minority" is checked (NOTES.md).
    band(tally, "table 5 non-cellular eyeball CGN-positive share",
         share(noncellular_positive, noncellular_covered), 0.03, 0.30);
    band(tally, "table 5 cellular CGN-positive share",
         share(cellular_positive, cellular_covered), 0.80, 1.0);
    tally.check(cgn_positive_ases >= 1, "figure 5: no CGN-positive AS");
    // Figure 14: recall >= 0.95 per mechanism, except NAT444 at >= 0.90.
    // - NAT444 measures 0.934-0.977 per world (1 in 11 below 0.95) and
    //   0.951-0.968 per run, consistent with the DS-Lite B4 signature
    //   over-claiming look-alike CPE fleets (ROADMAP item 5).
    // - DS-Lite is inferred per AS, so an AS's sessions move a world's
    //   recall together: 2 of 480 worlds read 0.86 and 0.94, every run
    //   0.985 or more (NOTES.md).
    // Each world's recall stays in its digested figure set.
    for (std::size_t m = 0; m < std::size(kMechanisms); ++m) {
      if (truth_sessions[m] <= 0) continue;
      band(tally, std::string("figure 14 recall ") + kMechanisms[m],
           correct_sessions[m] / truth_sessions[m], m == 0 ? 0.90 : 0.95,
           1.0);
    }
  }
};

void add_nz_totals(const FigureSets& sets, NzRunTotals& totals) {
  const analysis::Figures& t5 = sets.at("tab05_netalyzr");
  totals.noncellular_positive += figure(t5, "pbl_noncellular_positive");
  totals.noncellular_covered += figure(t5, "pbl_noncellular_covered");
  totals.cellular_positive += figure(t5, "cellular_positive");
  totals.cellular_covered += figure(t5, "cellular_covered");
  totals.cgn_positive_ases +=
      figure(sets.at("fig05_netalyzr_candidates"), "cgn_positive");
  const analysis::Figures& f14 = sets.at("fig14_transition");
  for (std::size_t m = 0; m < std::size(NzRunTotals::kMechanisms); ++m) {
    const std::string name = NzRunTotals::kMechanisms[m];
    const double truth = figure(f14, "truth_sessions_" + name);
    if (truth <= 0) continue;
    totals.truth_sessions[m] += truth;
    totals.correct_sessions[m] +=
        std::round(figure(f14, "detect_acc_" + name) * truth);
  }
}

void run_netalyzr_v6(const Options& opt, Outcome& out, Tracer& tracer) {
  const std::vector<scenario::InternetConfig> cfgs =
      run_worlds(kV6Size, opt.seed, true, out);
  DigestCheck digests{committed_digest(opt, out.tally), {}};
  PerWorld setup_s, campaign_s, events_per_s;
  NzRunTotals totals;
  std::unique_ptr<scenario::Internet> world;
  std::vector<netalyzr::SessionResult> sessions;
  FigureSets sets;
  Loop loop(opt, tracer);
  while (loop.next()) {
    sessions.clear();
    world.reset();
    reset_obs();
    ScopedSpan root(tracer, "bench.campaign");
    {
      ScopedSpan s(tracer, "scenario.build");
      world = build_world(cfgs[loop.world()], loop.world(), setup_s);
    }
    const double t = now_s();
    super::CampaignReport report;
    {
      ScopedSpan s(tracer, "netalyzr.campaign");
      scenario::NetalyzrCampaignConfig nz;
      nz.transition_battery = true;  // TTL, STUN and port tests keep defaults
      nz.threads = kV6Workers;
      sessions = scenario::run_netalyzr_campaign(*world, nz, &report);
    }
    const double campaign_wall = since(t);
    double t_stage = now_s();
    analysis::NetalyzrDetectionResult nz;
    {
      ScopedSpan s(tracer, "analysis.nz_detect");
      nz = analysis::NetalyzrDetector().analyze(sessions, world->routes);
    }
    out.set("analysis.nz_detect_s", since(t_stage), "s");
    t_stage = now_s();
    analysis::TransitionDetectionResult tr;
    {
      ScopedSpan s(tracer, "analysis.transition_detect");
      tr = analysis::TransitionDetector().analyze(sessions);
    }
    out.set("analysis.transition_detect_s", since(t_stage), "s");
    t_stage = now_s();
    {
      ScopedSpan s(tracer, "analysis.figures");
      sets = nz_figures(nz, tr, world->registry);
      digests.check(loop.world(), sets, out.tally);
      add_nz_totals(sets, totals);
      count_shards(out.tally, report, "netalyzr");
    }
    out.set("analysis.figures_s", since(t_stage), "s");
    const double wall = since(t);
    loop.note_wall(wall);
    campaign_s.add(loop.world(), wall);
    events_per_s.add(loop.world(), static_cast<double>(sessions.size()) / wall);

    sim_counters(out, *world);
    double shard_s = 0;
    for (const super::ShardOutcome& s : report.shards) shard_s += s.elapsed_s;
    out.set("netalyzr.sessions", static_cast<double>(sessions.size()),
            "count");
    out.set("netalyzr.session_us",
            share(shard_s * 1e6, static_cast<double>(sessions.size())), "us");
    par_metrics(out, report, campaign_wall, kV6Workers);
  }
  tracer.set_enabled(false);
  totals.check(out.tally);
  out.set("setup_s", setup_s.value(), "s");
  out.set("campaign_s", campaign_s.value(), "s");
  out.set("ingest_events_per_s", events_per_s.value(), "1/s");
  out.figures_digest = digests.finish(out.tally);
  out.set("scenario.homes_materialized",
          static_cast<double>(homes_materialized(*world)), "count");
  out.set("peak_rss_mib", peak_rss_mib(), "MiB");
  if (opt.trace) {
    serve_and_query(out, sets, loop.iteration);
    std::vector<netcore::Ipv4Address> dests;
    for (const netalyzr::SessionResult& s : sessions)
      if (s.ip_pub) dests.push_back(*s.ip_pub);
    probe_echo(out, *world);
    probe_lookup(out, *world, dests);
    probe_nat(out, *world);
    world.reset();
    probe_materialize(out, cfgs[loop.world()]);
    trace_metrics(out, tracer, loop.traced, loop.traced_s, loop.plain_s);
  }
}

// --- observatory_ingest -----------------------------------------------------

/// Records a StreamDriver's stream verbatim so it can be replayed many
/// times.
struct CaptureSink : observatory::EventSink {
  std::vector<observatory::StreamEvent> events;
  std::uint64_t announced = 0;
  std::vector<std::pair<std::string, super::CampaignReport>> reports;

  void add_stream_total(std::uint64_t n) override { announced += n; }
  void ingest(const observatory::StreamEvent& e) override {
    events.push_back(e);
  }
  void note_stream_done() override {}
  void note_campaign_report(const std::string& kind,
                            const super::CampaignReport& report) override {
    reports.emplace_back(kind, report);
  }

  /// Replays the capture `repeats` times into `sink` (the sink numbers
  /// the events afresh), then its reports and done.
  void replay(observatory::EventSink& sink, int repeats) const {
    sink.add_stream_total(announced * static_cast<std::uint64_t>(repeats));
    send_events(sink, repeats);
    for (const auto& [kind, report] : reports)
      sink.note_campaign_report(kind, report);
    sink.note_stream_done();
  }
  void send_events(observatory::EventSink& sink, int repeats) const {
    for (int r = 0; r < repeats; ++r)
      for (const observatory::StreamEvent& e : events) sink.ingest(e);
  }

  /// Keeps the first kStreamQuota[k] events of each kind k, in stream
  /// order, so every seed pushes a stream of the same size and mix.
  void truncate() {
    std::vector<observatory::StreamEvent> kept;
    std::vector<std::size_t> quota(std::begin(kStreamQuota),
                                   std::end(kStreamQuota));
    for (observatory::StreamEvent& e : events) {
      std::size_t& left = quota[static_cast<std::size_t>(e.kind)];
      if (left == 0) continue;
      --left;
      kept.push_back(std::move(e));
    }
    events = std::move(kept);
    announced = events.size();
  }

  /// Digest of the encoded event stream (the bytes a feeder would push).
  [[nodiscard]] std::string digest() const {
    super::wire::Writer w;
    for (const observatory::StreamEvent& e : events)
      observatory::put_stream_event(w, e);
    return hex64(super::wire::fnv1a(w.bytes()));
  }
};

/// One of observatory_ingest's worlds: its captured stream, the world's
/// routing and registry views (a lazy build of its config, no line
/// materialized), the in-process figures of one push cycle's stream, and
/// the live Observatory that its push cycles feed.
struct IngestWorld {
  observatory::StreamDriverConfig dcfg;
  CaptureSink capture;
  std::unique_ptr<scenario::Internet> tables;
  FigureSets truth;
  std::unique_ptr<observatory::Observatory> live;
};

void run_observatory_ingest(const Options& opt, Outcome& out,
                            Tracer& tracer) {
  std::vector<IngestWorld> worlds(kWorldsPerRun);
  const std::vector<scenario::InternetConfig> cfgs =
      run_worlds(kIngestSize, opt.seed, false, out);
  for (std::size_t j = 0; j < worlds.size(); ++j) {
    worlds[j].dcfg.world = cfgs[j];
    worlds[j].dcfg.crawl.threads = 1;
    worlds[j].dcfg.netalyzr.threads = 1;
  }

  // Set-up: capture every world's stream, and world 0's a second time;
  // the two captures of one world must be identical.
  PerWorld setup_s;
  tracer.set_run(-1);
  tracer.set_enabled(opt.trace);
  {
    ScopedSpan root(tracer, "bench.setup");
    for (int i = 0; i <= kWorldsPerRun; ++i) {
      IngestWorld& w = worlds[static_cast<std::size_t>(i % kWorldsPerRun)];
      ScopedSpan s(tracer, "scenario.stream_capture");
      CaptureSink c;
      const double t = now_s();
      {
        observatory::StreamDriver driver(w.dcfg);
        driver.run(c);
        setup_s.add(static_cast<std::size_t>(i % kWorldsPerRun), since(t));
      }
      if (i < kWorldsPerRun)
        w.capture = std::move(c);
      else
        out.tally.check(c.digest() == w.capture.digest(),
                        "stream captures differ");
    }
  }
  tracer.set_enabled(false);
  out.set("setup_s", setup_s.value(), "s");
  // The capture's worlds are gone: from here the peak is the service's.
  out.tally.check(reset_peak_rss(), "cannot reset the peak RSS");

  // Per world: the pushed stream, its figures fed in-process with no
  // socket (the ground truth), and a live Observatory taking pushes.
  DigestCheck digests{committed_digest(opt, out.tally), {}};
  PerWorld inproc_rate;
  observatory::IngestConfig icfg;
  icfg.queue_capacity = 1024;
  std::string error;
  bool serving = true;
  double min_events = 1e300;  // below the quotas' sum if a world fell short
  for (std::size_t j = 0; j < worlds.size(); ++j) {
    IngestWorld& w = worlds[j];
    w.capture.truncate();
    min_events =
        std::min(min_events, static_cast<double>(w.capture.events.size()));
    w.tables = scenario::build_internet(w.dcfg.world);
    const double cycle_events =
        static_cast<double>(w.capture.events.size()) * kStreamRepeats;
    for (int i = 0; i < 3; ++i) {
      observatory::Observatory o(w.tables->routes, w.tables->registry);
      const double t = now_s();
      w.capture.replay(o, kStreamRepeats);
      inproc_rate.add(j, cycle_events / since(t));
      w.truth = o.figure_sets();
    }
    digests.check(j, w.truth, out.tally);
    w.live = std::make_unique<observatory::Observatory>(w.tables->routes,
                                                        w.tables->registry);
    serving = serving && w.live->serve_ingest(0, icfg, &error);
  }
  out.figures_digest = digests.finish(out.tally);
  out.set("world.stream_events", min_events, "count");

  // World 0's default channel holds its stream once; that is what the
  // query generator's /figures reads.
  observatory::Observatory& front = *worlds[0].live;
  worlds[0].capture.replay(front, 1);
  const std::string figures_body = front.handle("/figures").body;
  serving = serving && front.serve(0, &error);
  out.tally.check(serving, "observatory cannot serve: " + error);
  if (!serving) return;

  QueryResults queries;
  std::jthread query_thread([&](std::stop_token stop) {
    queries = query_loop(front.port(), figures_body, kIngestQueryHz, stop, 0);
  });

  PerWorld cycle_s, rate;
  std::uint64_t pushed = 0;
  Loop loop(opt, tracer);
  while (loop.next()) {
    IngestWorld& w = worlds[loop.world()];
    ScopedSpan root(tracer, "bench.cycle");
    const std::string campaign = "c" + std::to_string(loop.iteration);
    const double t = now_s();
    bool ok = true;
    {
      ScopedSpan s(tracer, "observatory.push");
      try {
        observatory::PushClientConfig pcfg;
        pcfg.port = w.live->ingest_port();
        pcfg.campaign = campaign;
        pcfg.policy = observatory::IngestOverloadPolicy::park;
        pcfg.world_seed = w.dcfg.world.seed;
        pcfg.plan_hash = w.dcfg.world.fault_plan.hash();
        observatory::PushClient client(pcfg);
        {
          ScopedSpan c(tracer, "observatory.connect");
          client.connect();
        }
        {
          ScopedSpan e(tracer, "observatory.send_events");
          client.add_stream_total(w.capture.announced * kStreamRepeats);
          w.capture.send_events(client, kStreamRepeats);
        }
        // The done frame returns once the server drained the campaign.
        ScopedSpan d(tracer, "observatory.drain_wait");
        for (const auto& [kind, report] : w.capture.reports)
          client.note_campaign_report(kind, report);
        client.note_stream_done();
      } catch (const observatory::IngestError& e) {
        ok = false;
        error = e.what();
      }
    }
    const double push_s = since(t);
    out.tally.check(ok, "push failed: " + error);
    const std::size_t events = w.capture.events.size() * kStreamRepeats;
    pushed += events;
    {
      ScopedSpan s(tracer, "observatory.figures_check");
      out.tally.check(w.live->figure_sets(campaign) == w.truth,
                      "push-fed figures differ from in-process figures");
    }
    {
      ScopedSpan s(tracer, "observatory.drop");
      w.live->drop_campaign(campaign);
    }
    const double wall = since(t);
    cycle_s.add(loop.world(), wall);
    loop.note_wall(wall);
    rate.add(loop.world(), static_cast<double>(events) / push_s);
    // Untimed: hands the dropped channel's memory back to the kernel.
    // Otherwise it stays cached in whichever glibc arenas the server's
    // threads used, and peak_rss_mib measures that cache (NOTES.md).
    malloc_trim(0);
  }
  tracer.set_enabled(false);
  query_thread.request_stop();
  query_thread.join();

  std::uint64_t parks = 0, max_depth = 0, rejected = 0, shed = 0;
  for (IngestWorld& w : worlds) {
    const observatory::IngestStats st = w.live->ingest_server()->stats();
    parks += st.parks;
    max_depth = std::max(max_depth, st.max_queue_depth);
    rejected += st.rejected_total();
    shed += st.shed_total;
    w.live->stop_ingest();
  }
  front.stop_serving();
  out.tally.add(pushed, rejected + shed, "ingest rejected or shed events");
  report_queries(out, queries);
  out.set("peak_rss_mib", peak_rss_mib(), "MiB");
  out.set("campaign_s", cycle_s.value(), "s");
  out.set("ingest_events_per_s", rate.value(), "1/s");
  out.set("observatory.inproc_events_per_s", inproc_rate.value(), "1/s");
  out.set("observatory.parks", static_cast<double>(parks), "count");
  out.set("observatory.max_queue_depth", static_cast<double>(max_depth),
          "count");
  out.set("observatory.rejected_total", static_cast<double>(rejected),
          "count");
  out.set("observatory.shed_total", static_cast<double>(shed), "count");

  if (opt.trace) {
    // Codec and render costs, in process.
    const std::vector<observatory::StreamEvent>& events =
        worlds[0].capture.events;
    super::wire::Writer w;
    double t = now_s();
    for (int rep = 0; rep < 20; ++rep)
      for (const observatory::StreamEvent& e : events)
        observatory::put_stream_event(w, e);
    out.set("observatory.encode_ns",
            since(t) * 1e9 / (20.0 * static_cast<double>(events.size())),
            "ns");
    std::vector<double> render_us;
    for (int rep = 0; rep < 200; ++rep) {
      std::ostringstream os;
      t = now_s();
      front.render_figures_json(os);
      render_us.push_back(since(t) * 1e6);
    }
    out.set("observatory.render_figures_us", median(render_us), "us");
    trace_metrics(out, tracer, loop.traced, loop.traced_s, loop.plain_s);
  }
}

}  // namespace

bool run_workload(const Options& opt, Outcome& out) {
  Tracer tracer;
  layer_defaults(out);
  if (opt.workload == "bt_crawl")
    run_bt_crawl(opt, out, tracer);
  else if (opt.workload == "netalyzr_v6")
    run_netalyzr_v6(opt, out, tracer);
  else if (opt.workload == "observatory_ingest")
    run_observatory_ingest(opt, out, tracer);
  else
    return false;
  if (opt.trace) {
    const std::string dir = ".bench_build/traces";
    const std::string path =
        dir + "/" + opt.workload + "-seed" + std::to_string(opt.seed) + ".json";
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    out.tally.check(tracer.write_json(path), "cannot write spans to " + path);
  }
  return true;
}

}  // namespace cgnbench
