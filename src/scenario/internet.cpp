#include "scenario/internet.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/profiler.hpp"

namespace cgn::scenario {

namespace {

/// Nominally-public /8-style blocks some ISPs deploy internally
/// (Figure 7(b)); none of them fall inside the announced 16.0.0.0/4 world,
/// so they classify as "unrouted".
const char* kUnroutedInternalBlocks[] = {"25.0.0.0/8",  "21.0.0.0/8",
                                         "26.0.0.0/8",  "29.0.0.0/8",
                                         "30.0.0.0/8",  "33.0.0.0/8",
                                         "51.0.0.0/8"};

// --- IPv6 transition (DESIGN.md §14) ---------------------------------------

/// Salt of the per-AS v6 substream (fork(seed ^ salt, asn)): independent of
/// the main builder RNG, so enabling v6 perturbs no v4 draw.
constexpr std::uint64_t kV6BuilderSalt = 0x76365f6e6174ull;  // "v6_nat"

/// The RFC 7335 well-known CLAT-side address every 464XLAT line shows as
/// its local IPv4 — the duplicate-ip_dev signal the fig14 classifier keys
/// on.
constexpr netcore::Ipv4Address kClatDeviceV4{192, 0, 0, 1};
/// Factory-default LAN address of the B4 home router's single device; like
/// the CLAT address, identical across every DS-Lite home.
constexpr netcore::Ipv4Address kB4DeviceV4{192, 168, 1, 2};

/// Per-ISP AFTR tunnel endpoint: 2001:db8:0:<asn>::1.
netcore::Ipv6Address aftr_address_for(std::uint64_t asn) {
  return {0x20010db800000000ull | asn, 1};
}

/// Per-line device/B4 v6 address: 2001:db8:<1|2>:<asn>::<line+1>.
netcore::Ipv6Address line_v6_address(std::uint64_t block, std::uint64_t asn,
                                     int index) {
  return {0x20010db800000000ull | (block << 16) | asn,
          static_cast<std::uint64_t>(index) + 1};
}

}  // namespace

/// Deferred per-line construction (README "Scale"). The builder performs
/// every RNG draw for every subscriber line at *plan* time, in exactly the
/// order eager construction used to, and records the outcomes here;
/// materialization replays a recorded plan without touching any generator.
/// Eager mode (the default) materializes each ISP's homes immediately after
/// planning them, which reproduces the historical construction order —
/// node ids, names, registration order — byte-for-byte. Lazy mode defers a
/// home until its first use; node ids then differ from eager, but no figure
/// depends on them (shard partitions key on route equality, fingerprints on
/// addresses/ports), so campaign output stays byte-identical.
struct LazyWorld {
  /// One BitTorrent client to attach (primary or second device of a home).
  struct BtPlan {
    bool sloppy = false;         ///< propagates unvalidated contacts
    std::uint64_t dht_seed = 0;  ///< the engine draw rng_.fork() would take
    dht::NodeId160 dht_id;
    bool upnp_map = false;  ///< CPE static mapping for port 6881
    bool deaf = false;      ///< fault plan marks the device unresponsive
  };

  /// One home: a subscriber line plus (maybe) a second LAN device.
  struct LinePlan {
    int index = 0;  ///< loop index within the ISP (names, v6 addresses)
    int home_id = 0;
    std::uint32_t slot = 0;  ///< primary's index in isp.subscribers
    bool behind_cgn = false;
    bool has_bt = false;
    bool no_cpe = false;  ///< archetype B (v4 path only)
    bool multi_home = false;
    bool materialized = false;
    netcore::Ipv4Address line_addr;
    const CpeModel* cpe_model = nullptr;  ///< catalog entry; null: no CPE
    std::uint64_t cpe_seed = 0;           ///< CPE NAT's forked engine seed
    nat::TranslatorMode v6_mode = nat::TranslatorMode::nat44;
    bool has_clat = false;
    BtPlan bt;      ///< meaningful when has_bt
    BtPlan second;  ///< meaningful when multi_home
  };

  /// Per-ISP plan: the attachment points and every home.
  struct IspLines {
    std::string as_name;
    std::size_t isp_slot = 0;  ///< index into Internet::isps
    sim::NodeId cpe_chain = sim::kNoNode;
    sim::NodeId direct_chain = sim::kNoNode;
    sim::NodeId public_chain = sim::kNoNode;
    std::vector<LinePlan> lines;
    /// subscribers-vector slot -> lines index (seconds map to their home).
    std::vector<std::uint32_t> slot_to_line;
    // Silent-line ballast (drawn from nothing; see materialize_silent_lines).
    std::vector<netcore::Ipv4Address> silent_bases;
    std::size_t n_subs = 0;
    std::size_t silent_planned = 0;
    std::size_t silent_built = 0;
  };

  bool defer = false;  ///< config.lazy_build
  std::vector<IspLines> isps;
  std::unordered_map<netcore::Asn, std::size_t> by_asn;

  void materialize_home(Internet& I, IspLines& L, LinePlan& lp);

 private:
  void build_v4_line(Internet& I, IspLines& L, const LinePlan& lp,
                     Subscriber& sub);
  void build_v6_line(Internet& I, IspLines& L, const LinePlan& lp,
                     Subscriber& sub);
  Subscriber build_lan_device(Internet& I, IspLines& L, const LinePlan& lp,
                              const Subscriber& first);
  void attach_demux(Internet& I, Subscriber& sub);
  void attach_bt(Internet& I, Subscriber& sub, const BtPlan& bp);
};

void LazyWorld::attach_demux(Internet& I, Subscriber& sub) {
  auto demux = std::make_unique<sim::PortDemux>();
  sub.demux = demux.get();
  demux->attach(I.net, sub.device);
  I.demuxes_.push_back(std::move(demux));
}

void LazyWorld::build_v4_line(Internet& I, IspLines& L, const LinePlan& lp,
                              Subscriber& sub) {
  IspInstance& isp = I.isps[L.isp_slot];
  const sim::NodeId line_scope =
      lp.behind_cgn ? isp.cgn_node : I.net.root();
  if (lp.no_cpe) {
    sim::NodeId attach = lp.behind_cgn ? L.direct_chain : L.public_chain;
    sub.device = I.net.add_node(
        attach, L.as_name + "-dev" + std::to_string(lp.home_id));
    sub.device_address = lp.line_addr;
    I.net.add_local_address(sub.device, lp.line_addr);
    I.net.register_address(lp.line_addr, sub.device, line_scope);
  } else {
    sim::NodeId attach = lp.behind_cgn ? L.cpe_chain : L.public_chain;
    const CpeModel& model = *lp.cpe_model;
    sim::NodeId cpe_node = I.net.add_node(
        attach, L.as_name + "-cpe" + std::to_string(lp.home_id));
    nat::NatConfig cfg;
    cfg.name = model.name;
    cfg.mapping = model.mapping;
    cfg.port_allocation = model.allocation;
    cfg.pooling = nat::Pooling::paired;
    cfg.udp_timeout_s = model.udp_timeout_s;
    cfg.hairpinning = model.hairpinning;
    cfg.hairpin_preserve_source = model.hairpin_preserve_source;
    cfg.port_min = 1024;
    auto nat = std::make_unique<nat::NatDevice>(
        cfg, std::vector<netcore::Ipv4Address>{lp.line_addr},
        sim::Rng(lp.cpe_seed));
    sub.cpe = nat.get();
    sub.cpe_upnp = model.upnp;
    I.nats_.push_back(std::move(nat));
    I.net.set_middlebox(cpe_node, sub.cpe);
    I.net.register_address(lp.line_addr, cpe_node, line_scope);

    sub.device = I.net.add_node(
        cpe_node, L.as_name + "-dev" + std::to_string(lp.home_id));
    sub.device_address = model.lan_prefix.at(2);
    I.net.add_local_address(sub.device, sub.device_address);
    I.net.register_address(sub.device_address, sub.device, cpe_node);
    sub.cpe_node = cpe_node;
  }
  attach_demux(I, sub);
}

void LazyWorld::build_v6_line(Internet& I, IspLines& L, const LinePlan& lp,
                              Subscriber& sub) {
  IspInstance& isp = I.isps[L.isp_slot];
  const std::uint64_t asn = isp.asn;
  const netcore::Ipv4Address underlay = lp.line_addr;
  sub.v6_mode = lp.v6_mode;
  sim::NodeId elem_node;
  if (lp.v6_mode == nat::TranslatorMode::nat64) {
    sub.device_v6 = line_v6_address(2, asn, lp.index);
    sub.has_clat = lp.has_clat;
    if (lp.has_clat) {
      elem_node = I.net.add_node(
          L.cpe_chain, L.as_name + "-clat" + std::to_string(lp.home_id));
      sub.device_address = kClatDeviceV4;
      auto clat = std::make_unique<v6::ClatElement>(
          sub.device_v6, isp.cgn_profile->pref64, underlay, kClatDeviceV4);
      I.net.set_middlebox(elem_node, clat.get());
      I.clats_.push_back(std::move(clat));
    } else {
      elem_node = I.net.add_node(
          L.cpe_chain, L.as_name + "-v6stk" + std::to_string(lp.home_id));
      sub.device_address = netcore::Ipv4Address(
          0xA9FE0000u + static_cast<std::uint32_t>(lp.index) + 257);
      auto stack = std::make_unique<v6::HostV6Stack>(
          sub.device_v6, underlay, sub.device_address);
      sub.v6stack = stack.get();
      I.net.set_middlebox(elem_node, stack.get());
      I.v6stacks_.push_back(std::move(stack));
    }
    isp.nat64->add_host(sub.device_v6, underlay);
  } else {  // DS-Lite softwire
    sub.device_v6 = line_v6_address(1, asn, lp.index);
    elem_node = I.net.add_node(
        L.cpe_chain, L.as_name + "-b4" + std::to_string(lp.home_id));
    sub.device_address = kB4DeviceV4;
    auto b4 = std::make_unique<v6::B4Element>(
        sub.device_v6, isp.aftr->aftr_address(), underlay);
    I.net.set_middlebox(elem_node, b4.get());
    I.b4s_.push_back(std::move(b4));
    isp.aftr->add_softwire(sub.device_v6, underlay);
  }
  I.net.register_address(underlay, elem_node, isp.cgn_node);

  sub.device = I.net.add_node(
      elem_node, L.as_name + "-dev" + std::to_string(lp.home_id));
  I.net.add_local_address(sub.device, sub.device_address);
  I.net.register_address(sub.device_address, sub.device, elem_node);
  attach_demux(I, sub);
}

Subscriber LazyWorld::build_lan_device(Internet& I, IspLines& L,
                                       const LinePlan& lp,
                                       const Subscriber& first) {
  Subscriber sub;
  sub.home_id = first.home_id;
  sub.behind_cgn = first.behind_cgn;
  sub.cpe = first.cpe;
  sub.cpe_upnp = first.cpe_upnp;
  sub.cpe_node = first.cpe_node;
  sub.device = I.net.add_node(
      first.cpe_node,
      L.as_name + "-dev" + std::to_string(lp.index) + "b");
  sub.device_address = netcore::Ipv4Address(first.device_address.value() + 1);
  I.net.add_local_address(sub.device, sub.device_address);
  I.net.register_address(sub.device_address, sub.device, first.cpe_node);
  attach_demux(I, sub);
  return sub;
}

void LazyWorld::attach_bt(Internet& I, Subscriber& sub, const BtPlan& bp) {
  dht::DhtNodeConfig cfg;
  cfg.table_capacity = I.config.dht_table_capacity;
  cfg.pings_per_round = 24;  // active clients validate aggressively
  cfg.validate_before_propagate = !bp.sloppy;
  netcore::Endpoint local{sub.device_address, 6881};
  auto node = std::make_unique<dht::DhtNode>(bp.dht_id, local, sub.device,
                                             cfg, sim::Rng(bp.dht_seed));
  sub.bt_client = node.get();
  sub.demux->bind(6881, [ptr = node.get()](sim::Network& n,
                                           const sim::Packet& p) {
    ptr->handle(n, p);
  });
  if (bp.upnp_map)
    sub.cpe->add_static_mapping(netcore::Protocol::udp, local, 0.0);
  I.bt_peer_ptrs_.push_back(node.get());
  I.dht_nodes_.push_back(std::move(node));
  if (bp.deaf) I.faults->mark_unresponsive(sub.device, 6881);
}

void LazyWorld::materialize_home(Internet& I, IspLines& L, LinePlan& lp) {
  if (lp.materialized) return;
  lp.materialized = true;
  IspInstance& isp = I.isps[L.isp_slot];

  Subscriber sub;
  sub.home_id = lp.home_id;
  sub.behind_cgn = lp.behind_cgn;
  if (lp.behind_cgn && lp.v6_mode != nat::TranslatorMode::nat44)
    build_v6_line(I, L, lp, sub);
  else
    build_v4_line(I, L, lp, sub);
  if (lp.has_bt) attach_bt(I, sub, lp.bt);
  isp.subscribers[lp.slot] = sub;

  if (lp.multi_home) {
    // A second BitTorrent device in the same home LAN; both clients
    // discover each other via local peer discovery.
    Subscriber& primary = isp.subscribers[lp.slot];
    Subscriber second = build_lan_device(I, L, lp, primary);
    attach_bt(I, second, lp.second);
    dht::DhtNode* a = primary.bt_client;
    dht::DhtNode* b = second.bt_client;
    a->learn_contact(dht::Contact{b->id(), b->local_endpoint()},
                     /*pinned=*/true);
    b->learn_contact(dht::Contact{a->id(), a->local_endpoint()},
                     /*pinned=*/true);
    isp.subscribers[lp.slot + 1] = second;
  }
}

/// Performs the actual construction; split from Internet to keep the data
/// holder readable.
class InternetBuilder {
 public:
  explicit InternetBuilder(Internet& internet)
      : I_(internet), rng_(I_.rng_.fork()) {}

  void build() {
    build_universe();
    build_servers();
    for (AsPlan& plan : plans_)
      if (plan.instrumented()) build_isp(plan);
  }

 private:
  struct AsPlan {
    netcore::AsInfo info;
    netcore::Ipv4Prefix prefix;
    bool bt = false;
    bool nz = false;
    bool cgn = false;
    [[nodiscard]] bool instrumented() const { return bt || nz; }
  };

  void build_universe() {
    const InternetConfig& cfg = I_.config;
    const std::size_t overlap = static_cast<std::size_t>(
        cfg.eyeball_list_overlap *
        static_cast<double>(std::min(cfg.pbl_eyeballs, cfg.apnic_eyeballs)));
    const std::size_t eyeball_union =
        cfg.pbl_eyeballs + cfg.apnic_eyeballs - overlap;
    if (eyeball_union + 1 >= cfg.routed_ases)
      throw std::invalid_argument("more eyeballs than routed ASes");

    std::vector<double> region_w(cfg.region_share.begin(),
                                 cfg.region_share.end());

    plans_.reserve(cfg.routed_ases);
    for (std::size_t i = 0; i < cfg.routed_ases; ++i) {
      AsPlan plan;
      plan.info.asn = static_cast<netcore::Asn>(i + 1);
      plan.info.name = "AS" + std::to_string(plan.info.asn);
      plan.info.region = static_cast<netcore::Rir>(rng_.weighted(region_w));
      if (i < eyeball_union) {
        plan.info.pbl_eyeball = i < cfg.pbl_eyeballs;
        plan.info.apnic_eyeball = i < overlap || i >= cfg.pbl_eyeballs;
      }
      plan.prefix = carver_.next(20);
      plans_.push_back(std::move(plan));
    }

    // Cellular networks are a subset of the eyeball population.
    {
      std::vector<std::size_t> eyeball_idx(eyeball_union);
      for (std::size_t i = 0; i < eyeball_union; ++i) eyeball_idx[i] = i;
      rng_.shuffle(eyeball_idx);
      for (std::size_t i = 0; i < cfg.cellular_ases && i < eyeball_idx.size();
           ++i)
        plans_[eyeball_idx[i]].info.cellular = true;
    }

    for (AsPlan& plan : plans_) {
      // Ground-truth CGN deployment.
      double rate;
      if (plan.info.cellular) {
        rate = plan.info.region == netcore::Rir::afrinic
                   ? cfg.cellular_cgn_rate_afrinic
                   : cfg.cellular_cgn_rate;
      } else if (plan.info.eyeball()) {
        rate = cfg.cgn_rate_by_region[static_cast<std::size_t>(
            plan.info.region)];
      } else {
        rate = cfg.other_cgn_rate;
      }
      plan.cgn = rng_.chance(rate);
      I_.truth_cgn_[plan.info.asn] = plan.cgn;

      // Instrumentation.
      if (plan.info.cellular) {
        plan.nz = rng_.chance(cfg.nz_cellular_coverage);
        plan.bt = rng_.chance(0.25);  // BitTorrent is rare on mobile
      } else if (plan.info.eyeball()) {
        plan.bt = rng_.chance(cfg.bt_eyeball_coverage);
        plan.nz = rng_.chance(cfg.nz_eyeball_coverage);
      } else {
        plan.bt = rng_.chance(cfg.bt_other_fraction);
        plan.nz = rng_.chance(cfg.nz_other_fraction);
      }

      I_.registry.add(plan.info);
      I_.routes.announce(plan.prefix, plan.info.asn);
    }
  }

  void build_servers() {
    const InternetConfig& cfg = I_.config;
    netcore::AsInfo infra;
    infra.asn = static_cast<netcore::Asn>(cfg.routed_ases + 1);
    infra.name = "MEASUREMENT-INFRA";
    infra.region = netcore::Rir::arin;
    I_.registry.add(infra);
    netcore::Ipv4Prefix prefix = carver_.next(24);
    I_.routes.announce(prefix, infra.asn);

    sim::NodeId rack = I_.net.add_router_chain(I_.net.root(),
                                               cfg.server_side_hops, "infra");
    Servers& s = I_.servers;

    s.netalyzr_host = I_.net.add_node(rack, "netalyzr-server");
    s.netalyzr = std::make_unique<netalyzr::NetalyzrServer>(s.netalyzr_host,
                                                            prefix.at(10));
    s.netalyzr->install(I_.net);
    // The Big-NAT battery's literal-v4 probe target: a second address the
    // client never resolves through DNS. Installed only in v6 worlds so a
    // default build's address registrations stay identical.
    if (cfg.v6.enabled)
      s.netalyzr->install_literal_address(I_.net, prefix.at(11));

    s.stun_host = I_.net.add_node(rack, "stun-server");
    s.stun = std::make_unique<stun::StunServer>(I_.net, s.stun_host,
                                                prefix.at(20), prefix.at(21),
                                                3478, 3479);
    s.stun->install(I_.net);

    s.bootstrap_host = I_.net.add_node(rack, "dht-bootstrap");
    netcore::Ipv4Address boot_addr = prefix.at(30);
    I_.net.add_local_address(s.bootstrap_host, boot_addr);
    I_.net.register_address(boot_addr, s.bootstrap_host, I_.net.root());
    dht::DhtNodeConfig boot_cfg;
    boot_cfg.table_capacity = 4096;
    boot_cfg.validate_before_propagate = false;  // bootstrap hands out leads
    // Two draws, sequenced explicitly: argument evaluation order is
    // unspecified, and the worlds were first built with GCC's right-to-left
    // order (the rng_.fork() engine draw before the node-id draw).
    sim::Rng boot_rng = rng_.fork();
    const dht::NodeId160 boot_id = dht::NodeId160::random(rng_);
    s.bootstrap = std::make_unique<dht::DhtNode>(
        boot_id, netcore::Endpoint{boot_addr, 6881}, s.bootstrap_host,
        boot_cfg, std::move(boot_rng));
    s.bootstrap_endpoint = {boot_addr, 6881};
    {
      dht::DhtNode* boot = s.bootstrap.get();
      I_.net.set_receiver(s.bootstrap_host,
                          [boot](sim::Network& n, const sim::Packet& p) {
                            boot->handle(n, p);
                          });
    }

    s.tracker_host = I_.net.add_node(rack, "tracker");
    s.tracker = std::make_unique<dht::TrackerServer>(s.tracker_host,
                                                     prefix.at(40),
                                                     rng_.fork(),
                                                     /*reply_sample=*/56);
    s.tracker->install(I_.net);

    s.crawler_host = I_.net.add_node(rack, "crawler");
    netcore::Ipv4Address crawler_addr = prefix.at(50);
    I_.net.add_local_address(s.crawler_host, crawler_addr);
    I_.net.register_address(crawler_addr, s.crawler_host, I_.net.root());
    s.crawler_endpoint = {crawler_addr, 6881};
  }

  void build_isp(AsPlan& plan) {
    const InternetConfig& cfg = I_.config;
    public_cache_.clear();  // the cache is per-ISP: addresses carry the ASN
    IspInstance isp;
    isp.asn = plan.info.asn;
    isp.cellular = plan.info.cellular;

    // Per-AS fault substream: keyed by ASN, independent of the builder's
    // rng_, so (a) an inactive plan draws nothing and the world is
    // byte-identical to a faultless build, and (b) the same ASN gets the
    // same faults whatever else changes in the plan's surroundings.
    const fault::FaultPlan& fplan = I_.config.fault_plan;
    const bool faults_on = fplan.active();
    sim::Rng frng = faults_on
                        ? I_.faults->substream(fault::kSaltBuilder,
                                               plan.info.asn)
                        : sim::Rng(0);

    netcore::PrefixCarver pool_carver(plan.prefix);
    (void)pool_carver.next(24);  // skip the block routers would use
    isp.spare_block = pool_carver.next(24);  // reserved for renumbering

    // Access aggregation under the core.
    int agg = static_cast<int>(rng_.uniform(
        static_cast<std::uint64_t>(cfg.agg_hops_lo),
        static_cast<std::uint64_t>(cfg.agg_hops_hi)));
    sim::NodeId agg_bottom =
        I_.net.add_router_chain(I_.net.root(), agg, plan.info.name);

    // Sizing.
    std::size_t bt_count = 0;
    if (plan.bt) {
      if (plan.info.cellular) {
        bt_count = rng_.uniform(1, static_cast<std::uint64_t>(
                                       cfg.bt_peers_cellular_hi));
      } else if (plan.cgn) {
        bt_count = rng_.uniform(static_cast<std::uint64_t>(cfg.bt_peers_cgn_lo),
                                static_cast<std::uint64_t>(cfg.bt_peers_cgn_hi));
      } else {
        bt_count = rng_.uniform(static_cast<std::uint64_t>(cfg.bt_peers_lo),
                                static_cast<std::uint64_t>(cfg.bt_peers_hi));
      }
    }
    if (plan.nz) {
      isp.nz_session_target =
          plan.info.cellular
              ? rng_.uniform(
                    static_cast<std::uint64_t>(cfg.nz_cellular_sessions_lo),
                    static_cast<std::uint64_t>(cfg.nz_cellular_sessions_hi))
              : rng_.uniform(static_cast<std::uint64_t>(cfg.nz_sessions_lo),
                             static_cast<std::uint64_t>(cfg.nz_sessions_hi));
    }
    isp.bt_peer_count = bt_count;
    std::size_t n_subs = std::max({bt_count, isp.nz_session_target,
                                   std::size_t{12}});

    // CGN construction.
    sim::NodeId cpe_chain_bottom = sim::kNoNode;    // NAT444 attach point
    sim::NodeId direct_chain_bottom = sim::kNoNode; // archetype-B attach point
    std::vector<netcore::Ipv4Address> internal_bases;
    if (plan.cgn) {
      isp.cgn_profile = sample_cgn_profile(rng_, plan.info.cellular);
      // v6-enabled worlds overlay the transition deployment onto the CGN
      // profile from an independent per-AS substream; the same substream
      // later drives the per-line CLAT draws.
      if (cfg.v6.enabled) {
        v6rng_ = sim::Rng::fork(cfg.seed ^ kV6BuilderSalt, plan.info.asn);
        apply_transition_profile(*isp.cgn_profile, v6rng_,
                                 plan.info.cellular, plan.info.asn, cfg.v6);
        isp.transition = isp.cgn_profile->transition;
      }
      I_.truth_transition_[plan.info.asn] = isp.transition;
      const CgnProfile& prof = *isp.cgn_profile;

      isp.cgn_node = I_.net.add_node(agg_bottom, plan.info.name + "-cgn");
      std::vector<netcore::Ipv4Address> pool;
      netcore::Ipv4Prefix pool_prefix = pool_carver.next(24);
      for (int i = 0; i < prof.pool_size; ++i)
        pool.push_back(pool_prefix.at(static_cast<std::uint64_t>(i) + 1));

      nat::NatConfig nat_cfg;
      nat_cfg.name = "CGN-" + plan.info.name;
      nat_cfg.mapping = prof.mapping;
      nat_cfg.port_allocation = prof.allocation;
      nat_cfg.chunk_size = prof.chunk_size;
      nat_cfg.pooling = prof.pooling;
      nat_cfg.udp_timeout_s = prof.udp_timeout_s;
      nat_cfg.hairpinning = prof.hairpinning;
      nat_cfg.hairpin_preserve_source = prof.hairpin_preserve_source;
      nat_cfg.port_min = 1024;
      // NAT64 / DS-Lite edges wrap the same NatDevice core the NAT444 path
      // instantiates (isp.cgn always points at the core, so GC, fault
      // wiring and figure extractors are mechanism-agnostic).
      sim::Middlebox* edge = nullptr;
      if (isp.transition == nat::TranslatorMode::nat64) {
        auto t = std::make_unique<v6::Nat64Device>(nat_cfg, pool, rng_.fork(),
                                                   prof.pref64);
        isp.nat64 = t.get();
        isp.cgn = &t->core();
        edge = t.get();
        I_.nat64s_.push_back(std::move(t));
        auto dns = std::make_unique<v6::Dns64Resolver>(prof.pref64);
        isp.dns64 = dns.get();
        I_.dns64s_.push_back(std::move(dns));
      } else if (isp.transition == nat::TranslatorMode::dslite_aftr) {
        auto t = std::make_unique<v6::DsLiteAftr>(
            nat_cfg, pool, rng_.fork(), aftr_address_for(plan.info.asn));
        isp.aftr = t.get();
        isp.cgn = &t->core();
        edge = t.get();
        I_.aftrs_.push_back(std::move(t));
      } else {
        auto nat = std::make_unique<nat::NatDevice>(nat_cfg, pool,
                                                    rng_.fork());
        isp.cgn = nat.get();
        edge = nat.get();
        I_.nats_.push_back(std::move(nat));
      }
      I_.net.set_middlebox(isp.cgn_node, edge);
      for (const auto& a : pool)
        I_.net.register_address(a, isp.cgn_node, I_.net.root());

      // Scheduled restarts / pressure windows apply to carrier-grade
      // devices (the paper's CGN state flushes); phases are drawn per
      // device so the fleet does not reboot in lockstep.
      if (faults_on && (fplan.nat.restart_period_s > 0 ||
                        fplan.nat.pressure_period_s > 0))
        isp.cgn->set_fault_profile(
            fplan.nat,
            fplan.nat.restart_period_s > 0
                ? frng.uniform01() * fplan.nat.restart_period_s
                : 0.0,
            fplan.nat.pressure_period_s > 0
                ? frng.uniform01() * fplan.nat.pressure_period_s
                : 0.0);

      int d = prof.hop_distance;
      cpe_chain_bottom = I_.net.add_router_chain(
          isp.cgn_node, std::max(d - 2, 0), plan.info.name + "-acc");
      direct_chain_bottom = I_.net.add_router_chain(
          isp.cgn_node, std::max(d - 1, 0), plan.info.name + "-dir");

      // Internal addressing bases (one per configured range, plus the
      // routable block when the ISP is short on internal space).
      for (auto range : prof.internal_ranges)
        internal_bases.push_back(netcore::prefix_of(range).address());
      if (prof.routable_internal) {
        if (rng_.chance(0.3) && plans_.size() > 2) {
          // Space that is publicly routed — by somebody else.
          const AsPlan& victim = plans_[rng_.index(plans_.size() - 2)];
          internal_bases.push_back(victim.prefix.address());
        } else {
          auto block = netcore::Ipv4Prefix::parse(
              kUnroutedInternalBlocks[rng_.index(
                  std::size(kUnroutedInternalBlocks))]);
          internal_bases.push_back(block.address());
        }
      }
    }

    // Public access chain for non-CGN subscribers.
    sim::NodeId public_chain_bottom = I_.net.add_router_chain(
        agg_bottom, static_cast<int>(rng_.uniform(1, 3)),
        plan.info.name + "-pub");

    // Subscribers: plan first (all RNG draws, in the order eager
    // construction used to make them), then materialize. Eager worlds
    // materialize right here, reproducing the historical node-id/name
    // sequence exactly; lazy worlds stop at the plan.
    LazyWorld::IspLines L;
    L.as_name = plan.info.name;
    L.cpe_chain = cpe_chain_bottom;
    L.direct_chain = direct_chain_bottom;
    L.public_chain = public_chain_bottom;
    L.silent_bases = internal_bases;
    L.n_subs = n_subs;
    if (plan.cgn && !internal_bases.empty() &&
        direct_chain_bottom != sim::kNoNode)
      L.silent_planned = cfg.silent_lines_per_cgn_as;

    // Injected-unresponsive BitTorrent peers: the client's inbound UDP is
    // discarded (app crashed / strict host firewall) while its own outbound
    // still refreshes NAT state — the peers the crawler probes and then
    // discards as dead.
    const double deaf_rate =
        faults_on
            ? fplan.peers.rate_for(static_cast<std::uint32_t>(plan.info.asn))
            : 0.0;
    int home_id = 0;
    for (std::size_t i = 0; i < n_subs; ++i) {
      LazyWorld::LinePlan lp;
      lp.index = static_cast<int>(i);
      lp.home_id = home_id++;
      lp.has_bt = i < bt_count;
      lp.behind_cgn =
          plan.cgn && rng_.chance(isp.cgn_profile->cgn_subscriber_fraction);

      // The line-side address handed out by the ISP: either a public
      // address or a CGN-internal one (each subscriber its own /24, which
      // is what CGN-scale address management looks like and what the
      // Figure 5 diversity heuristic keys on).
      if (lp.behind_cgn) {
        netcore::Ipv4Address base =
            internal_bases[i % internal_bases.size()];
        lp.line_addr = netcore::Ipv4Address(
            base.value() + static_cast<std::uint32_t>(i + 1) * 256 + 2);
      } else {
        lp.line_addr = next_public_address(pool_carver);
      }

      if (lp.behind_cgn && isp.transition != nat::TranslatorMode::nat44) {
        // v6 line: the element swap draws only the per-line CLAT share,
        // from the AS's independent v6 substream.
        lp.v6_mode = isp.transition;
        if (isp.transition == nat::TranslatorMode::nat64)
          lp.has_clat = v6rng_.chance(isp.cgn_profile->clat_fraction);
      } else {
        lp.no_cpe =
            plan.info.cellular ||
            (lp.behind_cgn && rng_.chance(isp.cgn_profile->no_cpe_fraction));
        if (!lp.no_cpe) {
          lp.cpe_model = &sample_cpe(rng_);
          // rng_.fork() == Rng(engine_()); record the engine draw so the
          // materializer can reconstruct the identical device RNG.
          lp.cpe_seed = rng_.engine()();
        }
      }
      const bool has_cpe = lp.cpe_model != nullptr;

      // One BT client's draws, in attach_bt_client's order. The DhtNode
      // constructor call evaluated its arguments right-to-left (GCC):
      // the rng_.fork() engine draw lands before the node-id draw.
      auto plan_bt = [&](LazyWorld::BtPlan& bp) {
        bp.sloppy = rng_.chance(cfg.sloppy_peer_fraction);
        bp.dht_seed = rng_.engine()();
        bp.dht_id = dht::NodeId160::random(rng_);
        if (has_cpe && lp.cpe_model->upnp)
          bp.upnp_map = rng_.chance(cfg.upnp_portmap_fraction);
        bp.deaf = deaf_rate > 0 && frng.chance(deaf_rate);
      };
      if (lp.has_bt) plan_bt(lp.bt);
      lp.multi_home = lp.has_bt && !plan.info.cellular && has_cpe &&
                      rng_.chance(cfg.multi_device_home_fraction);
      if (lp.multi_home) plan_bt(lp.second);

      lp.slot = static_cast<std::uint32_t>(isp.subscribers.size());
      const auto line_no = static_cast<std::uint32_t>(L.lines.size());
      // Placeholder slots keep isp.subscribers at its final size (stable
      // references, correct campaign shuffle domain) before any home is
      // built; plan-known fields are pre-filled for callers that only
      // classify lines.
      Subscriber& placeholder = isp.subscribers.emplace_back();
      placeholder.home_id = lp.home_id;
      placeholder.behind_cgn = lp.behind_cgn;
      placeholder.v6_mode = lp.v6_mode;
      L.slot_to_line.push_back(line_no);
      if (lp.multi_home) {
        Subscriber& second = isp.subscribers.emplace_back();
        second.home_id = lp.home_id;
        second.behind_cgn = lp.behind_cgn;
        L.slot_to_line.push_back(line_no);
      }
      L.lines.push_back(std::move(lp));
    }

    const std::size_t isp_slot = I_.isps.size();
    I_.isp_index[isp.asn] = isp_slot;
    I_.isps.push_back(std::move(isp));
    L.isp_slot = isp_slot;

    LazyWorld& lw = *I_.lazy_;
    lw.by_asn[I_.isps.back().asn] = lw.isps.size();
    lw.isps.push_back(std::move(L));
    if (!lw.defer) {
      LazyWorld::IspLines& stored = lw.isps.back();
      for (LazyWorld::LinePlan& line : stored.lines)
        lw.materialize_home(I_, stored, line);
    }
  }

  netcore::Ipv4Address next_public_address(netcore::PrefixCarver& carver) {
    // One /28 carve per 14 addresses, amortized through a small cache.
    if (public_cache_.empty()) {
      netcore::Ipv4Prefix block = carver.next(28);
      for (std::uint64_t i = 1; i + 1 < block.size(); ++i)
        public_cache_.push_back(block.at(i));
    }
    netcore::Ipv4Address a = public_cache_.back();
    public_cache_.pop_back();
    return a;
  }

  Internet& I_;
  sim::Rng rng_;
  /// Per-AS v6 substream; re-seeded at each CGN AS in v6-enabled worlds
  /// (apply_transition_profile draws first, then the per-line CLAT draws).
  sim::Rng v6rng_{0};
  netcore::PrefixCarver carver_{netcore::Ipv4Prefix::parse("16.0.0.0/4")};
  std::vector<AsPlan> plans_;
  std::vector<netcore::Ipv4Address> public_cache_;
};

Internet::Internet(const InternetConfig& cfg) : config(cfg), rng_(cfg.seed) {
  obs::ScopedPhase phase("build_internet");
  lazy_ = std::make_unique<LazyWorld>();
  lazy_->defer = cfg.lazy_build;
  faults = std::make_unique<fault::FaultInjector>(cfg.fault_plan);
  // Attach only an active injector: clean runs keep a null pointer on the
  // delivery path and build output identical to a no-fault binary.
  if (faults->active()) net.set_fault_injector(faults.get());
  InternetBuilder(*this).build();
}

Internet::~Internet() = default;

bool Internet::lazy() const noexcept { return lazy_ && lazy_->defer; }

const std::vector<dht::DhtNode*>& Internet::bt_peers() {
  if (lazy()) {
    // Materialize every BT home in plan order, then rebuild the pointer
    // list by walking subscriber slots — primaries before their second
    // device, lines in order, ISPs in order: exactly the eager push order,
    // however the homes were interleaved with other on-demand builds.
    for (LazyWorld::IspLines& L : lazy_->isps)
      for (LazyWorld::LinePlan& lp : L.lines)
        if (lp.has_bt) lazy_->materialize_home(*this, L, lp);
    bt_peer_ptrs_.clear();
    for (IspInstance& isp : isps)
      for (Subscriber& sub : isp.subscribers)
        if (sub.bt_client) bt_peer_ptrs_.push_back(sub.bt_client);
  }
  return bt_peer_ptrs_;
}

Subscriber& Internet::ensure_line(IspInstance& isp, std::size_t slot) {
  if (lazy()) {
    auto it = lazy_->by_asn.find(isp.asn);
    if (it != lazy_->by_asn.end()) {
      LazyWorld::IspLines& L = lazy_->isps[it->second];
      if (slot < L.slot_to_line.size())
        lazy_->materialize_home(*this, L, L.lines[L.slot_to_line[slot]]);
    }
  }
  return isp.subscribers[slot];
}

void Internet::materialize_all() {
  if (!lazy()) return;
  for (LazyWorld::IspLines& L : lazy_->isps)
    for (LazyWorld::LinePlan& lp : L.lines)
      lazy_->materialize_home(*this, L, lp);
}

std::size_t Internet::materialize_silent_lines(IspInstance& isp) {
  if (!lazy_) return 0;
  auto it = lazy_->by_asn.find(isp.asn);
  if (it == lazy_->by_asn.end()) return 0;
  LazyWorld::IspLines& L = lazy_->isps[it->second];
  // Silent lines share the real lines' addressing formula; their indices
  // start past n_subs, so the blocks never collide with an instrumented
  // line whatever the base rotation.
  for (; L.silent_built < L.silent_planned; ++L.silent_built) {
    const std::size_t j = L.n_subs + L.silent_built;
    netcore::Ipv4Address base = L.silent_bases[j % L.silent_bases.size()];
    netcore::Ipv4Address addr(
        base.value() + static_cast<std::uint32_t>(j + 1) * 256 + 2);
    sim::NodeId dev = net.add_node(
        L.direct_chain, L.as_name + "-sln" + std::to_string(L.silent_built));
    net.add_local_address(dev, addr);
    net.register_address(addr, dev, isp.cgn_node);
    auto demux = std::make_unique<sim::PortDemux>();
    demux->attach(net, dev);
    demuxes_.push_back(std::move(demux));
  }
  return L.silent_built;
}

std::size_t Internet::planned_subscriber_count() const {
  std::size_t n = 0;
  for (const IspInstance& isp : isps) n += isp.subscribers.size();
  if (lazy_)
    for (const LazyWorld::IspLines& L : lazy_->isps) n += L.silent_planned;
  return n;
}

std::unique_ptr<Internet> build_internet(const InternetConfig& config) {
  return std::make_unique<Internet>(config);
}

}  // namespace cgn::scenario
