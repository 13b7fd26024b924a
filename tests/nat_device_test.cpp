#include "nat/nat_device.hpp"

#include <gtest/gtest.h>

#include "obs/metrics.hpp"
#include "test_topology.hpp"

namespace cgn::nat {
namespace {

using netcore::Endpoint;
using netcore::Ipv4Address;
using netcore::Protocol;
using sim::Packet;

NatConfig base_config() {
  NatConfig cfg;
  cfg.name = "test-nat";
  cfg.mapping = MappingType::port_address_restricted;
  cfg.port_allocation = PortAllocation::preservation;
  cfg.udp_timeout_s = 60.0;
  cfg.tcp_timeout_s = 600.0;
  return cfg;
}

std::vector<Ipv4Address> pool(int n) {
  std::vector<Ipv4Address> out;
  for (int i = 0; i < n; ++i) out.push_back(Ipv4Address(16, 1, 0, 10 + i));
  return out;
}

Packet out_packet(std::uint16_t sport = 40000, std::uint16_t dport = 80) {
  return Packet::udp({Ipv4Address{192, 168, 1, 2}, sport},
                     {Ipv4Address{16, 9, 9, 9}, dport});
}

TEST(NatDevice, ConstructionValidation) {
  EXPECT_THROW(NatDevice(base_config(), {}, sim::Rng(1)),
               std::invalid_argument);
  auto cfg = base_config();
  cfg.port_min = 5000;
  cfg.port_max = 4000;
  EXPECT_THROW(NatDevice(cfg, pool(1), sim::Rng(1)), std::invalid_argument);
  cfg = base_config();
  cfg.port_allocation = PortAllocation::chunk_random;
  cfg.chunk_size = 0;
  EXPECT_THROW(NatDevice(cfg, pool(1), sim::Rng(1)), std::invalid_argument);
  auto dup = pool(2);
  dup[1] = dup[0];
  EXPECT_THROW(NatDevice(base_config(), dup, sim::Rng(1)),
               std::invalid_argument);
}

TEST(NatDevice, OutboundTranslatesSourceAndPreservesPort) {
  NatDevice nat(base_config(), pool(1), sim::Rng(1));
  Packet p = out_packet(40000);
  ASSERT_EQ(nat.process_outbound(p, 0.0), sim::Middlebox::Verdict::forward);
  EXPECT_EQ(p.src.address, pool(1)[0]);
  EXPECT_EQ(p.src.port, 40000) << "preservation keeps the source port";
  EXPECT_TRUE(nat.owns_external(p.src.address));
  EXPECT_EQ(nat.stats().mappings_created, 1u);
}

TEST(NatDevice, MappingReusedForSameInternalEndpoint) {
  NatDevice nat(base_config(), pool(1), sim::Rng(1));
  Packet p1 = out_packet(40000, 80);
  Packet p2 = out_packet(40000, 443);  // different destination
  (void)nat.process_outbound(p1, 0.0);
  (void)nat.process_outbound(p2, 1.0);
  EXPECT_EQ(p1.src, p2.src) << "cone NAT reuses the mapping across dsts";
  EXPECT_EQ(nat.stats().mappings_created, 1u);
}

TEST(NatDevice, SymmetricCreatesPerDestinationMappings) {
  auto cfg = base_config();
  cfg.mapping = MappingType::symmetric;
  cfg.port_allocation = PortAllocation::sequential;
  NatDevice nat(cfg, pool(1), sim::Rng(1));
  Packet p1 = out_packet(40000, 80);
  Packet p2 = out_packet(40000, 443);
  (void)nat.process_outbound(p1, 0.0);
  (void)nat.process_outbound(p2, 0.0);
  EXPECT_NE(p1.src, p2.src);
  EXPECT_EQ(nat.stats().mappings_created, 2u);
}

TEST(NatDevice, InboundRequiresMapping) {
  NatDevice nat(base_config(), pool(1), sim::Rng(1));
  Packet in = Packet::udp({Ipv4Address{16, 9, 9, 9}, 80},
                          {pool(1)[0], 40000});
  EXPECT_EQ(nat.process_inbound(in, 0.0),
            sim::Middlebox::Verdict::drop_no_mapping);
  EXPECT_EQ(nat.stats().inbound_no_mapping, 1u);
}

TEST(NatDevice, InboundTranslatesBackToInternal) {
  NatDevice nat(base_config(), pool(1), sim::Rng(1));
  Packet out = out_packet(40000, 80);
  (void)nat.process_outbound(out, 0.0);
  Packet in = Packet::udp({Ipv4Address{16, 9, 9, 9}, 80}, out.src);
  ASSERT_EQ(nat.process_inbound(in, 1.0), sim::Middlebox::Verdict::forward);
  EXPECT_EQ(in.dst, (Endpoint{Ipv4Address{192, 168, 1, 2}, 40000}));
}

// --- Filtering policy sweep -------------------------------------------------

struct FilterCase {
  MappingType type;
  bool same_endpoint_passes;   // reply from the contacted IP:port
  bool same_ip_other_port;     // same IP, different port
  bool other_ip;               // never-contacted IP
};

class FilteringTest : public ::testing::TestWithParam<FilterCase> {};

TEST_P(FilteringTest, AppliesPolicy) {
  const FilterCase& c = GetParam();
  auto cfg = base_config();
  cfg.mapping = c.type;
  NatDevice nat(cfg, pool(1), sim::Rng(1));
  Packet out = out_packet(40000, 80);
  (void)nat.process_outbound(out, 0.0);
  Endpoint ext = out.src;

  auto try_from = [&](Endpoint from) {
    Packet in = Packet::udp(from, ext);
    return nat.process_inbound(in, 1.0) == sim::Middlebox::Verdict::forward;
  };
  EXPECT_EQ(try_from({Ipv4Address{16, 9, 9, 9}, 80}), c.same_endpoint_passes);
  EXPECT_EQ(try_from({Ipv4Address{16, 9, 9, 9}, 81}), c.same_ip_other_port);
  EXPECT_EQ(try_from({Ipv4Address{16, 8, 8, 8}, 80}), c.other_ip);
}

INSTANTIATE_TEST_SUITE_P(
    AllMappingTypes, FilteringTest,
    ::testing::Values(
        FilterCase{MappingType::full_cone, true, true, true},
        FilterCase{MappingType::address_restricted, true, true, false},
        FilterCase{MappingType::port_address_restricted, true, false, false},
        FilterCase{MappingType::symmetric, true, false, false}),
    [](const auto& info) {
      switch (info.param.type) {
        case MappingType::full_cone: return "full_cone";
        case MappingType::address_restricted: return "address_restricted";
        case MappingType::port_address_restricted: return "port_address";
        case MappingType::symmetric: return "symmetric";
      }
      return "unknown";
    });

// --- Port allocation strategies ----------------------------------------------

TEST(NatDevice, PreservationFallsBackOnCollision) {
  auto cfg = base_config();
  NatDevice nat(cfg, pool(1), sim::Rng(1));
  Packet p1 = out_packet(40000);
  (void)nat.process_outbound(p1, 0.0);
  // A different internal host using the same source port.
  Packet p2 = Packet::udp({Ipv4Address{192, 168, 1, 3}, 40000},
                          {Ipv4Address{16, 9, 9, 9}, 80});
  (void)nat.process_outbound(p2, 0.0);
  EXPECT_NE(p2.src.port, 0);
  EXPECT_NE(p1.src.port == p2.src.port && p1.src.address == p2.src.address,
            true);
}

TEST(NatDevice, SequentialAllocatesIncreasingPorts) {
  auto cfg = base_config();
  cfg.port_allocation = PortAllocation::sequential;
  NatDevice nat(cfg, pool(1), sim::Rng(1));
  std::uint16_t last = 0;
  for (int i = 0; i < 10; ++i) {
    Packet p = Packet::udp({Ipv4Address{192, 168, 1, 2},
                            static_cast<std::uint16_t>(30000 + i)},
                           {Ipv4Address{16, 9, 9, 9}, 80});
    (void)nat.process_outbound(p, 0.0);
    if (i > 0) EXPECT_EQ(p.src.port, last + 1);
    last = p.src.port;
  }
}

TEST(NatDevice, RandomSpreadsAcrossPortSpace) {
  auto cfg = base_config();
  cfg.port_allocation = PortAllocation::random;
  cfg.port_min = 1024;
  NatDevice nat(cfg, pool(1), sim::Rng(1));
  std::uint16_t lo = 65535, hi = 0;
  for (int i = 0; i < 200; ++i) {
    Packet p = Packet::udp({Ipv4Address{192, 168, 1, 2},
                            static_cast<std::uint16_t>(20000 + i)},
                           {Ipv4Address{16, 9, 9, 9}, 80});
    (void)nat.process_outbound(p, 0.0);
    lo = std::min(lo, p.src.port);
    hi = std::max(hi, p.src.port);
  }
  EXPECT_LT(lo, 16384) << "random allocation should reach low ports";
  EXPECT_GT(hi, 49152) << "random allocation should reach high ports";
}

TEST(NatDevice, ChunkRandomConfinesSubscriberToItsBlock) {
  auto cfg = base_config();
  cfg.port_allocation = PortAllocation::chunk_random;
  cfg.chunk_size = 2048;
  NatDevice nat(cfg, pool(2), sim::Rng(1));
  Ipv4Address sub{10, 0, 0, 7};
  std::uint16_t lo = 65535, hi = 0;
  Ipv4Address ext;
  for (int i = 0; i < 50; ++i) {
    Packet p = Packet::udp({sub, static_cast<std::uint16_t>(20000 + i)},
                           {Ipv4Address{16, 9, 9, 9}, 80});
    ASSERT_EQ(nat.process_outbound(p, 0.0), sim::Middlebox::Verdict::forward);
    if (i == 0) ext = p.src.address;
    EXPECT_EQ(p.src.address, ext) << "chunked subscribers keep one IP";
    lo = std::min(lo, p.src.port);
    hi = std::max(hi, p.src.port);
  }
  auto chunk = nat.subscriber_chunk(sub);
  ASSERT_TRUE(chunk.has_value());
  EXPECT_EQ(chunk->second, 2048u);
  EXPECT_GE(lo, chunk->first);
  EXPECT_LT(hi, chunk->first + 2048);
}

TEST(NatDevice, ChunkExhaustionDropsNewFlows) {
  auto cfg = base_config();
  cfg.port_allocation = PortAllocation::chunk_random;
  cfg.chunk_size = 16;  // tiny chunk: the paper's 512-port concern, squared
  NatDevice nat(cfg, pool(1), sim::Rng(1));
  Ipv4Address sub{10, 0, 0, 7};
  int forwarded = 0, dropped = 0;
  for (int i = 0; i < 32; ++i) {
    Packet p = Packet::udp({sub, static_cast<std::uint16_t>(20000 + i)},
                           {Ipv4Address{16, 9, 9, 9},
                            static_cast<std::uint16_t>(80 + i)});
    auto v = nat.process_outbound(p, 0.0);
    (v == sim::Middlebox::Verdict::forward ? forwarded : dropped)++;
  }
  EXPECT_EQ(forwarded, 16);
  EXPECT_EQ(dropped, 16);
  EXPECT_EQ(nat.stats().port_exhaustion_drops, 16u);
}

TEST(NatDevice, DistinctSubscribersGetDistinctChunks) {
  auto cfg = base_config();
  cfg.port_allocation = PortAllocation::chunk_random;
  cfg.chunk_size = 4096;
  NatDevice nat(cfg, pool(2), sim::Rng(1));
  std::set<std::pair<std::uint32_t, std::uint16_t>> chunks;
  for (int s = 0; s < 12; ++s) {
    Ipv4Address sub(10, 0, 0, static_cast<std::uint8_t>(10 + s));
    Packet p = Packet::udp({sub, 30000}, {Ipv4Address{16, 9, 9, 9}, 80});
    ASSERT_EQ(nat.process_outbound(p, 0.0), sim::Middlebox::Verdict::forward);
    auto chunk = nat.subscriber_chunk(sub);
    ASSERT_TRUE(chunk.has_value());
    chunks.insert({p.src.address.value(), chunk->first});
  }
  EXPECT_EQ(chunks.size(), 12u) << "no two subscribers share an (IP, chunk)";
}

// --- Pooling -----------------------------------------------------------------

TEST(NatDevice, PairedPoolingSticksToOneExternalIp) {
  auto cfg = base_config();
  cfg.pooling = Pooling::paired;
  cfg.port_allocation = PortAllocation::sequential;
  NatDevice nat(cfg, pool(8), sim::Rng(1));
  Ipv4Address sub{10, 0, 0, 9};
  Ipv4Address first;
  for (int i = 0; i < 20; ++i) {
    Packet p = Packet::udp({sub, static_cast<std::uint16_t>(30000 + i)},
                           {Ipv4Address{16, 9, 9, 9},
                            static_cast<std::uint16_t>(80 + i)});
    (void)nat.process_outbound(p, 0.0);
    if (i == 0) first = p.src.address;
    EXPECT_EQ(p.src.address, first);
  }
}

TEST(NatDevice, ArbitraryPoolingUsesMultipleIps) {
  auto cfg = base_config();
  cfg.pooling = Pooling::arbitrary;
  cfg.port_allocation = PortAllocation::random;
  cfg.mapping = MappingType::symmetric;  // new mapping per destination
  NatDevice nat(cfg, pool(8), sim::Rng(1));
  std::set<std::uint32_t> ips;
  for (int i = 0; i < 40; ++i) {
    Packet p = Packet::udp({Ipv4Address{10, 0, 0, 9}, 30000},
                           {Ipv4Address{16, 9, 9, 9},
                            static_cast<std::uint16_t>(80 + i)});
    (void)nat.process_outbound(p, 0.0);
    ips.insert(p.src.address.value());
  }
  EXPECT_GT(ips.size(), 2u);
}

// --- Timeouts ----------------------------------------------------------------

TEST(NatDevice, UdpMappingExpiresAfterIdleTimeout) {
  auto cfg = base_config();
  cfg.udp_timeout_s = 30.0;
  NatDevice nat(cfg, pool(1), sim::Rng(1));
  Packet out = out_packet(40000, 80);
  (void)nat.process_outbound(out, 0.0);
  Endpoint ext = out.src;

  Packet in1 = Packet::udp({Ipv4Address{16, 9, 9, 9}, 80}, ext);
  EXPECT_EQ(nat.process_inbound(in1, 29.0), sim::Middlebox::Verdict::forward);
  // The inbound packet refreshed the timer (refresh_on_inbound default).
  Packet in2 = Packet::udp({Ipv4Address{16, 9, 9, 9}, 80}, ext);
  EXPECT_EQ(nat.process_inbound(in2, 58.0), sim::Middlebox::Verdict::forward);
  Packet in3 = Packet::udp({Ipv4Address{16, 9, 9, 9}, 80}, ext);
  EXPECT_EQ(nat.process_inbound(in3, 89.1),
            sim::Middlebox::Verdict::drop_no_mapping);
}

TEST(NatDevice, InboundRefreshCanBeDisabled) {
  auto cfg = base_config();
  cfg.udp_timeout_s = 30.0;
  cfg.refresh_on_inbound = false;
  NatDevice nat(cfg, pool(1), sim::Rng(1));
  Packet out = out_packet(40000, 80);
  (void)nat.process_outbound(out, 0.0);
  Endpoint ext = out.src;
  Packet in1 = Packet::udp({Ipv4Address{16, 9, 9, 9}, 80}, ext);
  EXPECT_EQ(nat.process_inbound(in1, 20.0), sim::Middlebox::Verdict::forward);
  Packet in2 = Packet::udp({Ipv4Address{16, 9, 9, 9}, 80}, ext);
  EXPECT_EQ(nat.process_inbound(in2, 45.0),
            sim::Middlebox::Verdict::drop_no_mapping)
      << "inbound traffic must not have refreshed the timer";
}

TEST(NatDevice, TcpOutlivesUdpTimeouts) {
  auto cfg = base_config();
  cfg.udp_timeout_s = 30.0;
  cfg.tcp_timeout_s = 7200.0;
  NatDevice nat(cfg, pool(1), sim::Rng(1));
  Packet tcp = Packet::tcp({Ipv4Address{192, 168, 1, 2}, 40000},
                           {Ipv4Address{16, 9, 9, 9}, 80});
  (void)nat.process_outbound(tcp, 0.0);
  // Establish the connection (data back from the peer), then go idle far
  // beyond any UDP timeout: the established-TCP timer must hold.
  Packet est = Packet::tcp({Ipv4Address{16, 9, 9, 9}, 80}, tcp.src,
                           sim::TcpFlag::none);
  ASSERT_EQ(nat.process_inbound(est, 1.0), sim::Middlebox::Verdict::forward);
  Packet in = Packet::tcp({Ipv4Address{16, 9, 9, 9}, 80}, tcp.src,
                          sim::TcpFlag::none);
  EXPECT_EQ(nat.process_inbound(in, 3600.0), sim::Middlebox::Verdict::forward);
}

TEST(NatDevice, ExpiredPortIsReusable) {
  auto cfg = base_config();
  cfg.udp_timeout_s = 10.0;
  cfg.port_allocation = PortAllocation::preservation;
  NatDevice nat(cfg, pool(1), sim::Rng(1));
  Packet p1 = out_packet(40000, 80);
  (void)nat.process_outbound(p1, 0.0);
  nat.collect_garbage(100.0);
  EXPECT_EQ(nat.active_mappings(100.0), 0u);
  // Another host can now claim the same preserved port.
  Packet p2 = Packet::udp({Ipv4Address{192, 168, 1, 3}, 40000},
                          {Ipv4Address{16, 9, 9, 9}, 80});
  (void)nat.process_outbound(p2, 100.0);
  EXPECT_EQ(p2.src.port, 40000);
}

TEST(NatDevice, LookupExternalReflectsLiveState) {
  NatDevice nat(base_config(), pool(1), sim::Rng(1));
  Endpoint internal{Ipv4Address{192, 168, 1, 2}, 40000};
  EXPECT_FALSE(nat.lookup_external(Protocol::udp, internal, {}, 0.0));
  Packet out = out_packet(40000, 80);
  (void)nat.process_outbound(out, 0.0);
  auto ext = nat.lookup_external(Protocol::udp, internal, {}, 1.0);
  ASSERT_TRUE(ext.has_value());
  EXPECT_EQ(*ext, out.src);
  EXPECT_FALSE(nat.lookup_external(Protocol::udp, internal, {}, 1000.0))
      << "expired mappings are not reported";
}

// --- Hairpinning ---------------------------------------------------------------

TEST(NatDevice, HairpinDisabledDrops) {
  auto cfg = base_config();
  cfg.hairpinning = false;
  NatDevice nat(cfg, pool(1), sim::Rng(1));
  Packet p = out_packet(40000, 80);
  (void)nat.process_outbound(p, 0.0);
  Packet hp = Packet::udp({Ipv4Address{192, 168, 1, 3}, 5000}, p.src);
  EXPECT_NE(nat.process_hairpin(hp, 1.0), sim::Middlebox::Verdict::forward);
  EXPECT_EQ(nat.stats().hairpins_dropped, 1u);
}

TEST(NatDevice, HairpinTranslatesSourceByDefault) {
  auto cfg = base_config();
  cfg.hairpinning = true;
  cfg.mapping = MappingType::full_cone;
  NatDevice nat(cfg, pool(1), sim::Rng(1));
  Packet a_out = out_packet(40000, 80);  // host A creates a mapping
  (void)nat.process_outbound(a_out, 0.0);
  Endpoint a_ext = a_out.src;

  Packet hp = Packet::udp({Ipv4Address{192, 168, 1, 3}, 5000}, a_ext);
  ASSERT_EQ(nat.process_hairpin(hp, 1.0), sim::Middlebox::Verdict::forward);
  EXPECT_EQ(hp.dst, (Endpoint{Ipv4Address{192, 168, 1, 2}, 40000}));
  EXPECT_TRUE(nat.owns_external(hp.src.address))
      << "RFC 4787 hairpinning presents the external source";
}

TEST(NatDevice, HairpinPreservingSourceLeaksInternalAddress) {
  auto cfg = base_config();
  cfg.hairpinning = true;
  cfg.hairpin_preserve_source = true;
  cfg.mapping = MappingType::full_cone;
  NatDevice nat(cfg, pool(1), sim::Rng(1));
  Packet a_out = out_packet(40000, 80);
  (void)nat.process_outbound(a_out, 0.0);

  Endpoint b_int{Ipv4Address{192, 168, 1, 3}, 5000};
  Packet hp = Packet::udp(b_int, a_out.src);
  ASSERT_EQ(nat.process_hairpin(hp, 1.0), sim::Middlebox::Verdict::forward);
  EXPECT_EQ(hp.src, b_int) << "the internal source survives — the §4.1 leak";
  EXPECT_EQ(nat.stats().hairpins_forwarded, 1u);
}

TEST(NatDevice, HairpinRespectsFiltering) {
  auto cfg = base_config();
  cfg.hairpinning = true;
  cfg.hairpin_preserve_source = true;
  cfg.mapping = MappingType::port_address_restricted;
  NatDevice nat(cfg, pool(1), sim::Rng(1));
  Packet a_out = out_packet(40000, 80);
  (void)nat.process_outbound(a_out, 0.0);
  Packet hp = Packet::udp({Ipv4Address{192, 168, 1, 3}, 5000}, a_out.src);
  EXPECT_EQ(nat.process_hairpin(hp, 1.0),
            sim::Middlebox::Verdict::drop_filtered)
      << "restricted mappings filter hairpinned strangers too";
}

// --- UPnP static mappings ------------------------------------------------------

TEST(NatDevice, StaticMappingBypassesFilterAndExpiry) {
  auto cfg = base_config();
  cfg.mapping = MappingType::port_address_restricted;
  cfg.udp_timeout_s = 30.0;
  NatDevice nat(cfg, pool(1), sim::Rng(1));
  Endpoint internal{Ipv4Address{192, 168, 1, 2}, 6881};
  auto ext = nat.add_static_mapping(Protocol::udp, internal, 0.0);
  ASSERT_TRUE(ext.has_value());
  EXPECT_EQ(ext->port, 6881) << "UPnP tries to preserve the requested port";

  // A stranger can reach it long past the UDP timeout.
  Packet in = Packet::udp({Ipv4Address{16, 7, 7, 7}, 1234}, *ext);
  EXPECT_EQ(nat.process_inbound(in, 10'000.0),
            sim::Middlebox::Verdict::forward);
  EXPECT_EQ(in.dst, internal);
}

TEST(NatDevice, StaticMappingIsIdempotent) {
  NatDevice nat(base_config(), pool(1), sim::Rng(1));
  Endpoint internal{Ipv4Address{192, 168, 1, 2}, 6881};
  auto e1 = nat.add_static_mapping(Protocol::udp, internal, 0.0);
  auto e2 = nat.add_static_mapping(Protocol::udp, internal, 5.0);
  ASSERT_TRUE(e1 && e2);
  EXPECT_EQ(*e1, *e2);
  EXPECT_EQ(nat.stats().mappings_created, 1u);
}

TEST(NatDevice, GarbageCollectionReleasesOnlyExpired) {
  auto cfg = base_config();
  cfg.udp_timeout_s = 50.0;
  NatDevice nat(cfg, pool(1), sim::Rng(1));
  Packet p1 = out_packet(40000, 80);
  (void)nat.process_outbound(p1, 0.0);
  Packet p2 = out_packet(40001, 80);
  (void)nat.process_outbound(p2, 40.0);
  nat.collect_garbage(60.0);  // p1 idle 60 s (expired), p2 idle 20 s (live)
  EXPECT_EQ(nat.active_mappings(60.0), 1u);
  EXPECT_EQ(nat.stats().mappings_expired, 1u);
}

// Memory ledger: a home CPE pays for what it uses. Three mappings fit the
// first 16-slot slab chunk and the inline port set, so the device is charged
// one chunk and no bitmap. The 13th port on one (address, protocol) promotes
// that set to its bitmap, the 17th mapping opens the 32-slot chunk, and
// destroying the device rolls both gauges back.
TEST(NatDevice, MemoryLedgerChargesOneChunkAndNoBitmapForACpe) {
  if (!obs::kMetricsEnabled)
    GTEST_SKIP() << "metrics compiled out (-DCGN_OBS=OFF)";
  obs::Gauge& slab = obs::gauge("mem.nat.slab_bytes");
  obs::Gauge& bitmaps = obs::gauge("mem.nat.portset_bytes");
  const std::int64_t slab0 = slab.value();
  const std::int64_t bitmaps0 = bitmaps.value();
  {
    NatDevice nat(base_config(), pool(1), sim::Rng(1));
    EXPECT_EQ(slab.value(), slab0) << "an idle device holds no slab";
    auto open = [&](std::uint16_t n) {
      for (std::uint16_t i = 0; i < n; ++i) {
        Packet p = out_packet(static_cast<std::uint16_t>(40000 + i));
        ASSERT_EQ(nat.process_outbound(p, 0.0),
                  sim::Middlebox::Verdict::forward);
      }
    };
    open(3);
    ASSERT_EQ(nat.active_mappings(0.0), 3u);
    const std::int64_t chunk = slab.value() - slab0;
    EXPECT_GT(chunk, 0);
    EXPECT_EQ(chunk % 16, 0);
    EXPECT_EQ(bitmaps.value(), bitmaps0) << "3 ports stay inline";

    open(flat::PortSet::kInline);
    EXPECT_EQ(bitmaps.value(), bitmaps0) << "a full inline set";
    open(flat::PortSet::kInline + 1);
    EXPECT_EQ(bitmaps.value() - bitmaps0,
              static_cast<std::int64_t>(flat::PortSet::kBitmapBytes));
    open(16);
    EXPECT_EQ(slab.value() - slab0, chunk) << "16 mappings fit chunk 0";
    open(17);
    EXPECT_EQ(slab.value() - slab0, 3 * chunk) << "chunk 1 holds 32 slots";
  }
  EXPECT_EQ(slab.value(), slab0);
  EXPECT_EQ(bitmaps.value(), bitmaps0);
}

}  // namespace
}  // namespace cgn::nat
