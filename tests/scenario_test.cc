// Scenario / factory wiring tests: bridge relays, exit aliases, host
// traits, transport metadata, and the network-load mechanisms the
// calibration depends on.
#include <gtest/gtest.h>

#include "ptperf/transports.h"

namespace ptperf {
namespace {

TEST(Scenario, BridgeJoinsConsensusWithBridgeFlag) {
  ScenarioConfig cfg;
  cfg.seed = 404;
  cfg.tranco_sites = 1;
  cfg.cbl_sites = 0;
  Scenario scenario(cfg);
  std::size_t before = scenario.consensus().relays.size();

  tor::RelayIndex bridge = scenario.add_bridge(net::Region::kFrankfurt, 0.2);
  EXPECT_EQ(scenario.consensus().relays.size(), before + 1);
  const tor::RelayDescriptor& d = scenario.consensus().at(bridge);
  EXPECT_TRUE(d.has(tor::kFlagBridge));
  EXPECT_TRUE(d.has(tor::kFlagGuard));
  EXPECT_EQ(d.region, net::Region::kFrankfurt);
  EXPECT_NEAR(scenario.network().background_load(d.host), 0.2, 1e-9);

  // Bridges never appear in ordinary path selection.
  tor::PathSelector selector(scenario.consensus(), sim::Rng(1));
  for (int i = 0; i < 100; ++i) {
    tor::Path p = selector.select({});
    EXPECT_NE(p.entry, bridge);
    EXPECT_NE(p.middle, bridge);
    EXPECT_NE(p.exit, bridge);
    selector.reset_guard();
  }
}

TEST(Scenario, ExitResolverKnowsSitesFilesAndAliases) {
  ScenarioConfig cfg;
  cfg.seed = 405;
  cfg.tranco_sites = 3;
  cfg.cbl_sites = 3;
  Scenario scenario(cfg);

  EXPECT_TRUE(scenario.resolve_exit("site0000.tranco"));
  EXPECT_TRUE(scenario.resolve_exit("site0002.cbl"));
  EXPECT_TRUE(scenario.resolve_exit("files.example"));
  EXPECT_FALSE(scenario.resolve_exit("unknown.example"));

  net::HostId extra = scenario.add_infra_host("x", net::Region::kUsEast);
  scenario.add_exit_alias("alias.example", extra);
  auto resolved = scenario.resolve_exit("alias.example");
  ASSERT_TRUE(resolved);
  EXPECT_EQ(*resolved, extra);
}

TEST(Scenario, WirelessTraitsDifferFromWired) {
  net::HostTraits wired = client_traits(false);
  net::HostTraits wifi = client_traits(true);
  EXPECT_GT(wifi.jitter_ms, wired.jitter_ms);
  EXPECT_LT(wifi.down_mbps, wired.down_mbps);
}

TEST(Factory, TransportMetadataMatchesPaperTaxonomy) {
  ScenarioConfig cfg;
  cfg.seed = 406;
  cfg.tranco_sites = 1;
  cfg.cbl_sites = 0;
  Scenario scenario(cfg);
  TransportFactory factory(scenario);

  struct Expect {
    PtId id;
    pt::Category category;
    pt::HopSet hop_set;
  };
  const Expect expectations[] = {
      {PtId::kObfs4, pt::Category::kFullyEncrypted,
       pt::HopSet::kSet1BridgeIsGuard},
      {PtId::kShadowsocks, pt::Category::kFullyEncrypted,
       pt::HopSet::kSet2SeparateProxy},
      {PtId::kMeek, pt::Category::kProxyLayer, pt::HopSet::kSet1BridgeIsGuard},
      {PtId::kSnowflake, pt::Category::kProxyLayer,
       pt::HopSet::kSet2SeparateProxy},
      {PtId::kConjure, pt::Category::kProxyLayer,
       pt::HopSet::kSet1BridgeIsGuard},
      {PtId::kPsiphon, pt::Category::kProxyLayer,
       pt::HopSet::kSet2SeparateProxy},
      {PtId::kDnstt, pt::Category::kTunneling, pt::HopSet::kSet1BridgeIsGuard},
      {PtId::kWebTunnel, pt::Category::kTunneling,
       pt::HopSet::kSet1BridgeIsGuard},
      {PtId::kCamoufler, pt::Category::kTunneling,
       pt::HopSet::kSet2SeparateProxy},
      {PtId::kCloak, pt::Category::kMimicry, pt::HopSet::kSet3TorAtServer},
      {PtId::kStegotorus, pt::Category::kMimicry,
       pt::HopSet::kSet2SeparateProxy},
      {PtId::kMarionette, pt::Category::kMimicry,
       pt::HopSet::kSet3TorAtServer},
  };
  for (const Expect& e : expectations) {
    PtStack stack = factory.create(e.id);
    ASSERT_TRUE(stack.info) << pt_id_name(e.id);
    EXPECT_EQ(stack.info->category, e.category) << stack.name();
    EXPECT_EQ(stack.info->hop_set, e.hop_set) << stack.name();
    EXPECT_EQ(stack.name(), std::string(pt_id_name(e.id)));
  }
}

TEST(Factory, Set1TransportsPinTheirBridge) {
  ScenarioConfig cfg;
  cfg.seed = 407;
  cfg.tranco_sites = 1;
  cfg.cbl_sites = 0;
  Scenario scenario(cfg);
  TransportFactory factory(scenario);

  for (PtId id : {PtId::kObfs4, PtId::kWebTunnel, PtId::kConjure, PtId::kMeek,
                  PtId::kDnstt}) {
    PtStack stack = factory.create(id);
    ASSERT_TRUE(stack.transport->fixed_entry()) << stack.name();
    EXPECT_TRUE(scenario.consensus()
                    .at(*stack.transport->fixed_entry())
                    .has(tor::kFlagBridge))
        << stack.name();
    // Campaigns rotate the guard on every stack; a set-1 circuit still
    // enters through the bridge.
    stack.tor->path_selector().reset_guard();
    stack.socks->new_identity();
    stack.socks->warm();
    ASSERT_TRUE(stack.socks->current()) << stack.name();
    EXPECT_EQ(stack.socks->current()->path().entry,
              *stack.transport->fixed_entry())
        << stack.name();
  }
}

TEST(NetworkLoad, BackgroundLoadSlowsDelivery) {
  // The §4.2.1 mechanism at the network layer: the same transfer through
  // a loaded host takes longer than through an idle one.
  auto measure = [](double load) {
    sim::EventLoop loop;
    net::Network net(loop, sim::Rng(42));
    net::HostTraits relay_traits;
    relay_traits.up_mbps = 20;
    relay_traits.down_mbps = 20;
    relay_traits.background_load = load;
    net::HostId a = net.add_host("a", net::Region::kLondon);
    net::HostId b = net.add_host("b", net::Region::kFrankfurt, relay_traits);

    double done_at = -1;
    std::size_t received = 0;
    net.listen(b, "svc", [&](net::Pipe pipe) {
      auto ch = net::wrap_pipe(std::move(pipe));
      ch->set_receiver([&, ch](util::Buf data) {
        received += data.size();
        if (received >= 2u << 20)
          done_at = sim::seconds_since_start(loop.now());
      });
      static net::ChannelPtr keeper;
      keeper = ch;
    });
    net.connect(a, b, "svc", [&](net::Pipe pipe) {
      auto ch = net::wrap_pipe(std::move(pipe));
      for (int i = 0; i < 128; ++i) ch->send(util::Bytes(16 * 1024, 0));
    });
    loop.run();
    return done_at;
  };
  double idle = measure(0.0);
  double loaded = measure(0.7);
  ASSERT_GT(idle, 0);
  ASSERT_GT(loaded, 0);
  EXPECT_GT(loaded, idle * 1.5);
}

TEST(NetworkLoad, ProcessingDelayAddsLatencyNotThroughputLoss) {
  auto measure = [](double proc_ms) {
    sim::EventLoop loop;
    net::Network net(loop, sim::Rng(43));
    net::HostTraits traits;
    traits.proc_ms = proc_ms;
    net::HostId a = net.add_host("a", net::Region::kLondon);
    net::HostId b = net.add_host("b", net::Region::kFrankfurt, traits);

    double first = -1, last = -1;
    int messages = 0;
    net.listen(b, "svc", [&](net::Pipe pipe) {
      auto ch = net::wrap_pipe(std::move(pipe));
      ch->set_receiver([&, ch](util::Buf) {
        double now = sim::seconds_since_start(loop.now());
        if (first < 0) first = now;
        last = now;
        ++messages;
      });
      static net::ChannelPtr keeper;
      keeper = ch;
    });
    net.connect(a, b, "svc", [&](net::Pipe pipe) {
      auto ch = net::wrap_pipe(std::move(pipe));
      for (int i = 0; i < 50; ++i) ch->send(util::Bytes(512, 0));
    });
    loop.run();
    return std::make_tuple(first, last - first, messages);
  };
  auto [first_fast, span_fast, n_fast] = measure(0);
  auto [first_slow, span_slow, n_slow] = measure(80);
  EXPECT_EQ(n_fast, 50);
  EXPECT_EQ(n_slow, 50);
  // Latency shifts by ~the processing delay...
  EXPECT_GT(first_slow, first_fast + 0.05);
  // ...but the inter-message pipeline span stays comparable (pipelined,
  // not serialized).
  EXPECT_LT(span_slow, span_fast + 0.02);
}

}  // namespace
}  // namespace ptperf
