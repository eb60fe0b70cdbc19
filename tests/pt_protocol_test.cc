// Per-PT protocol fidelity tests: the wire-level behaviours that make each
// transport itself — handshake shapes, steganographic validation, polling
// cadence, rate pacing, broker flows, session multiplexing.
#include <gtest/gtest.h>

#include "net/http.h"
#include "net/tls.h"
#include "pt/dnstt.h"
#include "pt/fully_encrypted.h"
#include "pt/meek.h"
#include "pt/snowflake.h"
#include "pt/stegotorus.h"
#include "pt/tls_family.h"
#include "ptperf/transports.h"

namespace ptperf {
namespace {

struct ProtoFixture : ::testing::Test {
  ScenarioConfig cfg;
  std::unique_ptr<Scenario> scenario;

  void SetUp() override {
    cfg.seed = 1111;
    cfg.tranco_sites = 2;
    cfg.cbl_sites = 0;
    scenario = std::make_unique<Scenario>(cfg);
  }

  net::ChannelPtr open_tunnel(pt::Transport& t, tor::RelayIndex entry) {
    net::ChannelPtr out;
    std::string error;
    t.connector()(entry, [&](net::ChannelPtr ch) { out = std::move(ch); },
                  [&](std::string e) { error = e; });
    scenario->loop().run_until_done(
        [&] { return out != nullptr || !error.empty(); });
    EXPECT_TRUE(out) << error;
    return out;
  }
};

TEST_F(ProtoFixture, Obfs4HandshakePadsToObfuscateLength) {
  // Two fresh obfs4 connections must produce differently sized client
  // hellos (random padding), both within the configured bounds.
  tor::RelayIndex bridge = scenario->add_bridge(net::Region::kFrankfurt);
  pt::Obfs4Config ocfg;
  ocfg.client_host = scenario->client_host();
  ocfg.bridge = bridge;

  // Tap the wire: listen on a custom service wrapping the real one is
  // intrusive; instead inspect sizes via the network byte counter delta
  // across two handshakes.
  auto transport = std::make_shared<pt::Obfs4Transport>(
      scenario->network(), scenario->consensus(), scenario->fork_rng("o4"),
      ocfg);

  std::uint64_t before = scenario->network().total_bytes_sent();
  auto t1 = open_tunnel(*transport, bridge);
  std::uint64_t mid = scenario->network().total_bytes_sent();
  auto t2 = open_tunnel(*transport, bridge);
  std::uint64_t after = scenario->network().total_bytes_sent();

  std::uint64_t first = mid - before;
  std::uint64_t second = after - mid;
  // Both handshakes carry at least the minimum padding...
  EXPECT_GT(first, ocfg.min_handshake_pad);
  EXPECT_GT(second, ocfg.min_handshake_pad);
  // ...and (with overwhelming probability) differ in size.
  EXPECT_NE(first, second);
}

TEST_F(ProtoFixture, CloakRejectsForgedTicket) {
  // A censor probing the cloak server with a plausible-but-unauthenticated
  // ClientHello gets a TLS rejection, not proxy service.
  pt::CloakConfig ccfg;
  ccfg.client_host = scenario->client_host();
  ccfg.server_host = scenario->add_infra_host("cloak-s", net::Region::kFrankfurt);
  auto cloak = std::make_shared<pt::CloakTransport>(
      scenario->network(), scenario->consensus(), scenario->fork_rng("ck"),
      ccfg);

  // Probe like a censor: correct SNI, random ticket.
  sim::Rng probe_rng(42);
  bool rejected = false;
  bool accepted = false;
  scenario->network().connect(
      scenario->client_host(), ccfg.server_host, "https",
      [&](net::Pipe pipe) {
        net::ClientHelloParams hello;
        hello.sni = ccfg.decoy_domain;
        hello.random = probe_rng.bytes(32);
        hello.session_ticket = probe_rng.bytes(32);  // forged
        net::tls_connect(std::move(pipe), hello, probe_rng,
                         [&](net::TlsSession) { accepted = true; },
                         [&](std::string) { rejected = true; });
      });
  scenario->loop().run_until_done([&] { return rejected || accepted; });
  EXPECT_TRUE(rejected);
  EXPECT_FALSE(accepted);

  // And the genuine client still gets through.
  net::ChannelPtr tunnel;
  cloak->open_socks_tunnel([&](net::ChannelPtr ch) { tunnel = std::move(ch); },
                           nullptr);
  scenario->loop().run_until_done([&] { return tunnel != nullptr; });
  EXPECT_TRUE(tunnel);
}

TEST_F(ProtoFixture, WebtunnelRequiresHttpUpgrade) {
  tor::RelayIndex bridge = scenario->add_bridge(net::Region::kFrankfurt);
  pt::WebTunnelConfig wcfg;
  wcfg.client_host = scenario->client_host();
  wcfg.bridge = bridge;
  auto wt = std::make_shared<pt::WebTunnelTransport>(
      scenario->network(), scenario->consensus(), scenario->fork_rng("wt"),
      wcfg);

  // A plain GET without Upgrade gets the connection closed.
  sim::Rng probe_rng(7);
  bool closed = false;
  scenario->network().connect(
      scenario->client_host(), scenario->consensus().at(bridge).host, "https",
      [&](net::Pipe pipe) {
        net::ClientHelloParams hello;
        hello.sni = wcfg.front_domain;
        net::tls_connect(std::move(pipe), hello, probe_rng,
                         [&](net::TlsSession session) {
                           auto ch = net::wrap_tls(std::move(session));
                           ch->set_close_handler([&] { closed = true; });
                           net::http::Request req;  // no upgrade header
                           req.target = "/index.html";
                           req.host = wcfg.front_domain;
                           ch->send(net::http::encode_request(req));
                           static net::ChannelPtr keeper;
                           keeper = ch;
                         });
      });
  scenario->loop().run_until_done([&] { return closed; });
  EXPECT_TRUE(closed);

  // The real client upgrades and tunnels.
  auto tunnel = open_tunnel(*wt, bridge);
  EXPECT_TRUE(tunnel);
}

TEST_F(ProtoFixture, DnsttMultiplexesSessions) {
  // Two independent dnstt tunnels share one resolver and one authoritative
  // server without crosstalk (session ids demux).
  tor::RelayIndex bridge = scenario->add_bridge(net::Region::kFrankfurt);
  pt::DnsttConfig dcfg;
  dcfg.client_host = scenario->client_host();
  dcfg.bridge = bridge;
  dcfg.resolver_host =
      scenario->add_infra_host("resolver", net::Region::kUsEast, 1000, 0.1);
  auto dnstt = std::make_shared<pt::DnsttTransport>(
      scenario->network(), scenario->consensus(), scenario->fork_rng("dn"),
      dcfg);

  auto t1 = open_tunnel(*dnstt, bridge);
  auto t2 = open_tunnel(*dnstt, bridge);
  ASSERT_TRUE(t1 && t2);

  // Drive both tunnels as raw cell links: send a CREATE2 on each and
  // expect matching CREATED2 responses (distinct circuits).
  int created = 0;
  auto expect_created = [&](net::ChannelPtr& t, tor::CircId id) {
    t->set_receiver([&created, id](util::Buf wire) {
      auto cell = tor::parse_cell(wire);
      if (cell && cell->command == tor::CellCommand::kCreated2 &&
          cell->circ_id == id) {
        ++created;
      }
    });
    sim::Rng hs_rng(id);
    auto st = tor::ntor_client_start(hs_rng, scenario->consensus().handshake_mode);
    util::Buf create = util::local_pool().acquire(tor::kCellSize);
    ASSERT_TRUE(tor::encode_cell_into(create.span(), id,
                                      tor::CellCommand::kCreate2,
                                      tor::ntor_client_message(st)));
    t->send(std::move(create));
  };
  expect_created(t1, 101);
  expect_created(t2, 202);
  scenario->loop().run_until_done([&] { return created == 2; });
  EXPECT_EQ(created, 2);
}

TEST_F(ProtoFixture, SnowflakeBrokerAssignsDifferentProxies) {
  TransportFactory factory(*scenario);
  PtStack stack = factory.create(PtId::kSnowflake);
  auto* sf = dynamic_cast<pt::SnowflakeTransport*>(stack.transport.get());
  ASSERT_NE(sf, nullptr);

  // Multiple rendezvous: tunnels open successfully; broker responses are
  // one exchange each (tested through the connector's success).
  int opened = 0;
  for (int i = 0; i < 4; ++i) {
    net::ChannelPtr ch;
    std::string err;
    stack.transport->connector()(
        3, [&](net::ChannelPtr c) { ch = std::move(c); },
        [&](std::string e) { err = e; });
    scenario->loop().run_until_done([&] { return ch != nullptr || !err.empty(); });
    if (ch) {
      ++opened;
      ch->close();
    }
  }
  EXPECT_EQ(opened, 4);
}

TEST_F(ProtoFixture, SnowflakeChurnKillsTunnels) {
  TransportFactory factory(*scenario);
  PtStack stack = factory.create(PtId::kSnowflake);
  stack.snowflake->set_overloaded(true);
  stack.snowflake->set_proxy_lifetime_mean(5);  // aggressive churn

  net::ChannelPtr ch;
  stack.transport->connector()(
      3, [&](net::ChannelPtr c) { ch = std::move(c); }, nullptr);
  scenario->loop().run_until_done([&] { return ch != nullptr; });
  ASSERT_TRUE(ch);

  bool died = false;
  ch->set_close_handler([&] { died = true; });
  // Within a couple of minutes of virtual time the proxy must churn.
  scenario->loop().run_until(scenario->loop().now() + sim::from_seconds(120));
  EXPECT_TRUE(died);
}

TEST_F(ProtoFixture, StegotorusSpreadsBlocksAcrossConnections) {
  pt::StegotorusConfig scfg;
  scfg.client_host = scenario->client_host();
  scfg.server_host = scenario->add_infra_host("steg-s", net::Region::kFrankfurt);
  scfg.connections = 4;
  auto steg = std::make_shared<pt::StegotorusTransport>(
      scenario->network(), scenario->consensus(), scenario->fork_rng("st"),
      scfg);

  // The tunnel opens only after all k connections are up, and carries a
  // large message intact (reassembly across connections).
  net::ChannelPtr tunnel;
  steg->connector()(3, [&](net::ChannelPtr ch) { tunnel = std::move(ch); },
                    nullptr);
  scenario->loop().run_until_done([&] { return tunnel != nullptr; });
  ASSERT_TRUE(tunnel);
  // (The chopper reorder logic itself is unit-tested in pt_unit_test.)
}

TEST_F(ProtoFixture, MeekPollingBacksOffWhenIdle) {
  TransportFactory factory(*scenario);
  PtStack stack = factory.create(PtId::kMeek);

  net::ChannelPtr ch;
  stack.transport->connector()(
      0, [&](net::ChannelPtr c) { ch = std::move(c); }, nullptr);
  scenario->loop().run_until_done([&] { return ch != nullptr; });
  ASSERT_TRUE(ch);

  // Idle for 60 virtual seconds: the wire bytes consumed by polling must
  // be bounded (backoff caps at seconds, so <= ~40 polls, not hundreds).
  std::uint64_t before = scenario->network().total_bytes_sent();
  scenario->loop().run_until(scenario->loop().now() + sim::from_seconds(60));
  std::uint64_t idle_bytes = scenario->network().total_bytes_sent() - before;
  // Each poll cycle is ~600 wire bytes round trip; unbounded 100 ms
  // polling would burn ~360 KB. Backoff keeps it far lower.
  EXPECT_LT(idle_bytes, 120'000u);
  EXPECT_GT(idle_bytes, 1'000u);  // but it does keep polling
}

TEST_F(ProtoFixture, PsiphonHandshakeTakesTwoRoundTripsBeforeData) {
  pt::PsiphonConfig pcfg;
  pcfg.client_host = scenario->client_host();
  pcfg.server_host = scenario->add_infra_host("psi-s", net::Region::kFrankfurt);
  auto psiphon = std::make_shared<pt::PsiphonTransport>(
      scenario->network(), scenario->consensus(), scenario->fork_rng("ps"),
      pcfg);

  double start = sim::seconds_since_start(scenario->loop().now());
  auto tunnel = open_tunnel(*psiphon, 3);
  double setup = sim::seconds_since_start(scenario->loop().now()) - start;
  ASSERT_TRUE(tunnel);
  // client->Frankfurt RTT ~= 15-20 ms; TCP(1) + KEX(1) + auth(1) >= 3 RTT.
  EXPECT_GT(setup, 0.040);
}

}  // namespace
}  // namespace ptperf
