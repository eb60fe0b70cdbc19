#include "ptperf/transports.h"

#include <stdexcept>

#include "pt/camoufler.h"
#include "pt/dnstt.h"
#include "pt/fully_encrypted.h"
#include "pt/marionette.h"
#include "pt/meek.h"
#include "pt/stegotorus.h"
#include "pt/tls_family.h"

namespace ptperf {

const std::array<TransportFactory::Registration, 12>&
TransportFactory::registry() {
  // Canonical evaluation order (the paper's Table 2 sweep order).
  static const std::array<Registration, 12> table = {{
      {PtId::kObfs4, "obfs4", &TransportFactory::build_obfs4},
      {PtId::kMeek, "meek", &TransportFactory::build_meek},
      {PtId::kSnowflake, "snowflake", &TransportFactory::build_snowflake},
      {PtId::kConjure, "conjure", &TransportFactory::build_conjure},
      {PtId::kPsiphon, "psiphon", &TransportFactory::build_psiphon},
      {PtId::kDnstt, "dnstt", &TransportFactory::build_dnstt},
      {PtId::kWebTunnel, "webtunnel", &TransportFactory::build_webtunnel},
      {PtId::kCamoufler, "camoufler", &TransportFactory::build_camoufler},
      {PtId::kCloak, "cloak", &TransportFactory::build_cloak},
      {PtId::kStegotorus, "stegotorus", &TransportFactory::build_stegotorus},
      {PtId::kMarionette, "marionette", &TransportFactory::build_marionette},
      {PtId::kShadowsocks, "shadowsocks",
       &TransportFactory::build_shadowsocks},
  }};
  return table;
}

const TransportFactory::Registration& TransportFactory::registration(PtId id) {
  for (const Registration& r : registry()) {
    if (r.id == id) return r;
  }
  throw std::invalid_argument("unknown PtId");
}

std::vector<PtId> all_pt_ids() {
  std::vector<PtId> ids;
  ids.reserve(TransportFactory::registry().size());
  for (const auto& r : TransportFactory::registry()) ids.push_back(r.id);
  return ids;
}

std::string_view pt_id_name(PtId id) {
  return TransportFactory::registration(id).name;
}

// ------------------------------------------------------- TransportFactory

TransportFactory::TransportFactory(Scenario& scenario,
                                   TransportFactoryOptions opts)
    : scenario_(&scenario), opts_(opts) {}

PtStack TransportFactory::create_vanilla() { return attach(nullptr); }

PtStack TransportFactory::attach(std::shared_ptr<pt::Transport> transport) {
  PtStack stack;
  stack.tor = scenario_->make_tor_client(scenario_->client_host());
  std::string service = "socks-tor";
  tor::PathConstraints constraints;
  if (transport) {
    stack.info = transport->info();
    stack.transport = transport;
    stack.tor->set_first_hop_connector(transport->connector());
    constraints.entry = transport->fixed_entry();
    service = "socks-" + transport->info().name;
  }
  stack.socks = std::make_shared<tor::TorSocksServer>(stack.tor, service);
  stack.socks->set_constraints(constraints);
  stack.socks->start();
  stack.dialer =
      scenario_->make_loopback_dialer(scenario_->client_host(), service);
  stack.fetcher =
      std::make_shared<workload::Fetcher>(scenario_->loop(), stack.dialer);
  return stack;
}

PtStack TransportFactory::wrap_socks_tunnel_transport(
    std::shared_ptr<pt::Transport> transport, net::HostId server_host,
    const std::string& socks_service) {
  PtStack stack;
  stack.info = transport->info();
  stack.transport = transport;
  // Set 3: the standard Tor client utility runs on the PT server host.
  stack.tor = scenario_->make_tor_client(server_host);
  stack.socks = std::make_shared<tor::TorSocksServer>(stack.tor, socks_service);
  stack.socks->start();

  // The fetcher dials SOCKS *through* the tunnel.
  stack.dialer = [transport](std::function<void(net::ChannelPtr)> ok,
                             std::function<void(std::string)> err) {
    transport->open_socks_tunnel(std::move(ok), std::move(err));
  };
  stack.fetcher =
      std::make_shared<workload::Fetcher>(scenario_->loop(), stack.dialer);
  return stack;
}

PtStack TransportFactory::create(PtId id) {
  const Registration& reg = registration(id);
  std::string tag = std::string(reg.name) + std::to_string(counter_++);
  return (this->*reg.build)(tag);
}

// --------------------------------------------------- per-PT registry rows
//
// Each builder stands up one PT's infrastructure (bridges, fronts,
// brokers, resolvers, proxy pools, IM relays) and wraps the transport —
// whose layer composition is declared as a StackSpec in its constructor —
// into a measurement-ready PtStack.

PtStack TransportFactory::build_obfs4(const std::string& tag) {
  Scenario& sc = *scenario_;
  tor::RelayIndex bridge = sc.add_bridge(opts_.pt_server_region);
  pt::Obfs4Config cfg;
  cfg.client_host = sc.client_host();
  cfg.bridge = bridge;
  auto t = std::make_shared<pt::Obfs4Transport>(
      sc.network(), sc.consensus(), sc.fork_rng(tag), cfg);
  return attach(t);
}

PtStack TransportFactory::build_webtunnel(const std::string& tag) {
  Scenario& sc = *scenario_;
  tor::RelayIndex bridge = sc.add_bridge(opts_.pt_server_region);
  pt::WebTunnelConfig cfg;
  cfg.client_host = sc.client_host();
  cfg.bridge = bridge;
  auto t = std::make_shared<pt::WebTunnelTransport>(
      sc.network(), sc.consensus(), sc.fork_rng(tag), cfg);
  return attach(t);
}

PtStack TransportFactory::build_conjure(const std::string& tag) {
  Scenario& sc = *scenario_;
  // ISP station: slightly higher load than a managed bridge (shared
  // refraction infrastructure).
  tor::RelayIndex bridge = sc.add_bridge(opts_.pt_server_region, 0.18);
  pt::ConjureConfig cfg;
  cfg.client_host = sc.client_host();
  cfg.bridge = bridge;
  auto t = std::make_shared<pt::ConjureTransport>(
      sc.network(), sc.consensus(), sc.fork_rng(tag), cfg);
  return attach(t);
}

PtStack TransportFactory::build_meek(const std::string& tag) {
  Scenario& sc = *scenario_;
  // The public meek bridge carries many users: moderate load.
  tor::RelayIndex bridge = sc.add_bridge(net::Region::kUsEast, 0.35, 200);
  pt::MeekConfig cfg;
  cfg.client_host = sc.client_host();
  cfg.pool_name = tag;  // "<tag>/cdn"
  cfg.bridge = bridge;
  cfg.front_host =
      sc.add_infra_host(tag + "-front", net::Region::kEuropeWest, 2000, 0.10);
  auto t = std::make_shared<pt::MeekTransport>(sc.network(), sc.consensus(),
                                               sc.fork_rng(tag), cfg);
  return attach(t);
}

PtStack TransportFactory::build_dnstt(const std::string& tag) {
  Scenario& sc = *scenario_;
  tor::RelayIndex bridge = sc.add_bridge(opts_.pt_server_region);
  pt::DnsttConfig cfg;
  cfg.client_host = sc.client_host();
  cfg.bridge = bridge;
  cfg.resolver_host =
      sc.add_infra_host(tag + "-resolver", net::Region::kUsEast, 1000, 0.15);
  auto t = std::make_shared<pt::DnsttTransport>(sc.network(), sc.consensus(),
                                                sc.fork_rng(tag), cfg);
  return attach(t);
}

PtStack TransportFactory::build_snowflake(const std::string& tag) {
  Scenario& sc = *scenario_;
  net::Network& net = sc.network();
  pt::SnowflakeConfig cfg;
  cfg.client_host = sc.client_host();
  // Tag-unique resource names ("<tag>/proxies", "<tag>/broker") so worlds
  // with several snowflake stacks register distinct contended pools.
  cfg.pool_name = tag;
  cfg.broker_host =
      sc.add_infra_host(tag + "-broker", net::Region::kUsEast, 1000, 0.15);
  // Volunteer proxies: residential-grade links spread across regions.
  const net::Region proxy_regions[] = {
      net::Region::kEuropeWest, net::Region::kEuropeEast,
      net::Region::kUsEast,     net::Region::kUsWest,
      net::Region::kFrankfurt,  net::Region::kToronto};
  for (std::size_t i = 0; i < opts_.snowflake_proxies; ++i) {
    net::HostTraits traits;
    traits.up_mbps = 40;
    traits.down_mbps = 100;
    traits.jitter_ms = 4.0;
    cfg.proxy_hosts.push_back(net.add_host(
        tag + "-proxy" + std::to_string(i),
        proxy_regions[i % (sizeof(proxy_regions) / sizeof(proxy_regions[0]))],
        traits));
  }
  auto t = std::make_shared<pt::SnowflakeTransport>(
      net, sc.consensus(), sc.fork_rng(tag), cfg);
  PtStack stack = attach(t);
  stack.snowflake = t.get();
  return stack;
}

PtStack TransportFactory::build_psiphon(const std::string& tag) {
  Scenario& sc = *scenario_;
  pt::PsiphonConfig cfg;
  cfg.client_host = sc.client_host();
  cfg.server_host = sc.add_infra_host(tag + "-server", opts_.pt_server_region);
  auto t = std::make_shared<pt::PsiphonTransport>(
      sc.network(), sc.consensus(), sc.fork_rng(tag), cfg);
  return attach(t);
}

PtStack TransportFactory::build_shadowsocks(const std::string& tag) {
  Scenario& sc = *scenario_;
  pt::ShadowsocksConfig cfg;
  cfg.client_host = sc.client_host();
  cfg.server_host = sc.add_infra_host(tag + "-server", opts_.pt_server_region);
  auto t = std::make_shared<pt::ShadowsocksTransport>(
      sc.network(), sc.consensus(), sc.fork_rng(tag), cfg);
  return attach(t);
}

PtStack TransportFactory::build_camoufler(const std::string& tag) {
  Scenario& sc = *scenario_;
  pt::CamouflerConfig cfg;
  cfg.client_host = sc.client_host();
  cfg.im_server_host =
      sc.add_infra_host(tag + "-im", net::Region::kEuropeWest, 2000, 0.20);
  cfg.peer_host = sc.add_infra_host(tag + "-peer", opts_.pt_server_region);
  auto t = std::make_shared<pt::CamouflerTransport>(
      sc.network(), sc.consensus(), sc.fork_rng(tag), cfg);
  return attach(t);
}

PtStack TransportFactory::build_stegotorus(const std::string& tag) {
  Scenario& sc = *scenario_;
  pt::StegotorusConfig cfg;
  cfg.client_host = sc.client_host();
  cfg.server_host = sc.add_infra_host(tag + "-server", opts_.pt_server_region);
  auto t = std::make_shared<pt::StegotorusTransport>(
      sc.network(), sc.consensus(), sc.fork_rng(tag), cfg);
  return attach(t);
}

PtStack TransportFactory::build_cloak(const std::string& tag) {
  Scenario& sc = *scenario_;
  pt::CloakConfig cfg;
  cfg.client_host = sc.client_host();
  cfg.server_host = sc.add_infra_host(tag + "-server", opts_.pt_server_region);
  cfg.socks_service = tag + "-socks";
  auto t = std::make_shared<pt::CloakTransport>(sc.network(), sc.consensus(),
                                                sc.fork_rng(tag), cfg);
  return wrap_socks_tunnel_transport(t, cfg.server_host, cfg.socks_service);
}

PtStack TransportFactory::build_marionette(const std::string& tag) {
  Scenario& sc = *scenario_;
  pt::MarionetteConfig cfg;
  cfg.client_host = sc.client_host();
  cfg.server_host = sc.add_infra_host(tag + "-server", opts_.pt_server_region);
  cfg.socks_service = tag + "-socks";
  auto t = std::make_shared<pt::MarionetteTransport>(
      sc.network(), sc.consensus(), sc.fork_rng(tag), cfg);
  return wrap_socks_tunnel_transport(t, cfg.server_host, cfg.socks_service);
}

}  // namespace ptperf
