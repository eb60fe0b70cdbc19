#include "ptperf/scenario.h"

#include "net/resource.h"

namespace ptperf {

net::HostTraits client_traits(bool wireless) {
  net::HostTraits t;
  if (wireless) {
    // WiFi: same order-of-magnitude rate, noticeably more jitter. The
    // paper found no trend change (§4.7); the model matches by only
    // perturbing the access link, not the path.
    t.up_mbps = 80;
    t.down_mbps = 120;
    t.jitter_ms = 6.0;
  } else {
    t.up_mbps = 300;
    t.down_mbps = 300;
    t.jitter_ms = 1.0;
  }
  return t;
}

Scenario::Scenario(ScenarioConfig config)
    : config_(config),
      rng_(config.seed),
      net_(std::make_unique<net::Network>(loop_, sim::Rng(config.seed ^ 0x9e3779b9),
                                          net::Topology())),
      tranco_(workload::Corpus::generate(
          workload::CorpusKind::kTranco, config.tranco_sites,
          sim::Rng(config.corpus_seed ? config.corpus_seed : config.seed)
              .fork("tranco"))),
      cbl_(workload::Corpus::generate(
          workload::CorpusKind::kCbl, config.cbl_sites,
          sim::Rng(config.corpus_seed ? config.corpus_seed : config.seed)
              .fork("cbl"))) {
  sim::Rng dir_rng = rng_.fork("consensus");
  directory_ = tor::generate_consensus(*net_, dir_rng, config.consensus);

  // Stand up every relay.
  for (const tor::RelayDescriptor& d : directory_.consensus.relays) {
    auto relay = std::make_shared<tor::Relay>(
        *net_, directory_.consensus, d.index, directory_.onion_private[d.index],
        rng_.fork("relay" + std::to_string(d.index)));
    relay->set_exit_resolver(
        [this](const std::string& host) { return resolve_exit(host); });
    relay->start();
    relays_.push_back(relay);
  }

  client_host_ = net_->add_host("client", config.client_region,
                                client_traits(config.wireless_client));

  net::HostTraits web_traits;
  web_traits.up_mbps = 2000;
  web_traits.down_mbps = 2000;
  web_traits.background_load = 0.05;
  web_traits.jitter_ms = 0.5;
  web_host_ = net_->add_host("webserver", config.web_region, web_traits);
  web_server_ =
      std::make_shared<workload::WebServer>(*net_, web_host_, &tranco_, &cbl_);
  web_server_->start();
}

trace::Recorder& Scenario::enable_trace(unsigned categories) {
  trace_.reset();  // detach the old recorder before attaching the new one
  trace_ = std::make_unique<trace::Recorder>(loop_, categories);
  return *trace_;
}

fault::FaultInjector& Scenario::install_fault_plan(fault::FaultPlan plan) {
  fault_ = std::make_unique<fault::FaultInjector>(
      std::move(plan), sim::Rng(config_.seed).fork("fault-injection"));
  net_->set_fault_injector(fault_.get());
  return *fault_;
}

std::optional<net::HostId> Scenario::resolve_exit(
    const std::string& hostname) const {
  if (hostname == "files.example" || tranco_.find(hostname) ||
      cbl_.find(hostname)) {
    return web_host_;
  }
  auto it = exit_aliases_.find(hostname);
  if (it != exit_aliases_.end()) return it->second;
  return std::nullopt;
}

tor::RelayIndex Scenario::add_bridge(net::Region region,
                                     double background_load, double mbps,
                                     double proc_ms) {
  auto index = static_cast<tor::RelayIndex>(directory_.consensus.relays.size());

  tor::RelayDescriptor d;
  d.index = index;
  d.nickname = "bridge" + std::to_string(index);
  d.region = region;
  d.bandwidth_weight = mbps;
  d.flags = tor::kFlagFast | tor::kFlagStable | tor::kFlagGuard |
            tor::kFlagBridge;

  net::HostTraits traits;
  traits.up_mbps = mbps;
  traits.down_mbps = mbps;
  traits.background_load = background_load;
  traits.jitter_ms = 1.0;
  traits.proc_ms = proc_ms;
  d.host = net_->add_host(d.nickname, region, traits);
  // Bridge saturation registers as a contended pool (inert until a
  // population scenario drives it; the static background_load above is
  // the bridge's non-PT tenancy).
  net_->add_resource(net::ContendedResourceSpec{
      "bridge/" + d.nickname, std::vector<net::HostId>{d.host},
      /*capacity_sessions=*/25.0e3});

  sim::Rng key_rng = rng_.fork("bridge-key" + std::to_string(index));
  crypto::X25519Key raw;
  key_rng.fill_bytes(raw.data(), raw.size());
  crypto::X25519Key priv = crypto::x25519_clamp(raw);
  if (directory_.consensus.handshake_mode == tor::HandshakeMode::kRealDh) {
    d.onion_public = crypto::x25519_base(priv);
  } else {
    auto h = crypto::Sha256::digest(util::BytesView(priv.data(), priv.size()));
    std::copy(h.begin(), h.end(), d.onion_public.begin());
  }

  directory_.consensus.relays.push_back(d);
  directory_.onion_private.push_back(priv);

  auto relay = std::make_shared<tor::Relay>(*net_, directory_.consensus, index,
                                            priv, rng_.fork(d.nickname));
  relay->set_exit_resolver(
      [this](const std::string& host) { return resolve_exit(host); });
  relay->start();
  relays_.push_back(relay);
  return index;
}

net::HostId Scenario::add_infra_host(const std::string& name,
                                     net::Region region, double mbps,
                                     double load) {
  net::HostTraits traits;
  traits.up_mbps = mbps;
  traits.down_mbps = mbps;
  traits.background_load = load;
  traits.jitter_ms = 1.0;
  return net_->add_host(name, region, traits);
}

std::shared_ptr<tor::TorClient> Scenario::make_tor_client(net::HostId host) {
  return std::make_shared<tor::TorClient>(
      *net_, host, directory_.consensus,
      rng_.fork("torclient" + std::to_string(host)));
}

workload::Fetcher::SocksDialer Scenario::make_loopback_dialer(
    net::HostId host, const std::string& socks_service) {
  auto* network = net_.get();
  return [network, host, socks_service](
             std::function<void(net::ChannelPtr)> ok,
             std::function<void(std::string)> err) {
    network->connect(
        host, host, socks_service,
        [ok](net::Pipe pipe) { ok(net::wrap_pipe(std::move(pipe))); },
        [err](std::string e) {
          if (err) err(std::move(e));
        });
  };
}

}  // namespace ptperf
