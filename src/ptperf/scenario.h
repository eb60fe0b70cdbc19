// Scenario: one self-contained simulated world — event loop, network
// topology, Tor consensus + running relays, origin web servers with the
// Tranco/CBL corpora and bulk files, and client host(s). Experiments build
// a Scenario, attach a client stack (vanilla Tor or a PT), and fetch.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault_injector.h"
#include "net/network.h"
#include "sim/event_loop.h"
#include "trace/trace.h"
#include "tor/client.h"
#include "tor/directory.h"
#include "tor/relay.h"
#include "workload/fetcher.h"
#include "workload/webserver.h"

namespace ptperf {

struct ScenarioConfig {
  std::uint64_t seed = 1;
  /// Seed for website-corpus generation; 0 means "use `seed`" (the legacy
  /// single-world behaviour). The sharded campaign engine pins this to the
  /// campaign's base seed so every shard — whose own `seed` is a distinct
  /// fork — measures the exact same synthetic web.
  std::uint64_t corpus_seed = 0;
  tor::ConsensusParams consensus;
  net::Region client_region = net::Region::kLondon;
  net::Region web_region = net::Region::kUsEast;
  std::size_t tranco_sites = 100;
  std::size_t cbl_sites = 100;
  /// Client connected via WiFi instead of ethernet (§4.7): higher jitter,
  /// lower effective access rate.
  bool wireless_client = false;
};

class Scenario {
 public:
  explicit Scenario(ScenarioConfig config);

  sim::EventLoop& loop() { return loop_; }
  net::Network& network() { return *net_; }
  const tor::Consensus& consensus() const { return directory_.consensus; }
  const ScenarioConfig& config() const { return config_; }

  net::HostId client_host() const { return client_host_; }
  const workload::Corpus& tranco() const { return tranco_; }
  const workload::Corpus& cbl() const { return cbl_; }

  /// The private onion key of a relay (needed when standing up bridge
  /// relays co-hosted with PT servers).
  const crypto::X25519Key& onion_private(tor::RelayIndex i) const {
    return directory_.onion_private.at(i);
  }

  std::shared_ptr<tor::Relay> relay(tor::RelayIndex i) { return relays_.at(i); }

  /// Adds a bridge relay (kFlagBridge) on a new lightly-loaded host in
  /// `region` and starts it. Returns its consensus index. This models the
  /// Tor-project-managed PT bridges of §4.2.1 — low background load is the
  /// mechanism behind "some PTs beat vanilla Tor".
  tor::RelayIndex add_bridge(net::Region region, double background_load = 0.1,
                             double mbps = 400, double proc_ms = 40);

  /// Adds an auxiliary host (PT server, broker, resolver, ...) with
  /// "infrastructure" traits.
  net::HostId add_infra_host(const std::string& name, net::Region region,
                             double mbps = 400, double load = 0.05);

  /// Fresh deterministic RNG stream for a component.
  sim::Rng fork_rng(const std::string& label) { return rng_.fork(label); }

  /// Installs a fault-injection plan for this world. The injector draws
  /// from its own stream forked directly off the root seed (not off the
  /// scenario's member RNG), so installing — or later emptying — a plan
  /// never perturbs any other component's randomness. Returns the
  /// injector so callers can read injected-fault counters.
  fault::FaultInjector& install_fault_plan(fault::FaultPlan plan);
  fault::FaultInjector* fault_injector() { return fault_.get(); }

  /// Attaches a flight recorder for the selected categories (a bitmask of
  /// trace::Category). The recorder registers itself as loop().recorder(),
  /// where every instrumented component finds it; without this call all
  /// TRACE_* sites are null-recorder no-ops. Idempotent: a second call
  /// re-creates the recorder with the new mask.
  trace::Recorder& enable_trace(unsigned categories = trace::kDefault);
  trace::Recorder* trace_recorder() { return trace_.get(); }

  /// Client stack pieces on an arbitrary host; TransportFactory assembles
  /// them into vanilla and PT stacks.
  std::shared_ptr<tor::TorClient> make_tor_client(net::HostId host);
  workload::Fetcher::SocksDialer make_loopback_dialer(
      net::HostId host, const std::string& socks_service);

  /// Resolver every exit uses: any site hostname or "files.example" maps
  /// to the web server host; aliases added via add_exit_alias() extend it.
  std::optional<net::HostId> resolve_exit(const std::string& hostname) const;

  /// Maps an extra hostname to a host (echo responders, custom origins).
  void add_exit_alias(const std::string& hostname, net::HostId host) {
    exit_aliases_[hostname] = host;
  }

 private:
  ScenarioConfig config_;
  sim::EventLoop loop_;
  sim::Rng rng_;
  std::unique_ptr<net::Network> net_;
  tor::GeneratedConsensus directory_;
  std::vector<std::shared_ptr<tor::Relay>> relays_;
  workload::Corpus tranco_;
  workload::Corpus cbl_;
  net::HostId client_host_ = 0;
  net::HostId web_host_ = 0;
  std::map<std::string, net::HostId> exit_aliases_;
  std::shared_ptr<workload::WebServer> web_server_;
  std::unique_ptr<fault::FaultInjector> fault_;
  std::unique_ptr<trace::Recorder> trace_;
};

/// Client access-link traits for wired/wireless media.
net::HostTraits client_traits(bool wireless);

}  // namespace ptperf
