// Transport factory: stands up each of the 12 evaluated PTs inside a
// Scenario — bridges, CDN fronts, brokers, resolvers, proxy pools, IM
// relays — and returns a ready-to-measure client stack, handling the
// §4.1 hop-set differences (where the Tor client lives, which relay is
// the first hop, how the fetcher dials SOCKS).
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "pt/snowflake.h"
#include "pt/transport.h"
#include "ptperf/scenario.h"
#include "tor/socks_server.h"

namespace ptperf {

enum class PtId {
  kObfs4,
  kMeek,
  kSnowflake,
  kConjure,
  kPsiphon,
  kDnstt,
  kWebTunnel,
  kCamoufler,
  kCloak,
  kStegotorus,
  kMarionette,
  kShadowsocks,
};

std::vector<PtId> all_pt_ids();
std::string_view pt_id_name(PtId id);

/// Keeps one live circuit per client, rebuilding on death; experiments
/// call new_identity() to force a fresh circuit (the paper accessed each
/// website over a new circuit).
class CircuitPool : public std::enable_shared_from_this<CircuitPool> {
 public:
  CircuitPool(std::shared_ptr<tor::TorClient> client,
              tor::PathConstraints constraints);

  tor::TorSocksServer::CircuitProvider provider();
  void new_identity();
  /// Builds the circuit now (blocking in virtual time) so subsequent
  /// fetches measure stream time only — Tor keeps circuits pre-built.
  void warm(sim::EventLoop& loop);
  void set_constraints(tor::PathConstraints constraints);
  const std::optional<tor::TorCircuit>& current() const { return current_; }

 private:
  void get(std::function<void(std::optional<tor::TorCircuit>, std::string)> cb);

  std::shared_ptr<tor::TorClient> client_;
  tor::PathConstraints constraints_;
  std::optional<tor::TorCircuit> current_;
};

/// A measurement-ready client: vanilla Tor when `transport` is null.
struct PtStack {
  std::optional<pt::TransportInfo> info;  // nullopt => vanilla Tor
  std::shared_ptr<pt::Transport> transport;
  std::shared_ptr<tor::TorClient> tor;
  std::shared_ptr<tor::TorSocksServer> socks;
  std::shared_ptr<CircuitPool> pool;  // null for set-3 transports
  std::shared_ptr<workload::Fetcher> fetcher;
  /// Raw SOCKS dialer behind the fetcher (streaming / custom clients).
  workload::Fetcher::SocksDialer dialer;
  /// Retire the current circuit (next fetch builds a fresh one).
  std::function<void()> new_identity;
  /// Re-sample the persisted guard (campaigns spanning months see many
  /// guards; per-site rotation reproduces the population average).
  std::function<void()> rotate_guard;
  /// Non-null for snowflake: load-regime control (§5.3).
  pt::SnowflakeTransport* snowflake = nullptr;

  std::string name() const { return info ? info->name : "tor"; }
  bool supports_selenium() const {
    return !info || info->supports_parallel_streams;
  }
};

/// Transport factory configuration.
struct TransportFactoryOptions {
  net::Region pt_server_region = net::Region::kFrankfurt;
  std::size_t snowflake_proxies = 8;
};

class TransportFactory {
 public:
  explicit TransportFactory(Scenario& scenario,
                            TransportFactoryOptions opts = {});

  /// Creates the transport plus its client stack by looking the id up in
  /// the PtId-keyed registry. Each call creates fresh infrastructure
  /// (hosts, bridges); create each PT once per scenario.
  PtStack create(PtId id);

  /// Vanilla Tor stack for baselines.
  PtStack create_vanilla();

 private:
  /// One registry row: canonical name plus the builder that stands up the
  /// PT's infrastructure and wraps it into a measurement-ready stack.
  struct Registration {
    PtId id;
    const char* name;
    PtStack (TransportFactory::*build)(const std::string& tag);
  };

  /// All 12 evaluated PTs in canonical evaluation order. This table is
  /// the single source of truth for all_pt_ids() and pt_id_name().
  static const std::array<Registration, 12>& registry();
  static const Registration& registration(PtId id);
  friend std::vector<PtId> all_pt_ids();
  friend std::string_view pt_id_name(PtId id);

  PtStack build_obfs4(const std::string& tag);
  PtStack build_meek(const std::string& tag);
  PtStack build_snowflake(const std::string& tag);
  PtStack build_conjure(const std::string& tag);
  PtStack build_psiphon(const std::string& tag);
  PtStack build_dnstt(const std::string& tag);
  PtStack build_webtunnel(const std::string& tag);
  PtStack build_camoufler(const std::string& tag);
  PtStack build_cloak(const std::string& tag);
  PtStack build_stegotorus(const std::string& tag);
  PtStack build_marionette(const std::string& tag);
  PtStack build_shadowsocks(const std::string& tag);

  PtStack wrap_first_hop_transport(std::shared_ptr<pt::Transport> transport);
  PtStack wrap_socks_tunnel_transport(
      std::shared_ptr<pt::Transport> transport, net::HostId server_host,
      const std::string& socks_service);

  Scenario* scenario_;
  TransportFactoryOptions opts_;
  int counter_ = 0;
};

}  // namespace ptperf
