// Transport factory: stands up each of the 12 evaluated PTs inside a
// Scenario — bridges, CDN fronts, brokers, resolvers, proxy pools, IM
// relays — and returns a ready-to-measure client stack, handling the
// §4.1 hop-set differences (where the Tor client lives, which relay is
// the first hop, how the fetcher dials SOCKS).
#pragma once

#include <array>
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

/// A measurement-ready client: vanilla Tor when `transport` is null.
struct PtStack {
  std::optional<pt::TransportInfo> info;  // nullopt => vanilla Tor
  std::shared_ptr<pt::Transport> transport;
  std::shared_ptr<tor::TorClient> tor;
  /// The Tor client's SOCKS listener, which keeps the stack's circuit:
  /// new_identity() retires it, set_constraints() pins its hops, warm()
  /// pre-builds it.
  std::shared_ptr<tor::TorSocksServer> socks;
  std::shared_ptr<workload::Fetcher> fetcher;
  /// Raw SOCKS dialer behind the fetcher (streaming / custom clients).
  workload::Fetcher::SocksDialer dialer;
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

  /// Vanilla Tor stack for baselines: attach(nullptr).
  PtStack create_vanilla();

  /// The client stack of a transport that dials the first hop (hop sets
  /// 1 and 2; a set-3 transport's connector() throws): a Tor client on
  /// the client host that dials through the transport and enters at its
  /// fixed_entry(), behind the SOCKS service "socks-<name>", which fault
  /// rules match on. create() ends here, and so does a transport
  /// configured by hand. A null transport gives vanilla Tor ("socks-tor").
  PtStack attach(std::shared_ptr<pt::Transport> transport);

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

  PtStack wrap_socks_tunnel_transport(
      std::shared_ptr<pt::Transport> transport, net::HostId server_host,
      const std::string& socks_service);

  Scenario* scenario_;
  TransportFactoryOptions opts_;
  int counter_ = 0;
};

}  // namespace ptperf
