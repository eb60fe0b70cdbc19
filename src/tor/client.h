// Client-side Tor: builds circuits over a pluggable first hop, multiplexes
// streams with Tor's deliver-window SENDME flow control, and exposes each
// stream as a net::Channel so SOCKS servers / fetchers can splice onto it.
//
// The first hop is a connector function: vanilla Tor dials the guard
// directly; every pluggable transport substitutes its own obfuscated
// channel here (§4.1's three PT implementation sets all reduce to "who
// provides this channel and where the circuit's first relay lives").
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/channel.h"
#include "tor/cell.h"
#include "tor/directory.h"
#include "tor/onion.h"
#include "tor/path.h"
#include "util/buf.h"

namespace ptperf::tor {

class TorClient;

/// A stream attached to a circuit, usable as a generic byte channel.
class TorStream final : public net::Channel {
 public:
  void send(util::Buf payload) override;
  void set_receiver(Receiver fn) override;
  void set_close_handler(CloseHandler fn) override;
  void close() override;
  sim::Duration base_rtt() const override;

  struct Impl;
  explicit TorStream(std::shared_ptr<Impl> impl) : impl_(std::move(impl)) {}

 private:
  std::shared_ptr<Impl> impl_;
};

/// Client-side circuit handle.
class TorCircuit {
 public:
  struct Impl;
  explicit TorCircuit(std::shared_ptr<Impl> impl) : impl_(std::move(impl)) {}

  bool alive() const;
  const Path& path() const;
  /// Fires when the circuit dies (TRUNCATED, DESTROY, link loss).
  void on_death(std::function<void()> fn);
  /// Tears the circuit down (closes the link, ends streams).
  void close() const;

  std::shared_ptr<Impl> impl() const { return impl_; }

 private:
  std::shared_ptr<Impl> impl_;
};

/// Tor client configuration.
struct TorClientOptions {
  std::string tor_service = "tor";
  /// Abort circuit builds that exceed this much virtual time.
  sim::Duration build_timeout = sim::from_seconds(120);
};

class TorClient : public std::enable_shared_from_this<TorClient> {
 public:

  using FirstHopConnector =
      std::function<void(RelayIndex entry,
                         std::function<void(net::ChannelPtr)> on_open,
                         std::function<void(std::string)> on_error)>;
  using CircuitCallback =
      std::function<void(std::optional<TorCircuit>, std::string error)>;
  using StreamCallback =
      std::function<void(std::shared_ptr<TorStream>, std::string error)>;

  TorClient(net::Network& net, net::HostId host, const Consensus& consensus,
            sim::Rng rng, TorClientOptions opts = {});

  /// Replaces the direct-dial first hop (pluggable transports hook here).
  void set_first_hop_connector(FirstHopConnector fn);

  /// Builds a fresh 3-hop circuit.
  void build_circuit(const PathConstraints& constraints, CircuitCallback cb);

  /// Builds a circuit through an explicit hop sequence (1..N hops) —
  /// measurement tooling (Ting) uses short pinned circuits.
  void build_circuit_path(const std::vector<RelayIndex>& hops,
                          CircuitCallback cb);

  /// Opens a stream to "host:port" over the circuit.
  void open_stream(const TorCircuit& circuit, const std::string& target,
                   StreamCallback cb);

  PathSelector& path_selector() { return selector_; }
  net::HostId host() const { return host_; }
  net::Network& network() { return *net_; }

 private:
  void on_link_message(const std::shared_ptr<TorCircuit::Impl>& circ,
                       util::Buf wire);
  void continue_build(const std::shared_ptr<TorCircuit::Impl>& circ);
  void handle_backward(const std::shared_ptr<TorCircuit::Impl>& circ,
                       std::size_t layer_index, const RelayCellView& rc,
                       util::Buf wire);
  /// Originates a relay cell addressed to `hop`: encodes into a pooled
  /// wire buffer, stamps the digest, applies onion layers inside-out in
  /// place, and sends on the link.
  void send_relay(const std::shared_ptr<TorCircuit::Impl>& circ,
                  std::size_t hop, RelayCommand command, StreamId stream_id,
                  util::BytesView data);
  void kill_circuit(const std::shared_ptr<TorCircuit::Impl>& circ,
                    const std::string& reason);

  net::Network* net_;
  net::HostId host_;
  const Consensus* consensus_;
  sim::Rng rng_;
  TorClientOptions opts_;
  PathSelector selector_;
  FirstHopConnector first_hop_;
  CircId next_circ_id_ = 1;

  friend class TorStream;
  friend class TorCircuit;
};

}  // namespace ptperf::tor
