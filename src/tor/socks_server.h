// The Tor client's local SOCKS5 listener — what curl/selenium point at in
// the paper's setup. Speaks real SOCKS5 framing, attaches each CONNECT to
// the server's one live circuit (built on demand, rebuilt on death), then
// splices bytes between the app connection and the Tor stream.
// serve_channel() lets set-3 PTs run the same dialogue through their tunnel.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "net/channel.h"
#include "tor/client.h"

namespace ptperf::tor {

class TorSocksServer : public std::enable_shared_from_this<TorSocksServer> {
 public:
  TorSocksServer(std::shared_ptr<TorClient> client,
                 std::string service = "socks");

  /// Listens on the client host for app connections.
  void start();

  /// Runs the SOCKS dialogue over an externally provided channel.
  void serve_channel(net::ChannelPtr ch);

  /// Pins the hops of every circuit built from now on (a bridge entry, or
  /// a whole fixed circuit) and retires the current one.
  void set_constraints(PathConstraints constraints);

  /// Retires the current circuit, so the next CONNECT builds a fresh one
  /// (the paper accessed each website over a new circuit).
  void new_identity();

  /// Builds the circuit now (blocking in virtual time) so subsequent
  /// fetches measure stream time only — Tor keeps circuits pre-built.
  void warm();

  /// The circuit CONNECTs ride on; empty until one has been built.
  const std::optional<TorCircuit>& current() const { return current_; }

 private:
  void with_circuit(
      std::function<void(std::optional<TorCircuit>, std::string)> cb);

  std::shared_ptr<TorClient> client_;
  std::string service_;
  PathConstraints constraints_;
  std::optional<TorCircuit> current_;
};

}  // namespace ptperf::tor
