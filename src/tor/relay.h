// Onion relay node: accepts link channels carrying cells, answers CREATE2,
// extends circuits on EXTEND2, forwards RELAY cells in both directions
// (adding/removing its onion layer), and — as an exit — opens streams to
// destination servers with Tor's window-based flow control (circuit window
// 1000 cells, stream window 500, SENDME credits of 100/50).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "net/channel.h"
#include "tor/cell.h"
#include "tor/directory.h"
#include "tor/onion.h"
#include "util/buf.h"

namespace ptperf::tor {

/// Relay configuration.
struct RelayOptions {
  /// Service name this relay listens on for cell links.
  std::string tor_service = "tor";
  /// Service name destination servers listen on.
  std::string exit_service = "http";
};

class Relay : public std::enable_shared_from_this<Relay> {
 public:

  /// Maps a BEGIN target ("host:port") to a destination HostId.
  using ExitResolver =
      std::function<std::optional<net::HostId>(const std::string&)>;

  Relay(net::Network& net, const Consensus& consensus, RelayIndex index,
        crypto::X25519Key onion_private, sim::Rng rng, RelayOptions opts = {});

  /// Starts listening for link connections on the relay's host.
  void start();

  /// Takes the relay down: stops accepting links and destroys every
  /// circuit through it (failure injection for churn experiments).
  void stop();

  /// Feeds an already-established channel (a pluggable transport server
  /// handing over its deobfuscated byte stream) as a client link.
  void accept_channel(net::ChannelPtr ch);

  void set_exit_resolver(ExitResolver fn) { exit_resolver_ = std::move(fn); }

  net::HostId host() const { return host_; }
  RelayIndex index() const { return index_; }

  /// Counters for tests / load accounting.
  std::uint64_t cells_relayed() const { return cells_relayed_; }

 private:
  struct ExitStream {
    net::ChannelPtr channel;
    int package_window = kStreamWindowInit;
    // Server bytes awaiting packaging. A deque, not a util::ByteQueue: the
    // exit reads a whole response with no back-pressure, and a contiguous
    // queue regrows to twice that, where the deque's nodes come and go.
    std::deque<std::uint8_t> buffer;
    bool connected = false;
    bool remote_closed = false;
    bool end_sent = false;
  };

  struct Circuit {
    net::ChannelPtr prev;  // toward client
    net::ChannelPtr next;  // toward next relay (nullptr at the last hop)
    CircId prev_id = 0;
    CircId next_id = 0;
    std::optional<RelayLayer> layer;
    int circuit_package_window = kCircuitWindowInit;
    std::map<StreamId, ExitStream> streams;
    bool destroyed = false;
  };
  using CircuitPtr = std::shared_ptr<Circuit>;

  void on_link_message(const net::ChannelPtr& ch, util::Buf wire);
  void on_link_closed(const net::ChannelPtr& ch);

  void handle_create2(const net::ChannelPtr& ch, const CellView& cell);
  /// Peels this hop's onion layer in place inside `wire` and either
  /// consumes the cell (recognized) or forwards the same buffer onward.
  void handle_relay_forward(const CircuitPtr& circ, util::Buf wire);
  void handle_recognized(const CircuitPtr& circ, const RelayCellView& rc,
                         util::Buf wire);
  void handle_extend2(const CircuitPtr& circ, const RelayCellView& rc);
  void handle_begin(const CircuitPtr& circ, const RelayCellView& rc);
  void handle_stream_data(const CircuitPtr& circ, const RelayCellView& rc,
                          util::Buf wire);
  void handle_sendme(const CircuitPtr& circ, const RelayCellView& rc);
  void handle_end(const CircuitPtr& circ, const RelayCellView& rc);

  void on_next_message(const CircuitPtr& circ, util::Buf wire);

  /// Originates a relay cell toward the client (digest + own layer),
  /// encoded directly into a pooled wire buffer.
  void send_backward(const CircuitPtr& circ, RelayCommand command,
                     StreamId stream_id, util::BytesView data = {});
  /// Pumps buffered exit-stream bytes into DATA cells within the windows.
  void pump_streams(const CircuitPtr& circ);
  void destroy_circuit(const CircuitPtr& circ, bool notify_client);

  net::Network* net_;
  const Consensus* consensus_;
  RelayIndex index_;
  crypto::X25519Key onion_private_;
  sim::Rng rng_;
  RelayOptions opts_;
  net::HostId host_;
  ExitResolver exit_resolver_;

  // Circuits keyed by (link channel serial, circ id on that link). The
  // serial — not the Channel pointer — keeps iteration order (stop(),
  // on_link_closed() teardown order) identical across same-seed runs.
  std::map<std::pair<std::uint64_t, CircId>, CircuitPtr> circuits_;
  std::uint64_t cells_relayed_ = 0;
  /// Scratch for packaging exit-stream bytes (deques aren't contiguous).
  util::Bytes package_scratch_;
};

}  // namespace ptperf::tor
