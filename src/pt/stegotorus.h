// stegotorus: the "chopper" — tunnel data is cut into variable-size blocks
// sent unordered over several parallel TCP connections, each block wrapped
// in HTTP-like steganographic cover; the far side reorders by sequence
// number and reassembles (§2.3 of the paper, Weinberg et al. CCS'12).
#pragma once

#include <map>

#include "pt/transport.h"
#include "util/byte_queue.h"
#include "util/framer.h"
#include "pt/upstream.h"
#include "sim/rng.h"

namespace ptperf::pt {

struct StegotorusConfig {
  net::HostId client_host = 0;
  net::HostId server_host = 0;
  int connections = 4;
  std::size_t min_block = 512;
  std::size_t max_block = 4096;
  /// HTTP steg cover bytes per block (headers + encoding slack).
  std::size_t cover_overhead = 220;
  /// Per-layer overhead ledger shared by both chopper endpoints.
  layer::AccountingPtr accounting;
};

/// Chops a message stream into sequence-numbered blocks spread over
/// multiple channels; reassembles in order on receive.
class ChopperChannel final : public net::Channel,
                             public std::enable_shared_from_this<ChopperChannel> {
 public:
  static std::shared_ptr<ChopperChannel> create(sim::Rng rng,
                                                StegotorusConfig config);

  /// Attaches one underlying connection (client: after dialing; server: as
  /// connections of a session arrive).
  void add_connection(net::ChannelPtr conn);

  void send(util::Buf payload) override;
  void set_receiver(Receiver fn) override;
  void set_close_handler(CloseHandler fn) override;
  void close() override;
  sim::Duration base_rtt() const override;

 private:
  ChopperChannel(sim::Rng rng, StegotorusConfig config);
  void flush();
  void on_block(util::Buf block);

  sim::Rng rng_;
  StegotorusConfig config_;
  layer::FramedStreamMeter meter_;
  std::vector<net::ChannelPtr> conns_;
  std::size_t next_conn_ = 0;
  std::uint64_t send_seq_ = 0;
  std::uint64_t recv_next_ = 0;
  std::map<std::uint64_t, util::Bytes> reorder_;
  util::ByteQueue outbox_;  // framed stream awaiting chopping
  util::MessageFramer framer_;
  Receiver receiver_;
  CloseHandler close_handler_;
  bool closed_ = false;
};

class StegotorusTransport final : public Transport {
 public:
  StegotorusTransport(net::Network& net, const tor::Consensus& consensus,
                      sim::Rng rng, StegotorusConfig config);

  const TransportInfo& info() const override { return info_; }
  tor::TorClient::FirstHopConnector connector() override;
  const layer::LayerStack* layer_stack() const override { return &stack_; }

 private:
  void start_server();

  net::Network* net_;
  const tor::Consensus* consensus_;
  sim::Rng rng_;
  StegotorusConfig config_;
  TransportInfo info_;
  layer::LayerStack stack_;
};

}  // namespace ptperf::pt
