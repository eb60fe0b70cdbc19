#include "pt/stegotorus.h"

#include "pt/layer/handshake.h"

namespace ptperf::pt {
namespace {

// Block wire layout: u64 seq | u32 len | payload | cover zeros.
util::Bytes encode_block(std::uint64_t seq, util::BytesView payload,
                         std::size_t cover) {
  util::Writer w(12 + payload.size() + cover);
  w.u64(seq);
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.raw(payload);
  w.zeros(cover);
  return w.take();
}

// Session hello on each connection: "steg" magic | u64 session id.
util::Bytes encode_hello(std::uint64_t session) {
  util::Writer w(12);
  w.raw("steg");
  w.u64(session);
  return w.take();
}

std::optional<std::uint64_t> decode_hello(util::BytesView wire) {
  if (wire.size() != 12) return std::nullopt;
  if (util::to_string(wire.first(4)) != "steg") return std::nullopt;
  util::Reader r(wire.subspan(4));
  return r.u64();
}

}  // namespace

ChopperChannel::ChopperChannel(sim::Rng rng, StegotorusConfig config)
    : rng_(std::move(rng)),
      config_(config),
      framer_([this](util::Bytes msg) {
        auto fn = receiver_;
        if (fn) fn(std::move(msg));
      }) {}

std::shared_ptr<ChopperChannel> ChopperChannel::create(
    sim::Rng rng, StegotorusConfig config) {
  return std::shared_ptr<ChopperChannel>(
      new ChopperChannel(std::move(rng), config));
}

void ChopperChannel::add_connection(net::ChannelPtr conn) {
  auto self = shared_from_this();
  conn->set_receiver(
      [self](util::Buf block) { self->on_block(std::move(block)); });
  conn->set_close_handler([self] {
    if (self->closed_) return;
    self->closed_ = true;
    for (auto& c : self->conns_) c->close();
    auto fn = self->close_handler_;
    if (fn) fn();
  });
  conns_.push_back(std::move(conn));
  flush();
}

void ChopperChannel::send(util::Buf payload) {
  if (closed_) return;
  if (config_.accounting) meter_.push(payload.size());
  outbox_.append(util::frame_message(payload));
  flush();
}

void ChopperChannel::flush() {
  if (conns_.empty()) return;
  while (!outbox_.empty()) {
    std::size_t block = config_.min_block +
                        rng_.next_below(config_.max_block - config_.min_block + 1);
    std::size_t n = std::min(block, outbox_.size());
    util::Bytes wire = encode_block(send_seq_++, outbox_.front(n),
                                    config_.cover_overhead);
    outbox_.consume(n);
    if (config_.accounting) {
      layer::FramedStreamMeter::Cut cut = meter_.consume(n);
      config_.accounting->on_frame(wire.size(), cut.payload);
    }
    conns_[next_conn_]->send(std::move(wire));
    next_conn_ = (next_conn_ + 1) % conns_.size();
  }
}

void ChopperChannel::on_block(util::Buf block) {
  if (block.size() < 12) return;
  util::Reader r(block.view());
  std::uint64_t seq = r.u64();
  std::uint32_t len = r.u32();
  if (len > r.remaining()) return;
  reorder_[seq] = r.take_copy(len);
  // Deliver in order.
  auto it = reorder_.find(recv_next_);
  while (it != reorder_.end()) {
    framer_.feed(it->second);
    reorder_.erase(it);
    ++recv_next_;
    it = reorder_.find(recv_next_);
  }
}

void ChopperChannel::set_receiver(Receiver fn) { receiver_ = std::move(fn); }

void ChopperChannel::set_close_handler(CloseHandler fn) {
  close_handler_ = std::move(fn);
}

void ChopperChannel::close() {
  if (closed_) return;
  closed_ = true;
  for (auto& c : conns_) c->close();
}

sim::Duration ChopperChannel::base_rtt() const {
  return conns_.empty() ? sim::Duration::zero() : conns_[0]->base_rtt();
}

// -------------------------------------------------------------- transport

StegotorusTransport::StegotorusTransport(net::Network& net,
                                         const tor::Consensus& consensus,
                                         sim::Rng rng, StegotorusConfig config)
    : net_(&net), consensus_(&consensus), rng_(std::move(rng)),
      config_(config) {
  info_ = TransportInfo{"stegotorus", Category::kMimicry,
                        HopSet::kSet2SeparateProxy,
                        /*separable_from_tor=*/false,
                        /*supports_parallel_streams=*/true};
  stack_ = layer::LayerStack(layer::StackSpec{
      "stegotorus",
      {{layer::LayerKind::kHandshake, "steg-hello",
        std::to_string(config_.connections) + " parallel connections"},
       {layer::LayerKind::kFraming, "chopper-block",
        "blocks " + std::to_string(config_.min_block) + ".." +
            std::to_string(config_.max_block) + " B, cover " +
            std::to_string(config_.cover_overhead) + " B"},
       {layer::LayerKind::kCarrier, "raw", "http steg cover"}}});
  config_.accounting = stack_.accounting();
  start_server();
}

void StegotorusTransport::start_server() {
  auto* net = net_;
  const tor::Consensus* consensus = consensus_;
  StegotorusConfig cfg = config_;
  auto sessions = std::make_shared<
      std::map<std::uint64_t, std::shared_ptr<ChopperChannel>>>();
  auto server_rng = std::make_shared<sim::Rng>(rng_.fork("steg-server"));

  net_->listen(cfg.server_host, "steg", [net, consensus, cfg, sessions,
                                         server_rng](net::Pipe pipe) {
    auto conn = net::wrap_pipe(std::move(pipe));
    net::ChannelPtr conn_copy = conn;
    conn->set_receiver([net, consensus, cfg, sessions, server_rng,
                        conn_copy](util::Buf first) {
      auto session_id = decode_hello(first);
      if (!session_id) {
        conn_copy->close();
        return;
      }
      auto it = sessions->find(*session_id);
      std::shared_ptr<ChopperChannel> chopper;
      if (it == sessions->end()) {
        chopper = ChopperChannel::create(server_rng->fork(*session_id), cfg);
        (*sessions)[*session_id] = chopper;
        serve_upstream(*net, cfg.server_host, chopper,
                       tor_upstream(*consensus));
        std::uint64_t sid = *session_id;
        chopper->set_close_handler([sessions, sid] { sessions->erase(sid); });
      } else {
        chopper = it->second;
      }
      chopper->add_connection(conn_copy);
    });
  });
}

tor::TorClient::FirstHopConnector StegotorusTransport::connector() {
  auto* net = net_;
  StegotorusConfig cfg = config_;
  auto rng = std::make_shared<sim::Rng>(rng_.fork("steg-client"));

  return [net, cfg, rng](tor::RelayIndex entry,
                         std::function<void(net::ChannelPtr)> on_open,
                         std::function<void(std::string)> on_error) {
    std::uint64_t session = rng->next_u64();
    auto chopper = ChopperChannel::create(rng->fork("chop"), cfg);
    auto remaining = std::make_shared<int>(cfg.connections);
    auto failed = std::make_shared<bool>(false);

    for (int i = 0; i < cfg.connections; ++i) {
      net->connect(
          cfg.client_host, cfg.server_host, "steg",
          [cfg, chopper, session, remaining, failed, entry,
           on_open](net::Pipe pipe) {
            if (*failed) return;
            auto conn = net::wrap_pipe(std::move(pipe));
            conn->send(layer::count_handshake(cfg.accounting,
                                              encode_hello(session)));
            chopper->add_connection(conn);
            if (--*remaining == 0) {
              send_preamble(chopper, entry);
              on_open(chopper);
            }
          },
          [failed, on_error](std::string err) {
            if (*failed) return;
            *failed = true;
            if (on_error) on_error("stegotorus: " + err);
          });
    }
  };
}

}  // namespace ptperf::pt
