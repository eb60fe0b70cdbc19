#include "pt/meek.h"

#include <deque>

#include "fault/fault_injector.h"
#include "net/http.h"
#include "net/resource.h"
#include "net/tls.h"
#include "pt/layer/carrier.h"
#include "pt/layer/rate_limit.h"
#include "trace/trace.h"
#include "util/byte_queue.h"
#include "util/framer.h"

namespace ptperf::pt {
namespace {

// ------------------------------------------------------- bridge session --

/// Server-side tunnel endpoint: poll bodies in, queued bytes out. Exposed
/// as a Channel so the generic upstream splice works unchanged.
class MeekServerSession final
    : public net::Channel,
      public std::enable_shared_from_this<MeekServerSession> {
 public:
  MeekServerSession(sim::EventLoop& loop, const MeekConfig& cfg, sim::Rng rng,
                    layer::AccountingPtr acct)
      : loop_(&loop),
        cfg_(cfg),
        acct_(std::move(acct)),
        framer_([this](util::Bytes msg) {
          auto fn = receiver_;
          if (fn) fn(std::move(msg));
        }) {
    immune_ = rng.next_bool(cfg.immune_fraction);
    reset_after_s_ = rng.exponential(cfg.reset_mean_saturated_s);
  }

  /// Frame-boundary ledger for bytes queued by send(): the bridge consumes
  /// it when a poll response commits a cut of the queue to the wire.
  layer::FramedStreamMeter& meter() { return meter_; }

  /// Consumes one poll request; returns the response body, or nullopt when
  /// the session has been reset (respond 500 and drop the session).
  std::optional<util::Bytes> poll(util::BytesView request_body) {
    if (dead_) return std::nullopt;
    if (!request_body.empty()) framer_.feed(request_body);

    std::size_t n = std::min(cfg_.max_body, downstream_.size());
    util::BytesView queued = downstream_.front(n);
    util::Bytes body(queued.begin(), queued.end());
    downstream_.consume(n);

    // Saturation accounting: a full response means the tunnel is running
    // flat out; enough consecutive saturated seconds triggers the reset.
    double now_s = sim::seconds_since_start(loop_->now());
    if (n == cfg_.max_body) {
      if (saturated_since_s_ < 0) saturated_since_s_ = now_s;
      if (!immune_ && now_s - saturated_since_s_ > reset_after_s_) {
        dead_ = true;
        if (close_handler_) close_handler_();
        return std::nullopt;
      }
    } else {
      saturated_since_s_ = -1;
    }
    return body;
  }

  bool dead() const { return dead_; }
  void mark_dead() {
    if (dead_) return;
    dead_ = true;
    if (close_handler_) close_handler_();
  }

  // Channel interface: send() queues bytes for future poll responses.
  void send(util::Buf payload) override {
    if (acct_) meter_.push(payload.size());
    downstream_.append(util::frame_message(payload));
  }
  void set_receiver(Receiver fn) override { receiver_ = std::move(fn); }
  void set_close_handler(CloseHandler fn) override {
    close_handler_ = std::move(fn);
  }
  void close() override { mark_dead(); }
  sim::Duration base_rtt() const override { return sim::Duration::zero(); }

 private:
  sim::EventLoop* loop_;
  MeekConfig cfg_;
  layer::AccountingPtr acct_;
  layer::FramedStreamMeter meter_;
  util::MessageFramer framer_;
  Receiver receiver_;
  CloseHandler close_handler_;
  util::ByteQueue downstream_;
  bool dead_ = false;
  bool immune_ = false;
  double reset_after_s_ = 0;
  double saturated_since_s_ = -1;
};

// ---------------------------------------------------------- client side --

class MeekClientChannel final
    : public net::Channel,
      public std::enable_shared_from_this<MeekClientChannel> {
 public:
  MeekClientChannel(sim::EventLoop& loop, net::TlsSession tls,
                    const MeekConfig& cfg, std::uint64_t session_id,
                    layer::AccountingPtr acct)
      : loop_(&loop),
        tls_(std::move(tls)),
        cfg_(cfg),
        session_id_(session_id),
        acct_(std::move(acct)),
        pacer_(cfg.poll_min, cfg.poll_max, sim::from_millis(100)),
        framer_([this](util::Bytes msg) {
          auto fn = receiver_;
          if (fn) fn(std::move(msg));
        }) {}

  void start() {
    auto self = shared_from_this();
    tls_.on_receive([self](util::Buf wire) { self->on_response(wire); });
    tls_.on_close([self] { self->fail(); });
    schedule_poll(sim::Duration::zero());
  }

  void send(util::Buf payload) override {
    if (dead_) return;
    if (acct_) meter_.push(payload.size());
    upstream_.append(util::frame_message(payload));
    // Data pending: poll now rather than waiting out the backoff.
    if (!poll_in_flight_) schedule_poll(sim::Duration::zero());
  }
  void set_receiver(Receiver fn) override { receiver_ = std::move(fn); }
  void set_close_handler(CloseHandler fn) override {
    close_handler_ = std::move(fn);
  }
  void close() override {
    dead_ = true;
    poll_timer_.cancel();
    tls_.close();
  }
  sim::Duration base_rtt() const override { return tls_.base_rtt(); }

 private:
  void schedule_poll(sim::Duration delay) {
    if (dead_ || poll_in_flight_) return;
    poll_timer_.cancel();
    auto self = shared_from_this();
    poll_timer_ = loop_->schedule(delay, [self] { self->do_poll(); });
    poll_scheduled_ = true;
  }

  void do_poll() {
    if (dead_ || poll_in_flight_) return;
    TRACE_COUNT(loop_->recorder(), "pt/meek_polls", 1);
    poll_scheduled_ = false;
    poll_in_flight_ = true;
    std::size_t n = std::min(cfg_.max_body, upstream_.size());
    net::http::Request req;
    req.method = "POST";
    req.target = "/";
    req.host = cfg_.front_domain;
    req.headers["x-session-id"] = std::to_string(session_id_);
    util::BytesView queued = upstream_.front(n);
    req.body.assign(queued.begin(), queued.end());
    upstream_.consume(n);
    util::Bytes wire = net::http::encode_request(req);
    if (acct_) {
      layer::FramedStreamMeter::Cut cut = meter_.consume(n);
      acct_->on_carrier_unit(wire.size(), cut.header, cut.payload);
    }
    tls_.send(std::move(wire));
  }

  void on_response(util::BytesView wire) {
    poll_in_flight_ = false;
    TRACE_COUNT(loop_->recorder(), "pt/meek_poll_bytes", wire.size());
    auto resp = net::http::decode_response(wire);
    if (!resp || resp->status != 200) {
      layer::session_fail(loop_->recorder(), "meek", "session reset");
      fail();
      return;
    }
    if (!resp->body.empty()) framer_.feed(resp->body);

    schedule_poll(pacer_.next(!upstream_.empty() || !resp->body.empty()));
  }

  void fail() {
    if (dead_) return;
    dead_ = true;
    poll_timer_.cancel();
    tls_.close();
    auto fn = close_handler_;
    if (fn) fn();
  }

  sim::EventLoop* loop_;
  net::TlsSession tls_;
  MeekConfig cfg_;
  std::uint64_t session_id_;
  layer::AccountingPtr acct_;
  layer::FramedStreamMeter meter_;
  layer::PollPacer pacer_;
  util::MessageFramer framer_;
  Receiver receiver_;
  CloseHandler close_handler_;
  util::ByteQueue upstream_;
  bool dead_ = false;
  bool poll_in_flight_ = false;
  bool poll_scheduled_ = false;
  sim::EventHandle poll_timer_;
};

}  // namespace

MeekTransport::MeekTransport(net::Network& net, const tor::Consensus& consensus,
                             sim::Rng rng, MeekConfig config)
    : net_(&net), consensus_(&consensus), rng_(std::move(rng)),
      config_(std::move(config)) {
  info_ = TransportInfo{"meek", Category::kProxyLayer,
                        HopSet::kSet1BridgeIsGuard,
                        /*separable_from_tor=*/false,
                        /*supports_parallel_streams=*/true};
  stack_ = layer::LayerStack(layer::StackSpec{
      "meek",
      {{layer::LayerKind::kFraming, "http-body",
        "4 B records inside poll bodies"},
       {layer::LayerKind::kRateLimit, "poll-backoff",
        "poll " + std::to_string(sim::to_millis(config_.poll_min)) + ".." +
            std::to_string(sim::to_millis(config_.poll_max)) + " ms"},
       {layer::LayerKind::kCarrier, "http-poll", config_.front_domain}}});
  // CDN capacity registers as a contended pool (inert until a population
  // scenario drives it — meek's CDN quality is demand-dependent too).
  net_->add_resource(net::ContendedResourceSpec{
      config_.pool_name + "/cdn",
      std::vector<net::HostId>{config_.front_host},
      config_.cdn_capacity_sessions});
  start_bridge();
  start_front();
}

void MeekTransport::start_bridge() {
  // Bridge-side meek server: one pipe per front connection carrying HTTP
  // request messages; sessions keyed by the x-session-id header.
  auto* net = net_;
  const tor::Consensus* consensus = consensus_;
  MeekConfig cfg = config_;
  net::HostId bridge_host = consensus_->at(config_.bridge).host;
  auto server_rng = std::make_shared<sim::Rng>(rng_.fork("meek-bridge"));
  auto sessions = std::make_shared<
      std::map<std::string, std::shared_ptr<MeekServerSession>>>();
  layer::AccountingPtr acct = stack_.accounting();

  net_->listen(bridge_host, "meek", [net, consensus, cfg, bridge_host,
                                     server_rng, sessions,
                                     acct](net::Pipe pipe) {
    auto ch = net::wrap_pipe(std::move(pipe));
    net::ChannelPtr ch_copy = ch;
    ch->set_receiver([net, consensus, cfg, bridge_host, server_rng, sessions,
                      acct, ch_copy](util::Buf wire) {
      auto req = net::http::decode_request(wire);
      if (!req) return;
      std::string sid = req->headers.count("x-session-id")
                            ? req->headers.at("x-session-id")
                            : "";
      auto it = sessions->find(sid);
      std::shared_ptr<MeekServerSession> session;
      if (it == sessions->end()) {
        session = std::make_shared<MeekServerSession>(
            net->loop(), cfg, server_rng->fork(sid), acct);
        (*sessions)[sid] = session;
        serve_upstream(*net, bridge_host, session, tor_upstream(*consensus));
      } else {
        session = it->second;
      }
      auto body = session->poll(req->body);
      net::http::Response resp;
      if (!body) {
        resp.status = 500;
        resp.reason = "Session Reset";
        sessions->erase(sid);
        session->mark_dead();
      } else {
        resp.status = 200;
        resp.body = std::move(*body);
      }
      util::Bytes out = net::http::encode_response(resp);
      if (acct) {
        if (resp.status == 200) {
          layer::FramedStreamMeter::Cut cut =
              session->meter().consume(resp.body.size());
          acct->on_carrier_unit(out.size(), cut.header, cut.payload);
        } else {
          acct->on_carrier(out.size());
        }
      }
      ch_copy->send(std::move(out));
    });
  });
}

void MeekTransport::start_front() {
  // CDN edge: terminates client TLS, forwards each HTTP message to the
  // bridge over a rate-capped pipe, relays responses back.
  auto* net = net_;
  MeekConfig cfg = config_;
  net::HostId bridge_host = consensus_->at(config_.bridge).host;
  auto front_rng = std::make_shared<sim::Rng>(rng_.fork("meek-front"));
  layer::AccountingPtr acct = stack_.accounting();

  net_->listen(cfg.front_host, "https", [net, cfg, bridge_host, front_rng,
                                         acct](net::Pipe pipe) {
    net::tls_accept(
        std::move(pipe), *front_rng,
        [net, cfg, bridge_host, acct](net::TlsSession session,
                                      const net::ClientHello&) {
          auto client_side = net::wrap_tls(std::move(session));
          net::ConnectOptions opts;
          opts.rate_cap_bytes_per_sec = cfg.bridge_rate_bytes_per_sec;
          net->connect(
              cfg.front_host, bridge_host, "meek",
              [net, cfg, acct, client_side](net::Pipe bridge_pipe) {
                auto bridge_side = net::wrap_pipe(std::move(bridge_pipe));
                sim::EventLoop* loop = &net->loop();
                sim::Duration proc = cfg.front_processing;
                client_side->set_receiver([net, loop, proc, acct, bridge_side,
                                           client_side](util::Buf msg) {
                  fault::FaultInjector* f = net->fault_injector();
                  if (f && f->fire(fault::FaultKind::kCdnError)) {
                    // Injected CDN edge failure: the poll bounces with a
                    // 502 instead of reaching the bridge.
                    net::http::Response resp;
                    resp.status = 502;
                    resp.reason = "Bad Gateway";
                    auto wire = std::make_shared<util::Bytes>(
                        net::http::encode_response(resp));
                    loop->schedule(proc, [acct, client_side, wire] {
                      if (acct) acct->on_carrier(wire->size());
                      client_side->send(std::move(*wire));
                    });
                    return;
                  }
                  auto m = std::make_shared<util::Buf>(std::move(msg));
                  loop->schedule(proc, [bridge_side, m] {
                    bridge_side->send(std::move(*m));
                  });
                });
                bridge_side->set_receiver([loop, proc,
                                           client_side](util::Buf msg) {
                  auto m = std::make_shared<util::Buf>(std::move(msg));
                  loop->schedule(proc, [client_side, m] {
                    client_side->send(std::move(*m));
                  });
                });
                client_side->set_close_handler(
                    [bridge_side] { bridge_side->close(); });
                bridge_side->set_close_handler(
                    [client_side] { client_side->close(); });
              },
              [client_side](std::string) { client_side->close(); },
              opts);
        });
  });
}

tor::TorClient::FirstHopConnector MeekTransport::connector() {
  auto* net = net_;
  MeekConfig cfg = config_;
  auto rng = std::make_shared<sim::Rng>(rng_.fork("meek-client"));
  layer::AccountingPtr acct = stack_.accounting();

  return [net, cfg, rng, acct](tor::RelayIndex,
                               std::function<void(net::ChannelPtr)> on_open,
                               std::function<void(std::string)> on_error) {
    // Dial + TLS setup against the CDN front: the PT's share of the first
    // hop (the "first_hop" span in the Tor client covers the whole dial).
    trace::SpanId span = layer::begin_carrier_setup(
        net->loop().recorder(), "meek", layer::CarrierKind::kHttpPoll, "tls");
    net->connect(
        cfg.client_host, cfg.front_host, "https",
        [net, cfg, rng, acct, on_open, span](net::Pipe pipe) {
          net::ClientHelloParams hello;
          hello.sni = cfg.front_domain;  // the *front* domain is visible
          net::tls_connect(
              std::move(pipe), hello, *rng,
              [net, cfg, rng, acct, on_open, span](net::TlsSession session) {
                layer::end_carrier_setup(net->loop().recorder(), span);
                auto ch = std::make_shared<MeekClientChannel>(
                    net->loop(), std::move(session), cfg, rng->next_u64(),
                    acct);
                ch->start();
                send_preamble(ch, cfg.bridge);
                on_open(ch);
              });
        },
        [net, on_error, span](std::string err) {
          layer::fail_carrier_setup(net->loop().recorder(), span, err);
          if (on_error) on_error("meek: " + err);
        });
  };
}

}  // namespace ptperf::pt
