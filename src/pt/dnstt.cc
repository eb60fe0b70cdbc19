#include "pt/dnstt.h"

#include <deque>
#include <map>

#include "fault/fault_injector.h"
#include "net/dns.h"
#include "net/tls.h"
#include "pt/layer/carrier.h"
#include "trace/trace.h"
#include "util/byte_queue.h"
#include "util/framer.h"

namespace ptperf::pt {
namespace {

// Query payload (base32 in the name): u64 session id | upstream bytes.
// Response TXT payload: u8 more-flag | downstream bytes.

/// Server-side session, Channel-shaped so serve_upstream applies.
class DnsttServerSession final
    : public net::Channel,
      public std::enable_shared_from_this<DnsttServerSession> {
 public:
  explicit DnsttServerSession(layer::AccountingPtr acct)
      : acct_(std::move(acct)),
        framer_([this](util::Bytes msg) {
          auto fn = receiver_;
          if (fn) fn(std::move(msg));
        }) {}

  void feed_upstream(util::BytesView data) { framer_.feed(data); }

  /// Frame-boundary ledger for bytes queued by send(); the authoritative
  /// server consumes it when an answer commits a cut to the wire.
  layer::FramedStreamMeter& meter() { return meter_; }

  /// Pulls up to `budget` downstream bytes; first byte is the more-flag.
  util::Bytes pull(std::size_t budget) {
    std::size_t n = std::min(budget > 0 ? budget - 1 : 0, downstream_.size());
    util::Writer out(n + 1);
    out.u8(downstream_.size() > n ? 1 : 0);
    out.raw(downstream_.front(n));
    downstream_.consume(n);
    return out.take();
  }

  void send(util::Buf payload) override {
    if (acct_) meter_.push(payload.size());
    downstream_.append(util::frame_message(payload));
  }
  void set_receiver(Receiver fn) override { receiver_ = std::move(fn); }
  void set_close_handler(CloseHandler fn) override {
    close_handler_ = std::move(fn);
  }
  void close() override {
    if (dead_) return;
    dead_ = true;
    auto fn = close_handler_;
    if (fn) fn();
  }
  sim::Duration base_rtt() const override { return sim::Duration::zero(); }

 private:
  layer::AccountingPtr acct_;
  layer::FramedStreamMeter meter_;
  util::MessageFramer framer_;
  Receiver receiver_;
  CloseHandler close_handler_;
  util::ByteQueue downstream_;
  bool dead_ = false;
};

/// Client-side tunnel channel: windowed query pump over the DoH session.
class DnsttClientChannel final
    : public net::Channel,
      public std::enable_shared_from_this<DnsttClientChannel> {
 public:
  DnsttClientChannel(sim::EventLoop& loop, net::TlsSession tls,
                     DnsttConfig cfg, std::uint64_t session_id,
                     layer::AccountingPtr acct)
      : loop_(&loop),
        tls_(std::move(tls)),
        cfg_(std::move(cfg)),
        session_id_(session_id),
        acct_(std::move(acct)),
        framer_([this](util::Bytes msg) {
          auto fn = receiver_;
          if (fn) fn(std::move(msg));
        }) {
    max_chunk_ = net::dns::max_query_data(cfg_.zone);
    max_chunk_ = max_chunk_ > 12 ? max_chunk_ - 8 : 4;
  }

  void start() {
    auto self = shared_from_this();
    tls_.on_receive([self](util::Buf wire) { self->on_response(wire); });
    tls_.on_close([self] { self->fail(); });
    pump();
  }

  void send(util::Buf payload) override {
    if (dead_) return;
    if (acct_) meter_.push(payload.size());
    upstream_.append(util::frame_message(payload));
    pump();
  }
  void set_receiver(Receiver fn) override { receiver_ = std::move(fn); }
  void set_close_handler(CloseHandler fn) override {
    close_handler_ = std::move(fn);
  }
  void close() override {
    dead_ = true;
    idle_timer_.cancel();
    tls_.close();
  }
  sim::Duration base_rtt() const override { return tls_.base_rtt(); }

 private:
  void pump() {
    if (dead_) return;
    while (in_flight_ < cfg_.window &&
           (!upstream_.empty() || server_has_more_ || in_flight_ == 0)) {
      issue_query();
      if (upstream_.empty() && !server_has_more_) break;  // one idle probe
    }
  }

  void issue_query() {
    TRACE_COUNT(loop_->recorder(), "pt/dnstt_queries", 1);
    std::size_t n = std::min(max_chunk_, upstream_.size());
    util::Writer payload(8 + n);
    payload.u64(session_id_);
    payload.raw(upstream_.front(n));
    upstream_.consume(n);

    net::dns::Message query;
    query.id = static_cast<std::uint16_t>(next_id_++);
    net::dns::Question q;
    q.name = net::dns::encode_data_name(payload.view(), cfg_.zone);
    q.type = net::dns::Type::kTxt;
    query.questions.push_back(std::move(q));
    util::Bytes wire = net::dns::encode(query);
    if (acct_) {
      // Session id + base32/DNS expansion is carrier overhead; the framed
      // tunnel bytes split into record headers and payload via the meter.
      layer::FramedStreamMeter::Cut cut = meter_.consume(n);
      acct_->on_carrier_unit(wire.size(), cut.header, cut.payload);
    }
    tls_.send(std::move(wire));
    ++in_flight_;
  }

  void on_response(util::BytesView wire) {
    TRACE_COUNT(loop_->recorder(), "pt/dnstt_response_bytes", wire.size());
    if (dead_) return;
    if (in_flight_ > 0) --in_flight_;
    auto msg = net::dns::decode(wire);
    if (!msg || !msg->is_response) return;
    if (msg->rcode != net::dns::RCode::kNoError) {
      fail();
      return;
    }
    bool got_data = false;
    for (const net::dns::Record& a : msg->answers) {
      auto payload = net::dns::txt_payload(a.rdata);
      if (!payload || payload->empty()) continue;
      server_has_more_ = (*payload)[0] != 0;
      if (payload->size() > 1) {
        got_data = true;
        framer_.feed(util::BytesView(payload->data() + 1, payload->size() - 1));
      }
    }
    if (got_data || server_has_more_ || !upstream_.empty()) {
      pump();
    } else if (in_flight_ == 0) {
      // Idle: keep one slow probe alive so downstream can restart.
      auto self = shared_from_this();
      idle_timer_.cancel();
      idle_timer_ = loop_->schedule(cfg_.idle_poll, [self] { self->pump(); });
    }
  }

  void fail() {
    if (dead_) return;
    layer::session_fail(loop_->recorder(), "dnstt", "resolver failure");
    dead_ = true;
    idle_timer_.cancel();
    tls_.close();
    auto fn = close_handler_;
    if (fn) fn();
  }

  sim::EventLoop* loop_;
  net::TlsSession tls_;
  DnsttConfig cfg_;
  std::uint64_t session_id_;
  layer::AccountingPtr acct_;
  layer::FramedStreamMeter meter_;
  util::MessageFramer framer_;
  Receiver receiver_;
  CloseHandler close_handler_;
  util::ByteQueue upstream_;
  std::size_t max_chunk_ = 64;
  int in_flight_ = 0;
  bool server_has_more_ = false;
  bool dead_ = false;
  std::uint32_t next_id_ = 1;
  sim::EventHandle idle_timer_;
};

}  // namespace

DnsttTransport::DnsttTransport(net::Network& net,
                               const tor::Consensus& consensus, sim::Rng rng,
                               DnsttConfig config)
    : net_(&net), consensus_(&consensus), rng_(std::move(rng)),
      config_(std::move(config)) {
  info_ = TransportInfo{"dnstt", Category::kTunneling,
                        HopSet::kSet1BridgeIsGuard,
                        /*separable_from_tor=*/false,
                        /*supports_parallel_streams=*/true};
  stack_ = layer::LayerStack(layer::StackSpec{
      "dnstt",
      {{layer::LayerKind::kFraming, "dns-record",
        "4 B records in query names / TXT answers"},
       {layer::LayerKind::kRateLimit, "query-window",
        "window " + std::to_string(config_.window) + ", " +
            std::to_string(config_.max_response_bytes) + " B responses"},
       {layer::LayerKind::kCarrier, "doh", "zone " + config_.zone}}});
  start_server();
  start_resolver();
}

void DnsttTransport::start_resolver() {
  // Public DoH resolver: terminates client TLS, forwards each query to the
  // zone's authoritative server, relays answers back, and throttles
  // sessions that flood it for too long.
  auto* net = net_;
  DnsttConfig cfg = config_;
  net::HostId auth_host = consensus_->at(config_.bridge).host;
  auto resolver_rng = std::make_shared<sim::Rng>(rng_.fork("resolver"));

  net_->listen(cfg.resolver_host, "doh", [net, cfg, auth_host,
                                          resolver_rng](net::Pipe pipe) {
    net::tls_accept(std::move(pipe), *resolver_rng, [net, cfg, auth_host,
                                                     resolver_rng](
                                                        net::TlsSession session,
                                                        const net::ClientHello&) {
      auto client_side = net::wrap_tls(std::move(session));
      net->connect(
          cfg.resolver_host, auth_host, "dns-auth",
          [net, cfg, resolver_rng, client_side](net::Pipe auth_pipe) {
            auto auth_side = net::wrap_pipe(std::move(auth_pipe));
            sim::EventLoop* loop = &net->loop();
            sim::Duration proc = cfg.resolver_processing;
            client_side->set_receiver([loop, proc, auth_side](util::Buf q) {
              auto m = std::make_shared<util::Buf>(std::move(q));
              loop->schedule(proc,
                             [auth_side, m] { auth_side->send(std::move(*m)); });
            });
            std::size_t cap = cfg.max_response_bytes;
            auth_side->set_receiver([net, client_side, cap](util::Buf a) {
              // The resolver refuses to relay oversized answers.
              if (a.size() > cap) return;
              fault::FaultInjector* f = net->fault_injector();
              if (f && f->fire(fault::FaultKind::kDnsTruncation)) {
                // Injected resolver hiccup: the answer is replaced by a
                // ServFail, which the tunnel client treats as fatal.
                auto msg = net::dns::decode(a);
                if (msg) {
                  net::dns::Message cut;
                  cut.id = msg->id;
                  cut.is_response = true;
                  cut.rcode = net::dns::RCode::kServFail;
                  client_side->send(net::dns::encode(cut));
                }
                return;
              }
              client_side->send(std::move(a));
            });
            client_side->set_close_handler([auth_side] { auth_side->close(); });
            auth_side->set_close_handler([client_side] { client_side->close(); });

            // Flood throttling: long-lived busy sessions get cut.
            sim::Duration session_budget = sim::from_seconds(
                resolver_rng->exponential(cfg.resolver_session_mean_s));
            loop->schedule(session_budget, [client_side] { client_side->close(); });
          },
          [client_side](std::string) { client_side->close(); });
    });
  });
}

void DnsttTransport::start_server() {
  // Authoritative dnstt server next to the bridge relay.
  auto* net = net_;
  const tor::Consensus* consensus = consensus_;
  DnsttConfig cfg = config_;
  net::HostId auth_host = consensus_->at(config_.bridge).host;
  auto sessions = std::make_shared<
      std::map<std::uint64_t, std::shared_ptr<DnsttServerSession>>>();
  layer::AccountingPtr acct = stack_.accounting();

  net_->listen(auth_host, "dns-auth", [net, consensus, cfg, auth_host,
                                       sessions, acct](net::Pipe pipe) {
    auto ch = net::wrap_pipe(std::move(pipe));
    net::ChannelPtr ch_copy = ch;
    ch->set_receiver([net, consensus, cfg, auth_host, sessions, acct,
                      ch_copy](util::Buf wire) {
      auto query = net::dns::decode(wire);
      if (!query || query->questions.empty()) return;
      const net::dns::Question& q = query->questions[0];

      net::dns::Message resp;
      resp.id = query->id;
      resp.is_response = true;

      auto data = net::dns::decode_data_name(q.name, cfg.zone);
      if (!data || data->size() < 8) {
        resp.rcode = net::dns::RCode::kNxDomain;
        util::Bytes nx = net::dns::encode(resp);
        if (acct) acct->on_carrier(nx.size());
        ch_copy->send(std::move(nx));
        return;
      }
      util::Reader r(*data);
      std::uint64_t sid = r.u64();
      auto it = sessions->find(sid);
      std::shared_ptr<DnsttServerSession> session;
      if (it == sessions->end()) {
        session = std::make_shared<DnsttServerSession>(acct);
        (*sessions)[sid] = session;
        serve_upstream(*net, auth_host, session, tor_upstream(*consensus));
        session->set_close_handler([sessions, sid] { sessions->erase(sid); });
      } else {
        session = it->second;
      }
      session->feed_upstream(r.rest_view());

      // Budget: whatever fits under the resolver's response cap after the
      // echoed question (the answer name is a compression pointer) and the
      // TXT character-string length bytes (one per 255 payload bytes).
      std::size_t overhead = 12 + (q.name.size() + 2 + 4) + (2 + 10) + 12 +
                             cfg.max_response_bytes / 255 + 2;
      std::size_t budget = cfg.max_response_bytes > overhead
                               ? cfg.max_response_bytes - overhead
                               : 16;
      util::Bytes payload = session->pull(budget);

      net::dns::Record answer;
      answer.name = q.name;
      answer.type = net::dns::Type::kTxt;
      answer.ttl = 0;
      answer.rdata = net::dns::txt_rdata(payload);
      resp.questions.push_back(q);
      resp.answers.push_back(std::move(answer));
      util::Bytes out = net::dns::encode(resp);
      if (acct) {
        // payload[0] is the more-flag; the rest is a cut of the framed
        // downstream queue.
        layer::FramedStreamMeter::Cut cut =
            session->meter().consume(payload.size() - 1);
        acct->on_carrier_unit(out.size(), cut.header, cut.payload);
      }
      ch_copy->send(std::move(out));
    });
  });
}

tor::TorClient::FirstHopConnector DnsttTransport::connector() {
  auto* net = net_;
  DnsttConfig cfg = config_;
  auto rng = std::make_shared<sim::Rng>(rng_.fork("dnstt-client"));
  layer::AccountingPtr acct = stack_.accounting();

  return [net, cfg, rng, acct](tor::RelayIndex,
                               std::function<void(net::ChannelPtr)> on_open,
                               std::function<void(std::string)> on_error) {
    // DoH dial + TLS setup: the PT's share of the circuit's first hop.
    trace::SpanId span = layer::begin_carrier_setup(
        net->loop().recorder(), "dnstt", layer::CarrierKind::kDoh, "tls");
    net->connect(
        cfg.client_host, cfg.resolver_host, "doh",
        [net, cfg, rng, acct, on_open, span](net::Pipe pipe) {
          net::ClientHelloParams hello;
          hello.sni = "doh.opendns.example";
          net::tls_connect(std::move(pipe), hello, *rng,
                           [net, cfg, rng, acct, on_open,
                            span](net::TlsSession session) {
                             layer::end_carrier_setup(net->loop().recorder(),
                                                      span);
                             auto ch = std::make_shared<DnsttClientChannel>(
                                 net->loop(), std::move(session), cfg,
                                 rng->next_u64(), acct);
                             ch->start();
                             send_preamble(ch, cfg.bridge);
                             on_open(ch);
                           });
        },
        [net, on_error, span](std::string err) {
          layer::fail_carrier_setup(net->loop().recorder(), span, err);
          if (on_error) on_error("dnstt: " + err);
        });
  };
}

}  // namespace ptperf::pt
