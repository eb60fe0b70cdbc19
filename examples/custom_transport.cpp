// Extending the framework: a from-scratch pluggable transport plugged into
// the Tor client. "rot13" here is a deliberately trivial obfuscator — the
// point is the integration surface:
//   1. implement pt::Transport (a server that deobfuscates and splices
//      upstream, a connector that produces the obfuscated channel);
//   2. TransportFactory::attach hands the connector to a Tor client and
//      wraps it in the same SOCKS server and fetcher every PT gets;
//   3. measure it with the standard campaign machinery.
//
//   $ ./examples/custom_transport
#include <cstdio>

#include "pt/transport.h"
#include "pt/upstream.h"
#include "ptperf/campaign.h"

namespace {

using namespace ptperf;

/// Applies the world's weakest cipher to every byte. Channel adapters like
/// this one are how real PTs (obfs4's CryptoChannel, camoufler's
/// SegmentingChannel) are built.
class Rot13Channel final : public net::Channel,
                           public std::enable_shared_from_this<Rot13Channel> {
 public:
  static std::shared_ptr<Rot13Channel> create(net::ChannelPtr inner) {
    auto ch = std::shared_ptr<Rot13Channel>(new Rot13Channel(std::move(inner)));
    ch->attach();
    return ch;
  }

  void send(util::Buf payload) override {
    transform(payload.span());
    inner_->send(std::move(payload));
  }
  void set_receiver(Receiver fn) override { receiver_ = std::move(fn); }
  void set_close_handler(CloseHandler fn) override {
    close_handler_ = std::move(fn);
  }
  void close() override { inner_->close(); }
  sim::Duration base_rtt() const override { return inner_->base_rtt(); }

 private:
  explicit Rot13Channel(net::ChannelPtr inner) : inner_(std::move(inner)) {}

  static void transform(std::span<std::uint8_t> data) {
    for (auto& b : data) b = static_cast<std::uint8_t>(b ^ 0x42);
  }

  void attach() {
    auto self = shared_from_this();
    inner_->set_receiver([self](util::Buf data) {
      transform(data.span());
      auto fn = self->receiver_;
      if (fn) fn(std::move(data));
    });
    inner_->set_close_handler([self] {
      auto fn = self->close_handler_;
      if (fn) fn();
    });
  }

  net::ChannelPtr inner_;
  Receiver receiver_;
  CloseHandler close_handler_;
};

class Rot13Transport final : public pt::Transport {
 public:
  Rot13Transport(net::Network& net, const tor::Consensus& consensus,
                 net::HostId client_host, tor::RelayIndex bridge)
      : net_(&net), consensus_(&consensus), client_host_(client_host),
        bridge_(bridge) {
    info_ = pt::TransportInfo{"rot13", pt::Category::kFullyEncrypted,
                              pt::HopSet::kSet1BridgeIsGuard, false, true};
    // Server: deobfuscate, read the preamble, splice into the bridge.
    net::HostId server_host = consensus.at(bridge).host;
    auto* n = net_;
    const tor::Consensus* c = consensus_;
    net.listen(server_host, "rot13", [n, c, server_host](net::Pipe pipe) {
      auto ch = Rot13Channel::create(net::wrap_pipe(std::move(pipe)));
      pt::serve_upstream(*n, server_host, ch, pt::tor_upstream(*c));
    });
  }

  const pt::TransportInfo& info() const override { return info_; }
  std::optional<tor::RelayIndex> fixed_entry() const override {
    return bridge_;
  }

  tor::TorClient::FirstHopConnector connector() override {
    auto* n = net_;
    net::HostId client = client_host_;
    net::HostId server = consensus_->at(bridge_).host;
    tor::RelayIndex bridge = bridge_;
    return [n, client, server, bridge](
               tor::RelayIndex, std::function<void(net::ChannelPtr)> ok,
               std::function<void(std::string)> err) {
      n->connect(
          client, server, "rot13",
          [bridge, ok](net::Pipe pipe) {
            auto ch = Rot13Channel::create(net::wrap_pipe(std::move(pipe)));
            pt::send_preamble(ch, bridge);
            ok(ch);
          },
          [err](std::string e) {
            if (err) err("rot13: " + e);
          });
    };
  }

 private:
  net::Network* net_;
  const tor::Consensus* consensus_;
  net::HostId client_host_;
  tor::RelayIndex bridge_;
  pt::TransportInfo info_;
};

}  // namespace

int main() {
  ScenarioConfig config;
  config.seed = 5;
  config.tranco_sites = 5;
  Scenario scenario(config);

  // A set-1 transport, like obfs4: its server shares the bridge's host.
  tor::RelayIndex bridge = scenario.add_bridge(net::Region::kFrankfurt);
  auto transport = std::make_shared<Rot13Transport>(
      scenario.network(), scenario.consensus(), scenario.client_host(),
      bridge);

  // The factory wires it into the client stack every built-in PT gets.
  PtStack stack = TransportFactory(scenario).attach(transport);

  std::printf("fetching 5 sites through the custom rot13 transport...\n");
  int ok = 0, done = 0;
  for (const workload::Website& site : scenario.tranco().sites()) {
    stack.fetcher->fetch(site.hostname, "/", sim::from_seconds(120),
                         [&](workload::FetchResult r) {
                           ++done;
                           if (r.success) {
                             ++ok;
                             std::printf("  %-16s %.2fs\n", r.target.c_str(),
                                         r.elapsed());
                           }
                         });
    scenario.loop().run_until_done(
        [&, want = done + 1] { return done >= want; });
  }
  std::printf("%d/%d pages fetched through a transport written in ~100 "
              "lines\n", ok, done);
  return ok == static_cast<int>(scenario.tranco().sites().size()) ? 0 : 1;
}
