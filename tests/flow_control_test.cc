// Flow-control and relay-internals tests: Tor's SENDME windows must bound
// in-flight data (the mechanism that caps bulk throughput at
// window/RTT — the paper-visible ceiling in Fig 5), circuits must tear
// down cleanly, and the SOCKS front-end must speak correct SOCKS5.
#include <gtest/gtest.h>

#include "net/socks.h"
#include "ptperf/transports.h"
#include "stats/descriptive.h"

namespace ptperf {
namespace {

struct FlowFixture : ::testing::Test {
  ScenarioConfig cfg;
  std::unique_ptr<Scenario> scenario;

  void SetUp() override {
    cfg.seed = 808;
    cfg.tranco_sites = 2;
    cfg.cbl_sites = 0;
    scenario = std::make_unique<Scenario>(cfg);
  }

  std::optional<tor::TorCircuit> build(
      const std::shared_ptr<tor::TorClient>& client) {
    std::optional<tor::TorCircuit> circ;
    bool done = false;
    client->build_circuit({}, [&](std::optional<tor::TorCircuit> c,
                                  std::string) {
      circ = std::move(c);
      done = true;
    });
    scenario->loop().run_until_done([&] { return done; });
    return circ;
  }
};

TEST_F(FlowFixture, BulkThroughputBoundedByWindowOverRtt) {
  // Download 4 MB over a circuit; sustained throughput must not exceed
  // the stream-window BDP bound (500 cells x 498 B per circuit RTT) by
  // any large factor, and must be nonzero.
  auto client = scenario->make_tor_client(scenario->client_host());
  auto circ = build(client);
  ASSERT_TRUE(circ);

  std::shared_ptr<tor::TorStream> stream;
  client->open_stream(*circ, "files.example:80",
                      [&](std::shared_ptr<tor::TorStream> s, std::string) {
                        stream = std::move(s);
                      });
  scenario->loop().run_until_done([&] { return stream != nullptr; });
  ASSERT_TRUE(stream);

  net::http::Request req;
  req.target = "/file5mb";
  req.host = "files.example";
  std::size_t received = 0;
  double first_s = -1, last_s = -1;
  stream->set_receiver([&](util::Buf data) {
    if (first_s < 0)
      first_s = sim::seconds_since_start(scenario->loop().now());
    last_s = sim::seconds_since_start(scenario->loop().now());
    received += data.size();
  });
  stream->send(net::http::encode_request(req));
  scenario->loop().run_until_done([&] { return received >= (5u << 20); },
                                  200'000'000);

  ASSERT_GT(received, 5u << 20);
  double duration = last_s - first_s;
  ASSERT_GT(duration, 0);
  double rate = static_cast<double>(received) / duration;  // bytes/s
  // Ceiling: window 500 cells * 498 B / RTT. Circuit RTTs here are
  // >= ~0.3 s, so rate must stay below ~900 KB/s; and the transfer must
  // actually move (> 50 KB/s).
  EXPECT_LT(rate, 1.2e6);
  EXPECT_GT(rate, 5e4);
}

TEST_F(FlowFixture, ManyStreamsShareOneCircuit) {
  auto client = scenario->make_tor_client(scenario->client_host());
  auto circ = build(client);
  ASSERT_TRUE(circ);

  const auto& site = scenario->tranco().sites()[0];
  int opened = 0, failed = 0;
  std::vector<std::shared_ptr<tor::TorStream>> streams;
  for (int i = 0; i < 8; ++i) {
    client->open_stream(*circ, site.hostname + ":80",
                        [&](std::shared_ptr<tor::TorStream> s, std::string) {
                          if (s) {
                            ++opened;
                            streams.push_back(std::move(s));
                          } else {
                            ++failed;
                          }
                        });
  }
  scenario->loop().run_until_done([&] { return opened + failed >= 8; });
  EXPECT_EQ(opened, 8);
  EXPECT_EQ(failed, 0);
}

TEST_F(FlowFixture, CircuitDeathEndsAllStreams) {
  auto client = scenario->make_tor_client(scenario->client_host());
  auto circ = build(client);
  ASSERT_TRUE(circ);

  const auto& site = scenario->tranco().sites()[1];
  std::shared_ptr<tor::TorStream> stream;
  client->open_stream(*circ, site.hostname + ":80",
                      [&](std::shared_ptr<tor::TorStream> s, std::string) {
                        stream = std::move(s);
                      });
  scenario->loop().run_until_done([&] { return stream != nullptr; });
  ASSERT_TRUE(stream);

  bool stream_closed = false;
  stream->set_close_handler([&] { stream_closed = true; });
  circ->close();
  EXPECT_TRUE(stream_closed);
  EXPECT_FALSE(circ->alive());
}

TEST_F(FlowFixture, SocksServerFullDialogue) {
  // Speak raw SOCKS5 against the TorSocksServer and verify each step.
  auto client = scenario->make_tor_client(scenario->client_host());
  auto socks = std::make_shared<tor::TorSocksServer>(client, "socks-raw");
  socks->start();

  const auto& site = scenario->tranco().sites()[0];
  enum { kGreeting, kConnect, kData } phase = kGreeting;
  std::size_t body = 0;
  bool replied_ok = false;

  net::ChannelPtr ch;
  scenario->network().connect(
      scenario->client_host(), scenario->client_host(), "socks-raw",
      [&](net::Pipe pipe) {
        ch = net::wrap_pipe(std::move(pipe));
        ch->set_receiver([&](util::Buf wire) {
          switch (phase) {
            case kGreeting: {
              auto m = net::socks::decode_method_select(wire);
              ASSERT_TRUE(m);
              EXPECT_EQ(*m, net::socks::kMethodNoAuth);
              phase = kConnect;
              net::socks::ConnectRequest req;
              req.host = site.hostname;
              req.port = 80;
              ch->send(net::socks::encode_connect(req));
              break;
            }
            case kConnect: {
              auto rep = net::socks::decode_reply(wire);
              ASSERT_TRUE(rep);
              ASSERT_EQ(rep->reply, net::socks::Reply::kSucceeded);
              replied_ok = true;
              phase = kData;
              net::http::Request req;
              req.target = "/";
              req.host = site.hostname;
              ch->send(net::http::encode_request(req));
              break;
            }
            case kData:
              body += wire.size();
              break;
          }
        });
        ch->send(net::socks::encode_greeting({}));
      });

  scenario->loop().run_until_done(
      [&] { return body >= site.default_page_bytes; });
  EXPECT_TRUE(replied_ok);
  EXPECT_GT(body, site.default_page_bytes);
}

TEST_F(FlowFixture, SocksServerRejectsUnknownHost) {
  auto client = scenario->make_tor_client(scenario->client_host());
  auto socks = std::make_shared<tor::TorSocksServer>(client, "socks-rej");
  socks->start();

  bool got_failure = false;
  net::ChannelPtr ch;
  scenario->network().connect(
      scenario->client_host(), scenario->client_host(), "socks-rej",
      [&](net::Pipe pipe) {
        ch = net::wrap_pipe(std::move(pipe));
        auto phase = std::make_shared<int>(0);
        ch->set_receiver([&, phase](util::Buf wire) {
          if (*phase == 0) {
            *phase = 1;
            net::socks::ConnectRequest req;
            req.host = "no-such-host.example";
            req.port = 80;
            ch->send(net::socks::encode_connect(req));
            return;
          }
          auto rep = net::socks::decode_reply(wire);
          ASSERT_TRUE(rep);
          EXPECT_NE(rep->reply, net::socks::Reply::kSucceeded);
          got_failure = true;
        });
        ch->send(net::socks::encode_greeting({}));
      });
  scenario->loop().run_until_done([&] { return got_failure; });
  EXPECT_TRUE(got_failure);
}

// The SOCKS server keeps one circuit: reused while alive, rebuilt on death.
TEST_F(FlowFixture, CircuitPoolReusesAndRebuilds) {
  auto client = scenario->make_tor_client(scenario->client_host());
  auto socks = std::make_shared<tor::TorSocksServer>(client);

  socks->warm();
  ASSERT_TRUE(socks->current());
  auto first = socks->current()->impl();

  // Reuse: warming again keeps the same circuit.
  socks->warm();
  EXPECT_EQ(socks->current()->impl(), first);

  // Death: killing it forces a rebuild on next warm.
  socks->current()->close();
  socks->warm();
  ASSERT_TRUE(socks->current());
  EXPECT_NE(socks->current()->impl(), first);
  EXPECT_TRUE(socks->current()->alive());
}

TEST_F(FlowFixture, UploadTraffic) {
  // Client-to-server uploads traverse the forward path correctly (POST
  // bodies larger than one cell).
  auto client = scenario->make_tor_client(scenario->client_host());
  auto circ = build(client);
  ASSERT_TRUE(circ);

  const auto& site = scenario->tranco().sites()[0];
  std::shared_ptr<tor::TorStream> stream;
  client->open_stream(*circ, site.hostname + ":80",
                      [&](std::shared_ptr<tor::TorStream> s, std::string) {
                        stream = std::move(s);
                      });
  scenario->loop().run_until_done([&] { return stream != nullptr; });
  ASSERT_TRUE(stream);

  // A 20 KB POST: chopped into ~40 forward DATA cells; the 404 response
  // proves the request arrived intact enough to parse.
  net::http::Request req;
  req.method = "POST";
  req.target = "/upload-sink";
  req.host = site.hostname;
  req.body = util::Bytes(20 * 1024, 0x61);
  bool got_response = false;
  stream->set_receiver([&](util::Buf data) {
    std::string text = util::to_string(data);
    if (text.find("404") != std::string::npos) got_response = true;
  });
  stream->send(net::http::encode_request(req));
  scenario->loop().run_until_done([&] { return got_response; });
  EXPECT_TRUE(got_response);
}

}  // namespace
}  // namespace ptperf
