// Property-style parameterized sweeps over the protocol invariants:
// codec roundtrips at many sizes, onion layering at many hop counts,
// framing under adversarial chunking, and byte conservation end-to-end.
#include <gtest/gtest.h>

#include <algorithm>

#include "net/dns.h"
#include "net/tls.h"
#include "ptperf/transports.h"
#include "tor/cell.h"
#include "tor/onion.h"
#include "util/framer.h"

namespace ptperf {
namespace {

// ----------------------------------------------- relay cell size sweep --

class RelayCellSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RelayCellSizes, RoundTrip) {
  sim::Rng rng(GetParam());
  auto stream_id = static_cast<tor::StreamId>(GetParam());
  util::Bytes data = rng.bytes(GetParam());
  util::Bytes payload(tor::kCellPayloadSize);
  ASSERT_TRUE(tor::encode_relay_cell_into(payload, tor::RelayCommand::kData,
                                          stream_id, 0, data));
  auto back = tor::parse_relay_cell(payload);
  ASSERT_TRUE(back);
  EXPECT_TRUE(std::ranges::equal(back->data, data));
  EXPECT_EQ(back->stream_id, stream_id);
}

INSTANTIATE_TEST_SUITE_P(Sizes, RelayCellSizes,
                         ::testing::Values(0, 1, 2, 7, 63, 64, 127, 255, 256,
                                           400, 497, 498));

// ------------------------------------------------- onion layer hop sweep --

class OnionHopCounts : public ::testing::TestWithParam<int> {};

TEST_P(OnionHopCounts, LayeringInvertsAtAnyDepth) {
  int hops = GetParam();
  sim::Rng rng(1000 + hops);
  std::vector<tor::CircuitKeys> keys;
  for (int i = 0; i < hops; ++i) {
    tor::CircuitKeys k;
    k.forward_key = rng.bytes(32);
    k.backward_key = rng.bytes(32);
    k.forward_nonce = rng.bytes(12);
    k.backward_nonce = rng.bytes(12);
    k.digest_seed = rng.bytes(16);
    keys.push_back(k);
  }
  std::vector<tor::RelayLayer> client_side, relay_side;
  for (int i = 0; i < hops; ++i) {
    client_side.emplace_back(keys[i]);
    relay_side.emplace_back(keys[i]);
  }
  // Several cells through the full stack in both directions.
  for (int cell = 0; cell < 4; ++cell) {
    util::Bytes payload = rng.bytes(tor::kCellPayloadSize);
    util::Bytes original = payload;
    for (int i = hops; i-- > 0;) client_side[i].process_forward(payload);
    for (int i = 0; i < hops; ++i) relay_side[i].process_forward(payload);
    EXPECT_EQ(payload, original) << "hops=" << hops << " cell=" << cell;

    for (int i = hops; i-- > 0;) relay_side[i].process_backward(payload);
    for (int i = 0; i < hops; ++i) client_side[i].process_backward(payload);
    EXPECT_EQ(payload, original);
  }
}

INSTANTIATE_TEST_SUITE_P(Hops, OnionHopCounts, ::testing::Range(1, 8));

// ------------------------------------------------- DNS data-name sweep --

class DnsDataSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DnsDataSizes, NameCodecRoundTrip) {
  sim::Rng rng(GetParam() + 7);
  util::Bytes data = rng.bytes(GetParam());
  std::string zone = "t.example.com";
  std::string name = net::dns::encode_data_name(data, zone);
  ASSERT_LE(name.size(), net::dns::kMaxNameLen);
  auto back = net::dns::decode_data_name(name, zone);
  ASSERT_TRUE(back);
  EXPECT_EQ(*back, data);
}

INSTANTIATE_TEST_SUITE_P(Sizes, DnsDataSizes,
                         ::testing::Values(0, 1, 5, 31, 32, 63, 64, 100, 130,
                                           140));

// ------------------------------------------- framer chunk-size torture --

class FramerChunks : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FramerChunks, ReassemblesUnderChunking) {
  sim::Rng rng(3);
  std::vector<util::Bytes> messages;
  util::Bytes stream;
  for (int i = 0; i < 12; ++i) {
    util::Bytes m = rng.bytes(rng.next_below(700));
    messages.push_back(m);
    util::Bytes framed = util::frame_message(m);
    stream.insert(stream.end(), framed.begin(), framed.end());
  }
  std::vector<util::Bytes> got;
  util::MessageFramer f([&](util::Bytes m) { got.push_back(std::move(m)); });
  std::size_t chunk = GetParam();
  for (std::size_t off = 0; off < stream.size(); off += chunk) {
    f.feed(util::BytesView(stream.data() + off,
                           std::min(chunk, stream.size() - off)));
  }
  ASSERT_EQ(got.size(), messages.size());
  for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], messages[i]);
}

INSTANTIATE_TEST_SUITE_P(Chunks, FramerChunks,
                         ::testing::Values(1, 2, 3, 5, 16, 64, 333, 4096));

// --------------------------------- byte conservation through every PT --

class PtByteConservation : public ::testing::TestWithParam<PtId> {};

TEST_P(PtByteConservation, DeliversExactBody) {
  ScenarioConfig cfg;
  cfg.seed = 4242;
  cfg.tranco_sites = 2;
  cfg.cbl_sites = 0;
  Scenario scenario(cfg);
  TransportFactory factory(scenario);
  PtStack stack = factory.create(GetParam());

  const workload::Website& site = scenario.tranco().sites()[0];
  workload::FetchResult result;
  bool done = false;
  stack.fetcher->fetch(site.hostname, "/", sim::from_seconds(300),
                       [&](workload::FetchResult r) {
                         result = std::move(r);
                         done = true;
                       });
  scenario.loop().run_until_done([&] { return done; });
  ASSERT_TRUE(result.success) << stack.name() << ": " << result.error;
  // Conservation: exactly the body, not one byte more or less.
  EXPECT_EQ(result.received_bytes, site.default_page_bytes) << stack.name();
  EXPECT_EQ(result.fraction(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllPts, PtByteConservation, ::testing::ValuesIn(all_pt_ids()),
    [](const ::testing::TestParamInfo<PtId>& info) {
      return std::string(pt_id_name(info.param));
    });

// ------------------------------------------- TLS message size sweep --

class TlsMessageSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TlsMessageSizes, BoundaryPreservedAtAnySize) {
  sim::EventLoop loop;
  net::Network net(loop, sim::Rng(20));
  net::HostId a = net.add_host("a", net::Region::kLondon);
  net::HostId b = net.add_host("b", net::Region::kFrankfurt);
  sim::Rng rng(21);
  auto server_rng = std::make_shared<sim::Rng>(rng.fork("s"));
  auto client_rng = std::make_shared<sim::Rng>(rng.fork("c"));

  util::Bytes sent = rng.bytes(GetParam());
  util::Bytes got;
  int messages = 0;
  net.listen(b, "https", [&, server_rng](net::Pipe pipe) {
    net::tls_accept(std::move(pipe), *server_rng,
                    [&](net::TlsSession session, const net::ClientHello&) {
                      auto s = std::make_shared<net::TlsSession>(
                          std::move(session));
                      s->on_receive([&](util::Buf m) {
                        got = std::move(m).take_bytes();
                        ++messages;
                      });
                    });
  });
  net.connect(a, b, "https", [&, client_rng](net::Pipe pipe) {
    net::tls_connect(std::move(pipe), {}, *client_rng,
                     [&](net::TlsSession session) {
                       auto s = std::make_shared<net::TlsSession>(
                           std::move(session));
                       s->send(util::Bytes(sent));
                     });
  });
  loop.run();
  EXPECT_EQ(messages, 1);
  EXPECT_EQ(got, sent);
}

INSTANTIATE_TEST_SUITE_P(Sizes, TlsMessageSizes,
                         ::testing::Values(0, 1, 100, 16379, 16380, 16381,
                                           32760, 65536, 200000));

}  // namespace
}  // namespace ptperf
