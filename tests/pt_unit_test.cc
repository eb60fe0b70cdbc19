// PT framework unit tests: segmenting/pacing channel, AEAD crypto channel,
// the stegotorus chopper, marionette automaton specs, the upstream
// preamble, and the Table 2 inventory.
#include <gtest/gtest.h>

#include "net/network.h"
#include "pt/inventory.h"
#include "pt/layer/framing.h"
#include "pt/marionette.h"
#include "pt/stegotorus.h"
#include "pt/transport.h"
#include "pt/upstream.h"
#include "util/framer.h"

namespace ptperf::pt {
namespace {

using layer::CryptoChannel;
using layer::CryptoChannelConfig;
using layer::SegmentingChannel;
using layer::SegmentPolicy;
using util::Bytes;
using util::to_bytes;
using util::to_string;

/// Builds a connected pipe pair between two hosts.
struct PipePair {
  sim::EventLoop loop;
  net::Network net{loop, sim::Rng(99)};
  net::ChannelPtr client, server;

  PipePair() {
    net::HostId a = net.add_host("a", net::Region::kLondon);
    net::HostId b = net.add_host("b", net::Region::kFrankfurt);
    net.listen(b, "svc",
               [this](net::Pipe p) { server = net::wrap_pipe(std::move(p)); });
    net.connect(a, b, "svc",
                [this](net::Pipe p) { client = net::wrap_pipe(std::move(p)); });
    loop.run();
  }
};

TEST(SegmentingChannel, PreservesMessageBoundaries) {
  PipePair pair;
  SegmentPolicy policy;
  policy.max_segment = 64;
  auto tx = SegmentingChannel::create(pair.loop, pair.client, policy);
  auto rx = SegmentingChannel::create(pair.loop, pair.server, policy);

  std::vector<std::string> got;
  rx->set_receiver([&](util::Buf m) { got.push_back(to_string(m)); });

  tx->send(to_bytes("short"));
  tx->send(Bytes(500, 'x'));  // spans many 64-byte units
  tx->send(to_bytes(""));
  pair.loop.run();

  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], "short");
  EXPECT_EQ(got[1], std::string(500, 'x'));
  EXPECT_EQ(got[2], "");
}

TEST(SegmentingChannel, RateLimitPacesUnits) {
  PipePair pair;
  SegmentPolicy policy;
  policy.max_segment = 100;
  policy.rate_units_per_sec = 2.0;  // one unit every 500 ms
  auto tx = SegmentingChannel::create(pair.loop, pair.client, policy);

  std::size_t received = 0;
  pair.server->set_receiver([&](util::Buf m) { received += m.size(); });

  tx->send(Bytes(1000, 'y'));  // ~11 units incl. framing
  double start = sim::seconds_since_start(pair.loop.now());
  pair.loop.run();
  double elapsed = sim::seconds_since_start(pair.loop.now()) - start;
  // 11 units at 2/s: at least 5 s of pacing.
  EXPECT_GT(elapsed, 4.5);
  EXPECT_GT(received, 1000u);
}

// A rate cap lets a burst stand in the outbox: 2 MiB of cell-sized
// messages queued at once drain one marionette-sized unit per pacing slot.
// Every unit but the last must be full, and the messages must reassemble
// whole and in order.
TEST(SegmentingChannel, StandingBacklogDrainsInFullUnitsInOrder) {
  PipePair pair;
  SegmentPolicy policy;
  policy.max_segment = 1460;
  policy.rate_units_per_sec = 1000.0;
  auto tx = SegmentingChannel::create(pair.loop, pair.client, policy);

  constexpr std::size_t kMessageSize = 514;
  constexpr std::size_t kMessages = (2u << 20) / kMessageSize;
  std::vector<std::size_t> unit_payloads;
  std::vector<Bytes> got;
  util::MessageFramer framer([&](Bytes m) { got.push_back(std::move(m)); });
  pair.server->set_receiver([&](util::Buf unit) {
    util::Reader r(unit.view());
    std::uint32_t len = r.u32();
    unit_payloads.push_back(len);
    framer.feed(r.take(len));
  });

  auto message = [&](std::size_t i) {
    Bytes m(kMessageSize, static_cast<std::uint8_t>(i));
    m[0] = static_cast<std::uint8_t>(i >> 8);
    return m;
  };
  for (std::size_t i = 0; i < kMessages; ++i) tx->send(message(i));
  pair.loop.run();

  ASSERT_EQ(got.size(), kMessages);
  for (std::size_t i = 0; i < kMessages; ++i)
    ASSERT_EQ(got[i], message(i)) << "message " << i;
  EXPECT_EQ(framer.pending(), 0u);
  const std::size_t stream = kMessages * (4 + kMessageSize);
  ASSERT_EQ(unit_payloads.size(),
            (stream + policy.max_segment - 1) / policy.max_segment);
  for (std::size_t u = 0; u + 1 < unit_payloads.size(); ++u)
    ASSERT_EQ(unit_payloads[u], policy.max_segment) << "unit " << u;
  EXPECT_EQ(unit_payloads.back(),
            stream - (unit_payloads.size() - 1) * policy.max_segment);
}

TEST(SegmentingChannel, CoalescesSmallMessages) {
  // Many small sends share wire units instead of one unit each — the fix
  // that keeps cell streams efficient over paced transports.
  PipePair pair;
  SegmentPolicy policy;
  policy.max_segment = 4096;
  auto tx = SegmentingChannel::create(pair.loop, pair.client, policy);

  int wire_units = 0;
  std::size_t payload = 0;
  pair.server->set_receiver([&](util::Buf m) {
    ++wire_units;
    payload += m.size();
  });
  for (int i = 0; i < 20; ++i) tx->send(Bytes(100, 'z'));
  pair.loop.run();
  EXPECT_LE(wire_units, 2);  // 20 x (100+4) bytes fit in one 4 KiB unit
  EXPECT_GT(payload, 2000u);
}

TEST(SegmentingChannel, OverheadRidesOnWire) {
  PipePair pair;
  SegmentPolicy with_cover;
  with_cover.max_segment = 256;
  with_cover.per_segment_overhead = 200;
  auto tx = SegmentingChannel::create(pair.loop, pair.client, with_cover);
  auto rx = SegmentingChannel::create(pair.loop, pair.server, with_cover);

  Bytes got;
  rx->set_receiver([&](util::Buf m) { got = std::move(m).take_bytes(); });
  std::size_t wire_bytes = 0;
  // Count actual wire sizes via a tap on the raw server pipe? The inner
  // channel is consumed by rx; instead verify the payload survives and
  // network accounting grew by more than the payload.
  std::uint64_t before = pair.net.total_bytes_sent();
  tx->send(Bytes(300, 'q'));
  pair.loop.run();
  std::uint64_t after = pair.net.total_bytes_sent();
  EXPECT_EQ(got, Bytes(300, 'q'));
  wire_bytes = after - before;
  EXPECT_GT(wire_bytes, 300u + 2 * with_cover.per_segment_overhead - 1);
}

TEST(CryptoChannel, RoundTripWithPadding) {
  PipePair pair;
  sim::Rng rng(5);
  Bytes k1 = rng.bytes(32), k2 = rng.bytes(32);
  CryptoChannelConfig ctx;
  ctx.send_key = k1;
  ctx.recv_key = k2;
  ctx.pad_block = 128;
  ctx.max_random_pad = 64;
  CryptoChannelConfig srv;
  srv.send_key = k2;
  srv.recv_key = k1;
  srv.pad_block = 128;
  srv.max_random_pad = 64;

  auto tx = CryptoChannel::create(pair.client, ctx, rng.fork("c"));
  auto rx = CryptoChannel::create(pair.server, srv, rng.fork("s"));

  std::vector<std::string> got;
  rx->set_receiver([&](util::Buf m) { got.push_back(to_string(m)); });
  std::string reply;
  tx->set_receiver([&](util::Buf m) { reply = to_string(m); });

  tx->send(to_bytes("one"));
  tx->send(Bytes(1000, 'p'));
  pair.loop.run();
  rx->send(to_bytes("back"));
  pair.loop.run();

  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], "one");
  EXPECT_EQ(got[1], std::string(1000, 'p'));
  EXPECT_EQ(reply, "back");
}

TEST(CryptoChannel, WireIsPaddedToBlock) {
  PipePair pair;
  sim::Rng rng(6);
  Bytes k = rng.bytes(32);
  CryptoChannelConfig cfg;
  cfg.send_key = k;
  cfg.recv_key = k;
  cfg.pad_block = 128;
  auto tx = CryptoChannel::create(pair.client, cfg, rng.fork("c"));

  Bytes wire;
  pair.server->set_receiver([&](util::Buf m) { wire = std::move(m).take_bytes(); });
  tx->send(to_bytes("tiny"));
  pair.loop.run();
  // ciphertext = padded plaintext + 16-byte tag; plaintext padded to 128.
  ASSERT_FALSE(wire.empty());
  EXPECT_EQ((wire.size() - 16) % 128, 0u);
}

TEST(CryptoChannel, CorruptFrameClosesChannel) {
  PipePair pair;
  sim::Rng rng(7);
  Bytes k = rng.bytes(32);
  CryptoChannelConfig cfg;
  cfg.send_key = k;
  cfg.recv_key = k;
  auto rx = CryptoChannel::create(pair.server, cfg, rng.fork("s"));
  bool closed = false;
  rx->set_close_handler([&] { closed = true; });
  rx->set_receiver([](util::Buf) { FAIL() << "corrupt frame must not decrypt"; });

  pair.client->send(Bytes(64, 0x33));  // garbage, fails AEAD open
  pair.loop.run();
  EXPECT_TRUE(closed);
}

TEST(Chopper, ReordersBlocksAcrossConnections) {
  StegotorusConfig cfg;
  cfg.connections = 3;
  cfg.min_block = 16;
  cfg.max_block = 64;
  cfg.cover_overhead = 10;

  // Two choppers connected back-to-back over three pipe pairs.
  sim::EventLoop loop;
  net::Network net(loop, sim::Rng(8));
  net::HostId a = net.add_host("a", net::Region::kLondon);
  net::HostId b = net.add_host("b", net::Region::kFrankfurt);
  auto tx = ChopperChannel::create(sim::Rng(1), cfg);
  auto rx = ChopperChannel::create(sim::Rng(2), cfg);
  for (int i = 0; i < cfg.connections; ++i) {
    std::string svc = "c" + std::to_string(i);
    net.listen(b, svc,
               [&rx](net::Pipe p) { rx->add_connection(net::wrap_pipe(std::move(p))); });
    net.connect(a, b, svc,
                [&tx](net::Pipe p) { tx->add_connection(net::wrap_pipe(std::move(p))); });
  }
  loop.run();

  std::vector<std::string> got;
  rx->set_receiver([&](util::Buf m) { got.push_back(to_string(m)); });
  std::string big(5000, 'm');
  tx->send(to_bytes("first"));
  tx->send(to_bytes(big));
  tx->send(to_bytes("last"));
  loop.run();

  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], "first");
  EXPECT_EQ(got[1], big);
  EXPECT_EQ(got[2], "last");
}

TEST(Marionette, SpecsValidate) {
  EXPECT_NO_THROW(ftp_simple_blocking().validate());
  EXPECT_NO_THROW(http_simple_blocking().validate());

  MarionetteSpec bad = ftp_simple_blocking();
  bad.transitions[0][0] += 0.5;  // row no longer sums to 1
  EXPECT_THROW(bad.validate(), std::invalid_argument);

  MarionetteSpec empty;
  EXPECT_THROW(empty.validate(), std::invalid_argument);
}

TEST(Marionette, WalkerProducesPositiveDwells) {
  AutomatonWalker walker(ftp_simple_blocking(), sim::Rng(9));
  double total_ms = 0;
  for (int i = 0; i < 200; ++i) {
    sim::Duration d = walker.next_dwell();
    EXPECT_GT(d.count(), 0);
    total_ms += sim::to_millis(d);
  }
  // Mean dwell should be in the hundreds of milliseconds — the mechanism
  // behind marionette's dominance of every "slowest PT" ranking.
  EXPECT_GT(total_ms / 200, 100.0);
  EXPECT_LT(total_ms / 200, 5000.0);
  EXPECT_EQ(walker.max_payload(), 1460u);
}

TEST(Upstream, PreambleRoundTrip) {
  PipePair pair;
  send_preamble(pair.client, 0x1234);
  tor::RelayIndex got = 0;
  pair.server->set_receiver([&](util::Buf m) {
    ASSERT_EQ(m.size(), 2u);
    got = static_cast<tor::RelayIndex>(m[0]) << 8 | m[1];
  });
  pair.loop.run();
  EXPECT_EQ(got, 0x1234);
}

TEST(Upstream, ServeDialsSelectedHostAndSplices) {
  sim::EventLoop loop;
  net::Network net(loop, sim::Rng(10));
  net::HostId client = net.add_host("client", net::Region::kLondon);
  net::HostId server = net.add_host("ptserver", net::Region::kFrankfurt);
  net::HostId upstream = net.add_host("up", net::Region::kEuropeWest);

  std::string got_upstream;
  net.listen(upstream, "tor", [&](net::Pipe p) {
    auto ch = net::wrap_pipe(std::move(p));
    ch->set_receiver([&got_upstream, ch](util::Buf m) {
      got_upstream = to_string(m);
      ch->send(to_bytes("from-upstream"));
    });
    static net::ChannelPtr keeper;
    keeper = ch;
  });

  net.listen(server, "pt", [&](net::Pipe p) {
    serve_upstream(net, server, net::wrap_pipe(std::move(p)),
                   [upstream](tor::RelayIndex idx) {
                     EXPECT_EQ(idx, 7);
                     return std::make_pair(upstream, std::string("tor"));
                   });
  });

  std::string reply;
  net.connect(client, server, "pt", [&](net::Pipe p) {
    auto ch = net::wrap_pipe(std::move(p));
    ch->set_receiver([&reply](util::Buf m) { reply = to_string(m); });
    send_preamble(ch, 7);
    ch->send(to_bytes("tunnel-data"));
    static net::ChannelPtr keeper;
    keeper = ch;
  });
  loop.run();
  EXPECT_EQ(got_upstream, "tunnel-data");
  EXPECT_EQ(reply, "from-upstream");
}

TEST(Inventory, PaperCounts) {
  InventorySummary s = summarize_inventory();
  EXPECT_EQ(s.total, 28u);
  EXPECT_EQ(s.evaluated, 12u);
  // Paper: of the 16 not evaluated, 13 are non-functional, two are
  // special-purpose (rook, mailet) and one is access-restricted
  // (massbrowser) => functional = 12 + 3.
  EXPECT_EQ(s.functional, 15u);
}

TEST(Inventory, EvaluatedMatchesTransportSet) {
  std::set<std::string> evaluated;
  for (const PtInventoryEntry& e : pt_inventory())
    if (e.performance_evaluated) evaluated.insert(e.name);
  for (const char* name :
       {"obfs4", "meek", "snowflake", "dnstt", "conjure", "webtunnel",
        "marionette", "shadowsocks", "stegotorus", "psiphon", "cloak",
        "camoufler"}) {
    EXPECT_TRUE(evaluated.count(name)) << name;
  }
}

TEST(Taxonomy, CategoryNames) {
  EXPECT_EQ(category_name(Category::kProxyLayer), "proxy-layer");
  EXPECT_EQ(category_name(Category::kTunneling), "tunneling");
  EXPECT_EQ(category_name(Category::kMimicry), "mimicry");
  EXPECT_EQ(category_name(Category::kFullyEncrypted), "fully-encrypted");
}

}  // namespace
}  // namespace ptperf::pt
