// Tor substrate unit tests: cell wire formats, ntor handshake (both
// modes), onion layering, path selection and consensus generation — plus
// circuit-level integration through real relays.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "crypto/sha256.h"
#include "ptperf/scenario.h"
#include "tor/cell.h"
#include "tor/ntor.h"
#include "tor/onion.h"
#include "tor/path.h"
#include "util/buf.h"

namespace ptperf::tor {
namespace {

TEST(Cell, FixedSizeEncoding) {
  util::Bytes payload = util::to_bytes("small");
  util::Buf wire = util::local_pool().acquire(kCellSize);
  ASSERT_TRUE(encode_cell_into(wire.span(), 0xA1B2C3D4, CellCommand::kRelay,
                               payload));
  // Big-endian circuit id, then the command, the payload and zero padding.
  EXPECT_EQ(wire[0], 0xA1);
  EXPECT_EQ(wire[3], 0xD4);
  EXPECT_EQ(wire[4], static_cast<std::uint8_t>(CellCommand::kRelay));
  EXPECT_TRUE(std::all_of(wire.begin() + kCellHeaderSize + payload.size(),
                          wire.end(), [](std::uint8_t b) { return b == 0; }));
  auto back = parse_cell(wire);
  ASSERT_TRUE(back);
  EXPECT_EQ(back->circ_id, 0xA1B2C3D4u);
  EXPECT_EQ(back->command, CellCommand::kRelay);
  EXPECT_EQ(back->payload.size(), kCellPayloadSize);  // padded
  EXPECT_EQ(back->payload.data(), wire.data() + kCellHeaderSize);  // a view
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(),
                         back->payload.begin()));
}

TEST(Cell, DecodeRejectsWrongSize) {
  EXPECT_FALSE(parse_cell(util::Bytes(kCellSize - 1)));
  EXPECT_FALSE(parse_cell(util::Bytes(kCellSize + 1)));
}

TEST(Cell, EncodeRejectsWrongSizeOutputAndOversizePayload) {
  for (std::size_t size : {kCellSize - 1, kCellSize + 1}) {
    util::Bytes out(size);
    EXPECT_FALSE(encode_cell_into(out, 1, CellCommand::kRelay, {})) << size;
  }
  util::Bytes out(kCellSize);
  EXPECT_FALSE(encode_cell_into(out, 1, CellCommand::kRelay,
                                util::Bytes(kCellPayloadSize + 1)));
  EXPECT_TRUE(encode_cell_into(out, 1, CellCommand::kRelay,
                               util::Bytes(kCellPayloadSize)));
}

TEST(RelayCellCodec, RoundTripAllFields) {
  util::Bytes data = util::to_bytes("site0001.tranco:80");
  util::Bytes payload(kCellPayloadSize);
  ASSERT_TRUE(encode_relay_cell_into(payload, RelayCommand::kBegin, 0xBEEF,
                                     0x01020304, data));
  // cmd, recognized(2), stream(2), digest(4), length(2), then the data.
  EXPECT_EQ(payload[0], static_cast<std::uint8_t>(RelayCommand::kBegin));
  EXPECT_EQ(payload[kRelayDigestOffset], 0x01);
  EXPECT_EQ(payload[kRelayDigestOffset + 3], 0x04);
  EXPECT_EQ(payload[10], data.size());
  auto back = parse_relay_cell(payload);
  ASSERT_TRUE(back);
  EXPECT_EQ(back->command, RelayCommand::kBegin);
  EXPECT_EQ(back->recognized, 0);
  EXPECT_EQ(back->stream_id, 0xBEEF);
  EXPECT_EQ(back->digest, 0x01020304u);
  EXPECT_TRUE(std::ranges::equal(back->data, data));
}

TEST(RelayCellCodec, MaxDataFits) {
  util::Bytes data(kRelayDataMax, 0x7f);
  util::Buf payload = util::local_pool().acquire(kCellPayloadSize);
  ASSERT_TRUE(encode_relay_cell_into(payload.span(), RelayCommand::kData, 42,
                                     0xA1B2C3D4, data));
  auto back = parse_relay_cell(payload);
  ASSERT_TRUE(back);
  EXPECT_EQ(back->stream_id, 42);
  EXPECT_EQ(back->digest, 0xA1B2C3D4u);
  EXPECT_EQ(back->data.size(), kRelayDataMax);
  EXPECT_TRUE(std::ranges::equal(back->data, data));
}

TEST(RelayCellCodec, OversizeRejected) {
  util::Bytes payload(kCellPayloadSize);
  EXPECT_FALSE(encode_relay_cell_into(payload, RelayCommand::kData, 1, 0,
                                      util::Bytes(kRelayDataMax + 1, 0)));
}

TEST(RelayCellCodec, EncodeRejectsWrongSizeOutput) {
  for (std::size_t size : {kCellPayloadSize - 1, kCellPayloadSize + 1}) {
    util::Bytes out(size);
    EXPECT_FALSE(encode_relay_cell_into(out, RelayCommand::kData, 1, 0, {}))
        << size;
  }
}

TEST(RelayCellCodec, ParseRejectsWrongSizeAndOverlongLength) {
  EXPECT_FALSE(parse_relay_cell(util::Bytes(kCellPayloadSize - 1)));
  EXPECT_FALSE(parse_relay_cell(util::Bytes(kCellPayloadSize + 1)));

  util::Bytes payload(kCellPayloadSize);
  ASSERT_TRUE(encode_relay_cell_into(payload, RelayCommand::kData, 1, 0,
                                     util::Bytes(kRelayDataMax)));
  ASSERT_TRUE(parse_relay_cell(payload));
  // A length field one past the data that fits in a cell.
  payload[9] = static_cast<std::uint8_t>((kRelayDataMax + 1) >> 8);
  payload[10] = static_cast<std::uint8_t>(kRelayDataMax + 1);
  EXPECT_FALSE(parse_relay_cell(payload));
}

TEST(Extend2Codec, RoundTrip) {
  Extend2 e;
  e.target_relay = 77;
  e.handshake = util::Bytes(32, 0xAA);
  auto back = Extend2::decode(e.encode());
  ASSERT_TRUE(back);
  EXPECT_EQ(back->target_relay, 77);
  EXPECT_EQ(back->handshake, e.handshake);
}

class NtorBothModes : public ::testing::TestWithParam<HandshakeMode> {};

TEST_P(NtorBothModes, KeysAgreeAndAuthVerifies) {
  sim::Rng client_rng(1), server_rng(2), key_rng(3);
  HandshakeMode mode = GetParam();

  crypto::X25519Key priv{};
  key_rng.fill_bytes(priv.data(), priv.size());
  priv = crypto::x25519_clamp(priv);
  RelayIdentity identity;
  identity.relay_index = 5;
  if (mode == HandshakeMode::kRealDh) {
    identity.onion_public = crypto::x25519_base(priv);
  } else {
    key_rng.fill_bytes(identity.onion_public.data(), 32);
  }

  NtorClientState st = ntor_client_start(client_rng, mode);
  util::Bytes msg = ntor_client_message(st);
  ASSERT_EQ(msg.size(), 32u);

  auto server = ntor_server_respond(msg, identity, priv, server_rng, mode);
  ASSERT_TRUE(server);
  auto client_keys = ntor_client_finish(st, identity, server->reply);
  ASSERT_TRUE(client_keys);

  EXPECT_EQ(client_keys->forward_key, server->keys.forward_key);
  EXPECT_EQ(client_keys->backward_key, server->keys.backward_key);
  EXPECT_EQ(client_keys->digest_seed, server->keys.digest_seed);
  EXPECT_NE(client_keys->forward_key, client_keys->backward_key);
}

TEST_P(NtorBothModes, TamperedReplyRejected) {
  sim::Rng client_rng(4), server_rng(5), key_rng(6);
  HandshakeMode mode = GetParam();
  crypto::X25519Key priv{};
  key_rng.fill_bytes(priv.data(), priv.size());
  RelayIdentity identity;
  identity.relay_index = 1;
  key_rng.fill_bytes(identity.onion_public.data(), 32);
  if (mode == HandshakeMode::kRealDh)
    identity.onion_public = crypto::x25519_base(crypto::x25519_clamp(priv));

  NtorClientState st = ntor_client_start(client_rng, mode);
  auto server = ntor_server_respond(ntor_client_message(st), identity, priv,
                                    server_rng, mode);
  ASSERT_TRUE(server);
  util::Bytes bad = server->reply;
  bad[40] ^= 0xFF;  // corrupt the auth tag
  EXPECT_FALSE(ntor_client_finish(st, identity, bad));
}

INSTANTIATE_TEST_SUITE_P(Modes, NtorBothModes,
                         ::testing::Values(HandshakeMode::kFastSim,
                                           HandshakeMode::kRealDh),
                         [](const auto& info) {
                           return info.param == HandshakeMode::kRealDh
                                      ? "RealDh"
                                      : "FastSim";
                         });

CircuitKeys test_keys(sim::Rng& rng) {
  CircuitKeys k;
  k.forward_key = rng.bytes(32);
  k.backward_key = rng.bytes(32);
  k.forward_nonce = rng.bytes(12);
  k.backward_nonce = rng.bytes(12);
  k.digest_seed = rng.bytes(16);
  return k;
}

TEST(OnionLayer, SymmetricStream) {
  sim::Rng rng(7);
  CircuitKeys keys = test_keys(rng);
  RelayLayer client_side(keys), relay_side(keys);

  for (int i = 0; i < 5; ++i) {
    util::Bytes payload = rng.bytes(kCellPayloadSize);
    util::Bytes original = payload;
    client_side.process_forward(payload);
    EXPECT_NE(payload, original);
    relay_side.process_forward(payload);
    EXPECT_EQ(payload, original);  // XOR symmetric, streams in sync
  }
}

TEST(OnionLayer, DigestCommitAndCheck) {
  sim::Rng rng(8);
  CircuitKeys keys = test_keys(rng);
  RelayLayer sender(keys), receiver(keys);

  for (int i = 0; i < 10; ++i) {
    util::Bytes payload = rng.bytes(kCellPayloadSize);
    std::uint32_t digest = sender.commit_forward_digest(payload);
    EXPECT_TRUE(receiver.check_forward_digest(payload, digest));
  }
}

TEST(OnionLayer, CheckWithoutCommitDoesNotPerturb) {
  sim::Rng rng(9);
  CircuitKeys keys = test_keys(rng);
  RelayLayer sender(keys), receiver(keys);

  util::Bytes cell1 = rng.bytes(kCellPayloadSize);
  util::Bytes unrelated = rng.bytes(kCellPayloadSize);
  std::uint32_t d1 = sender.commit_forward_digest(cell1);
  // A failed check (cell for another hop) must not advance the hash.
  EXPECT_FALSE(receiver.check_forward_digest(unrelated, 0xDEAD));
  EXPECT_TRUE(receiver.check_forward_digest(cell1, d1));
}

TEST(OnionLayer, BackwardCheckWithoutCommitDoesNotPerturb) {
  sim::Rng rng(9);
  CircuitKeys keys = test_keys(rng);
  RelayLayer sender(keys), receiver(keys);

  util::Bytes cell1 = rng.bytes(kCellPayloadSize);
  util::Bytes unrelated = rng.bytes(kCellPayloadSize);
  std::uint32_t d1 = sender.commit_backward_digest(cell1);
  EXPECT_FALSE(receiver.check_backward_digest(unrelated, 0xDEAD));
  EXPECT_TRUE(receiver.check_backward_digest(cell1, d1));
}

/// The relay digest as a two-pass reference: a rolling SHA-256 seeded
/// like RelayLayer's (digest_seed, then the direction label), read through
/// a finalized copy, then advanced by the payload.
class ReferenceDigest {
 public:
  ReferenceDigest(const CircuitKeys& keys, const char* direction) {
    rolling_.update(keys.digest_seed);
    rolling_.update(util::to_bytes(direction));
  }
  std::uint32_t next(util::BytesView payload) {
    crypto::Sha256 copy = rolling_;
    copy.update(payload);
    auto d = copy.finalize();
    rolling_.update(payload);
    return static_cast<std::uint32_t>(d[0]) << 24 |
           static_cast<std::uint32_t>(d[1]) << 16 |
           static_cast<std::uint32_t>(d[2]) << 8 | d[3];
  }

 private:
  crypto::Sha256 rolling_;
};

// Both ends share keys, so they agree with each other even when seeded or
// advanced wrongly; only an independent reference pins the bytes.
TEST(OnionLayer, DigestsMatchTwoPassReference) {
  sim::Rng rng(13);
  CircuitKeys keys = test_keys(rng);
  RelayLayer client(keys), exit_hop(keys);
  ReferenceDigest fwd(keys, "fwd"), bwd(keys, "bwd");

  for (int i = 0; i < 20; ++i) {
    util::Bytes up = rng.bytes(kCellPayloadSize);
    util::Bytes down = rng.bytes(kCellPayloadSize);
    std::uint32_t up_digest = fwd.next(up);
    std::uint32_t down_digest = bwd.next(down);
    EXPECT_EQ(client.commit_forward_digest(up), up_digest) << i;
    EXPECT_EQ(exit_hop.commit_backward_digest(down), down_digest) << i;
    if (i % 5 == 0) {  // a cell for another hop leaves the state alone
      EXPECT_FALSE(exit_hop.check_forward_digest(up, up_digest ^ 1));
      EXPECT_FALSE(client.check_backward_digest(down, down_digest ^ 1));
    }
    EXPECT_TRUE(exit_hop.check_forward_digest(up, up_digest)) << i;
    EXPECT_TRUE(client.check_backward_digest(down, down_digest)) << i;
  }
}

TEST(OnionLayer, MultiHopLayering) {
  // Client applies three layers; relays strip one each, in order.
  sim::Rng rng(10);
  CircuitKeys k1 = test_keys(rng), k2 = test_keys(rng), k3 = test_keys(rng);
  RelayLayer c1(k1), c2(k2), c3(k3);      // client-side layer states
  RelayLayer r1(k1), r2(k2), r3(k3);      // per-relay states

  util::Bytes payload = rng.bytes(kCellPayloadSize);
  util::Bytes original = payload;
  c3.process_forward(payload);
  c2.process_forward(payload);
  c1.process_forward(payload);
  r1.process_forward(payload);
  r2.process_forward(payload);
  r3.process_forward(payload);
  EXPECT_EQ(payload, original);
}

TEST(PathSelection, RespectsFlagsAndDistinctness) {
  ScenarioConfig cfg;
  cfg.seed = 31;
  cfg.tranco_sites = 1;
  cfg.cbl_sites = 0;
  Scenario scenario(cfg);
  const Consensus& consensus = scenario.consensus();
  PathSelector selector(consensus, sim::Rng(1));

  for (int i = 0; i < 50; ++i) {
    Path p = selector.select({});
    EXPECT_TRUE(consensus.at(p.entry).has(kFlagGuard));
    EXPECT_TRUE(consensus.at(p.exit).has(kFlagExit));
    EXPECT_NE(p.entry, p.middle);
    EXPECT_NE(p.entry, p.exit);
    EXPECT_NE(p.middle, p.exit);
    EXPECT_FALSE(consensus.at(p.middle).has(kFlagBridge));
  }
}

TEST(PathSelection, GuardPersistsUntilReset) {
  ScenarioConfig cfg;
  cfg.seed = 32;
  cfg.tranco_sites = 1;
  cfg.cbl_sites = 0;
  Scenario scenario(cfg);
  PathSelector selector(scenario.consensus(), sim::Rng(2));

  RelayIndex guard = selector.select({}).entry;
  for (int i = 0; i < 20; ++i) EXPECT_EQ(selector.select({}).entry, guard);

  std::set<RelayIndex> guards;
  for (int i = 0; i < 20; ++i) {
    selector.reset_guard();
    guards.insert(selector.select({}).entry);
  }
  EXPECT_GT(guards.size(), 1u);  // rotation samples different guards
}

TEST(PathSelection, ConstraintsHonoured) {
  ScenarioConfig cfg;
  cfg.seed = 33;
  cfg.tranco_sites = 1;
  cfg.cbl_sites = 0;
  Scenario scenario(cfg);
  PathSelector selector(scenario.consensus(), sim::Rng(3));

  PathConstraints c;
  c.entry = 3;
  c.middle = 5;
  c.exit = 7;
  Path p = selector.select(c);
  EXPECT_EQ(p.entry, 3);
  EXPECT_EQ(p.middle, 5);
  EXPECT_EQ(p.exit, 7);
}

TEST(PathSelection, BandwidthWeightingPrefersFastRelays) {
  ScenarioConfig cfg;
  cfg.seed = 34;
  cfg.tranco_sites = 1;
  cfg.cbl_sites = 0;
  Scenario scenario(cfg);
  const Consensus& consensus = scenario.consensus();
  PathSelector selector(consensus, sim::Rng(4));

  std::map<RelayIndex, int> counts;
  for (int i = 0; i < 3000; ++i) counts[selector.select({}).exit]++;

  // The most-selected exit should be one of the higher-bandwidth exits.
  RelayIndex top = counts.begin()->first;
  for (auto& [idx, n] : counts)
    if (n > counts[top]) top = idx;
  double top_weight = consensus.at(top).bandwidth_weight;
  double max_weight = 0;
  for (const RelayDescriptor& d : consensus.relays)
    if (d.has(kFlagExit) && !d.has(kFlagBridge))
      max_weight = std::max(max_weight, d.bandwidth_weight);
  EXPECT_GT(top_weight, max_weight / 4);
}

TEST(Directory, GeneratedConsensusShape) {
  sim::EventLoop loop;
  net::Network net(loop, sim::Rng(50));
  sim::Rng rng(51);
  ConsensusParams params;
  params.n_relays = 80;
  GeneratedConsensus gen = generate_consensus(net, rng, params);
  EXPECT_EQ(gen.consensus.relays.size(), 80u);
  EXPECT_EQ(gen.onion_private.size(), 80u);

  int guards = 0, exits = 0;
  for (const RelayDescriptor& d : gen.consensus.relays) {
    if (d.has(kFlagGuard)) ++guards;
    if (d.has(kFlagExit)) ++exits;
    EXPECT_GE(d.bandwidth_weight, params.min_mbps * 0.99);
    EXPECT_LE(d.bandwidth_weight, params.max_mbps * 1.01);
  }
  EXPECT_GT(guards, 4);
  EXPECT_GT(exits, 4);
}

// ------------------------------------------------- circuit integration --

struct CircuitFixture : ::testing::Test {
  ScenarioConfig cfg;
  std::unique_ptr<Scenario> scenario;

  void SetUp() override {
    cfg.seed = 77;
    cfg.tranco_sites = 2;
    cfg.cbl_sites = 0;
    scenario = std::make_unique<Scenario>(cfg);
  }
};

TEST_F(CircuitFixture, BuildsThreeHops) {
  auto client = scenario->make_tor_client(scenario->client_host());
  bool built = false;
  std::string error;
  client->build_circuit({}, [&](std::optional<TorCircuit> circuit,
                                std::string err) {
    built = circuit.has_value();
    error = err;
  });
  scenario->loop().run_until_done([&] { return built || !error.empty(); });
  EXPECT_TRUE(built) << error;
}

TEST_F(CircuitFixture, StreamCarriesDataBothWays) {
  auto client = scenario->make_tor_client(scenario->client_host());
  std::optional<TorCircuit> circ;
  client->build_circuit({}, [&](std::optional<TorCircuit> c, std::string) {
    circ = std::move(c);
  });
  scenario->loop().run_until_done([&] { return circ.has_value(); });
  ASSERT_TRUE(circ);

  const auto& site = scenario->tranco().sites()[0];
  std::shared_ptr<TorStream> stream;
  std::string err;
  client->open_stream(*circ, site.hostname + ":80",
                      [&](std::shared_ptr<TorStream> s, std::string e) {
                        stream = std::move(s);
                        err = e;
                      });
  scenario->loop().run_until_done([&] { return stream || !err.empty(); });
  ASSERT_TRUE(stream) << err;

  // Speak HTTP through the raw stream.
  net::http::Request req;
  req.target = "/";
  req.host = site.hostname;
  std::size_t received = 0;
  stream->set_receiver([&](util::Buf data) { received += data.size(); });
  stream->send(net::http::encode_request(req));
  scenario->loop().run_until_done(
      [&] { return received > site.default_page_bytes; });
  EXPECT_GT(received, site.default_page_bytes);  // header + body
}

TEST_F(CircuitFixture, StreamToUnknownHostFails) {
  auto client = scenario->make_tor_client(scenario->client_host());
  std::optional<TorCircuit> circ;
  client->build_circuit({}, [&](std::optional<TorCircuit> c, std::string) {
    circ = std::move(c);
  });
  scenario->loop().run_until_done([&] { return circ.has_value(); });
  ASSERT_TRUE(circ);

  std::string err;
  bool called = false;
  client->open_stream(*circ, "no-such-host.example:80",
                      [&](std::shared_ptr<TorStream> s, std::string e) {
                        called = true;
                        err = e;
                        EXPECT_FALSE(s);
                      });
  scenario->loop().run_until_done([&] { return called; });
  EXPECT_NE(err.find("refused"), std::string::npos);
}

TEST_F(CircuitFixture, CloseKillsCircuitAndNotifies) {
  auto client = scenario->make_tor_client(scenario->client_host());
  std::optional<TorCircuit> circ;
  client->build_circuit({}, [&](std::optional<TorCircuit> c, std::string) {
    circ = std::move(c);
  });
  scenario->loop().run_until_done([&] { return circ.has_value(); });
  ASSERT_TRUE(circ);

  bool death = false;
  circ->on_death([&] { death = true; });
  circ->close();
  EXPECT_FALSE(circ->alive());
  EXPECT_TRUE(death);
}

TEST_F(CircuitFixture, RealDhModeBuildsCircuit) {
  ScenarioConfig real_cfg;
  real_cfg.seed = 78;
  real_cfg.tranco_sites = 1;
  real_cfg.cbl_sites = 0;
  real_cfg.consensus.n_relays = 40;
  real_cfg.consensus.handshake_mode = HandshakeMode::kRealDh;
  Scenario real_scenario(real_cfg);

  auto client = real_scenario.make_tor_client(real_scenario.client_host());
  bool built = false;
  std::string error = "";
  bool done = false;
  client->build_circuit({}, [&](std::optional<TorCircuit> c, std::string e) {
    built = c.has_value();
    error = e;
    done = true;
  });
  real_scenario.loop().run_until_done([&] { return done; });
  EXPECT_TRUE(built) << error;
}

}  // namespace
}  // namespace ptperf::tor
