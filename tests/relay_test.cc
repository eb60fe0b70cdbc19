// Relay-internal edge cases: garbage on the link, unknown circuits,
// destroy propagation, multiple circuits per link, and the PT
// accept_channel path (a tunnel handing a deobfuscated link to a bridge).
#include <gtest/gtest.h>

#include "ptperf/scenario.h"
#include "tor/cell.h"
#include "tor/ntor.h"
#include "util/buf.h"

namespace ptperf::tor {
namespace {

/// A wire cell in a pooled buffer, encoded the way the client sends one.
util::Buf wire_cell(CircId id, CellCommand command, util::BytesView payload) {
  util::Buf wire = util::local_pool().acquire(kCellSize);
  EXPECT_TRUE(encode_cell_into(wire.span(), id, command, payload));
  return wire;
}

struct RelayFixture : ::testing::Test {
  ScenarioConfig cfg;
  std::unique_ptr<Scenario> scenario;

  void SetUp() override {
    cfg.seed = 2024;
    cfg.tranco_sites = 1;
    cfg.cbl_sites = 0;
    scenario = std::make_unique<Scenario>(cfg);
  }

  net::ChannelPtr dial_relay(RelayIndex idx) {
    net::ChannelPtr out;
    scenario->network().connect(
        scenario->client_host(), scenario->consensus().at(idx).host, "tor",
        [&](net::Pipe pipe) { out = net::wrap_pipe(std::move(pipe)); });
    scenario->loop().run_until_done([&] { return out != nullptr; });
    return out;
  }
};

TEST_F(RelayFixture, IgnoresGarbageOnLink) {
  auto link = dial_relay(0);
  ASSERT_TRUE(link);
  bool closed = false;
  link->set_close_handler([&] { closed = true; });
  link->send(util::to_bytes("not a cell"));
  link->send(util::Bytes(100, 0xFF));
  scenario->loop().run_until(scenario->loop().now() + sim::from_seconds(2));
  // The relay drops garbage without crashing; the link stays usable.
  EXPECT_FALSE(closed);

  // A real CREATE2 still works afterwards.
  sim::Rng rng(1);
  auto st = ntor_client_start(rng, scenario->consensus().handshake_mode);
  bool created = false;
  link->set_receiver([&](util::Buf wire) {
    auto cell = parse_cell(wire);
    if (cell && cell->command == CellCommand::kCreated2) created = true;
  });
  link->send(wire_cell(9, CellCommand::kCreate2, ntor_client_message(st)));
  scenario->loop().run_until_done([&] { return created; });
  EXPECT_TRUE(created);
}

TEST_F(RelayFixture, DropsRelayCellsForUnknownCircuit) {
  auto link = dial_relay(0);
  ASSERT_TRUE(link);
  bool got_anything = false;
  link->set_receiver([&](util::Buf) { got_anything = true; });
  link->send(wire_cell(12345,  // never created
                       CellCommand::kRelay,
                       util::Bytes(kCellPayloadSize, 0x42)));
  scenario->loop().run_until(scenario->loop().now() + sim::from_seconds(2));
  EXPECT_FALSE(got_anything);
}

TEST_F(RelayFixture, MultipleCircuitsPerLink) {
  auto link = dial_relay(0);
  ASSERT_TRUE(link);
  sim::Rng rng(2);
  int created = 0;
  link->set_receiver([&](util::Buf wire) {
    auto cell = parse_cell(wire);
    if (cell && cell->command == CellCommand::kCreated2) ++created;
  });
  for (CircId id : {CircId{1}, CircId{2}, CircId{3}}) {
    auto st = ntor_client_start(rng, scenario->consensus().handshake_mode);
    link->send(wire_cell(id, CellCommand::kCreate2, ntor_client_message(st)));
  }
  scenario->loop().run_until_done([&] { return created == 3; });
  EXPECT_EQ(created, 3);
}

TEST_F(RelayFixture, UnrecognizedCellAtLastHopTearsCircuitDown) {
  // A cell whose digest matches no hop at the end of the circuit is a
  // protocol violation: the relay destroys the circuit and notifies.
  auto link = dial_relay(0);
  ASSERT_TRUE(link);
  sim::Rng rng(3);
  auto st = ntor_client_start(rng, scenario->consensus().handshake_mode);
  std::optional<CircuitKeys> keys;
  bool truncated_or_destroyed = false;
  link->set_receiver([&](util::Buf wire) {
    auto cell = parse_cell(wire);
    if (!cell) return;
    if (cell->command == CellCommand::kCreated2) {
      keys = ntor_client_finish(st, scenario->consensus().identity_of(0),
                                cell->payload.first(48));
      return;
    }
    // Anything after our junk relay cell counts as the teardown signal
    // (TRUNCATED wrapped in the relay's backward layer, or DESTROY).
    truncated_or_destroyed = true;
  });
  link->send(wire_cell(4, CellCommand::kCreate2, ntor_client_message(st)));
  scenario->loop().run_until_done([&] { return keys.has_value(); });
  ASSERT_TRUE(keys);

  link->send(wire_cell(4, CellCommand::kRelay,
                       sim::Rng(9).bytes(kCellPayloadSize)));  // unrecognized
  scenario->loop().run_until_done([&] { return truncated_or_destroyed; });
  EXPECT_TRUE(truncated_or_destroyed);
}

TEST_F(RelayFixture, AcceptChannelServesPtTunnels) {
  // The PT-server integration surface: hand the relay a raw channel (as
  // obfs4's server does after deobfuscation) and run a handshake on it.
  tor::RelayIndex bridge = scenario->add_bridge(net::Region::kFrankfurt);
  auto relay = scenario->relay(bridge);

  // Local pair via a loopback service on the bridge host.
  net::HostId bh = scenario->consensus().at(bridge).host;
  net::ChannelPtr client_end;
  scenario->network().listen(bh, "pt-feed", [&](net::Pipe pipe) {
    relay->accept_channel(net::wrap_pipe(std::move(pipe)));
  });
  scenario->network().connect(
      bh, bh, "pt-feed",
      [&](net::Pipe pipe) { client_end = net::wrap_pipe(std::move(pipe)); });
  scenario->loop().run_until_done([&] { return client_end != nullptr; });
  ASSERT_TRUE(client_end);

  sim::Rng rng(4);
  auto st = ntor_client_start(rng, scenario->consensus().handshake_mode);
  bool created = false;
  client_end->set_receiver([&](util::Buf wire) {
    auto cell = parse_cell(wire);
    if (cell && cell->command == CellCommand::kCreated2) {
      auto keys = ntor_client_finish(
          st, scenario->consensus().identity_of(bridge),
          cell->payload.first(48));
      created = keys.has_value();
    }
  });
  client_end->send(
      wire_cell(7, CellCommand::kCreate2, ntor_client_message(st)));
  scenario->loop().run_until_done([&] { return created; });
  EXPECT_TRUE(created);
}

TEST_F(RelayFixture, RelayDeathMidTransferBreaksStream) {
  // Failure injection: take the middle relay down while a bulk transfer
  // is in flight — the client's stream must end with a partial count.
  auto client = scenario->make_tor_client(scenario->client_host());
  std::optional<TorCircuit> circ;
  client->build_circuit({}, [&](std::optional<TorCircuit> c, std::string) {
    circ = std::move(c);
  });
  scenario->loop().run_until_done([&] { return circ.has_value(); });
  ASSERT_TRUE(circ);

  std::shared_ptr<TorStream> stream;
  client->open_stream(*circ, "files.example:80",
                      [&](std::shared_ptr<TorStream> s, std::string) {
                        stream = std::move(s);
                      });
  scenario->loop().run_until_done([&] { return stream != nullptr; });
  ASSERT_TRUE(stream);

  std::size_t received = 0;
  bool circuit_died = false;
  circ->on_death([&] { circuit_died = true; });
  stream->set_receiver([&](util::Buf data) { received += data.size(); });
  net::http::Request req;
  req.target = "/file5mb";
  req.host = "files.example";
  stream->send(net::http::encode_request(req));

  // Let some data flow, then kill the middle relay.
  scenario->loop().run_until_done([&] { return received > 100'000; });
  ASSERT_GT(received, 100'000u);
  scenario->relay(circ->path().middle)->stop();
  scenario->loop().run_until_done([&] { return circuit_died; }, 10'000'000);

  EXPECT_TRUE(circuit_died);
  EXPECT_FALSE(circ->alive());
  EXPECT_LT(received, 5u << 20);  // the transfer could not complete
}

TEST_F(RelayFixture, CellsRelayedCounterAdvances) {
  auto client = scenario->make_tor_client(scenario->client_host());
  std::optional<TorCircuit> circ;
  client->build_circuit({}, [&](std::optional<TorCircuit> c, std::string) {
    circ = std::move(c);
  });
  scenario->loop().run_until_done([&] { return circ.has_value(); });
  ASSERT_TRUE(circ);

  std::uint64_t relayed = scenario->relay(circ->path().entry)->cells_relayed();
  EXPECT_GT(relayed, 0u);  // the EXTEND traffic passed through the guard
}

}  // namespace
}  // namespace ptperf::tor
