#include "layers.h"

#include <algorithm>
#include <array>
#include <memory>
#include <vector>

#include "crypto/aead.h"
#include "crypto/chacha20.h"
#include "crypto/poly1305.h"
#include "crypto/sha256.h"
#include "crypto/x25519.h"
#include "sim/event_loop.h"
#include "sim/rng.h"
#include "tor/cell.h"
#include "tor/ntor.h"
#include "tor/onion.h"
#include "util/buf.h"

namespace campaign_bench {

using namespace ptperf;

namespace {

std::vector<const workload::Website*> shard_sites(const ShardSpec& spec,
                                                  Scenario& scenario,
                                                  const SiteSelection& sel) {
  auto sites =
      Campaign::merge(Campaign::take_sites(scenario.tranco(), sel.tranco),
                      Campaign::take_sites(scenario.cbl(), sel.cbl));
  std::size_t end = std::min(spec.item_end, sites.size());
  std::size_t begin = std::min(spec.item_begin, end);
  return {sites.begin() + static_cast<std::ptrdiff_t>(begin),
          sites.begin() + static_cast<std::ptrdiff_t>(end)};
}

std::vector<std::size_t> shard_sizes(const ShardSpec& spec,
                                     const std::vector<std::size_t>& sizes) {
  std::size_t end = std::min(spec.item_end, sizes.size());
  std::size_t begin = std::min(spec.item_begin, end);
  return {sizes.begin() + static_cast<std::ptrdiff_t>(begin),
          sizes.begin() + static_cast<std::ptrdiff_t>(end)};
}

template <typename Sample>
void add_all(Tally& tally, const std::vector<Sample>& xs) {
  for (const Sample& s : xs) tally.add(s);
}

// Keeps timed results observable so no call is dropped as dead code.
volatile std::uint64_t g_sink = 0;

/// Median nanoseconds per operation over seven batches of `body`, each
/// call doing `ops` operations and each batch lasting about 10 ms.
template <typename Body>
double ns_per_op(Body&& body, double ops) {
  for (int i = 0; i < 3; ++i) body();
  std::size_t calls = 1;
  for (;;) {
    double t0 = now_s();
    for (std::size_t i = 0; i < calls; ++i) body();
    if (now_s() - t0 > 0.01) break;
    calls *= 2;
  }
  std::vector<double> per_op;
  for (int b = 0; b < 7; ++b) {
    double t0 = now_s();
    for (std::size_t i = 0; i < calls; ++i) body();
    per_op.push_back((now_s() - t0) * 1e9 /
                     (static_cast<double>(calls) * ops));
  }
  std::nth_element(per_op.begin(), per_op.begin() + 3, per_op.end());
  return per_op[3];
}

tor::CircuitKeys circuit_keys(sim::Rng& rng) {
  tor::CircuitKeys k;
  k.forward_key = rng.bytes(32);
  k.backward_key = rng.bytes(32);
  k.forward_nonce = rng.bytes(12);
  k.backward_nonce = rng.bytes(12);
  k.digest_seed = rng.bytes(16);
  return k;
}

/// One shard's world, destroyed in reverse order of construction.
struct ShardWorld {
  std::unique_ptr<Scenario> scenario;
  std::unique_ptr<TransportFactory> factory;
  PtStack stack;
};

/// Builds a shard's world and PT stack with the engine's calls in the
/// engine's order (ShardedCampaign::run_plan, tracing off). When `phases`
/// is set, each phase's wall time is added to it.
ShardWorld build_shard(const ShardedCampaignConfig& cfg, const ShardSpec& spec,
                       ReplayResult* phases) {
  auto lap = [phases, t = now_s()](double ReplayResult::*field) mutable {
    double now = now_s();
    if (phases) phases->*field += now - t;
    t = now;
  };
  ShardWorld w;
  ScenarioConfig sc = cfg.scenario;
  if (sc.corpus_seed == 0) sc.corpus_seed = cfg.scenario.seed;
  sc.seed = spec.seed;
  w.scenario = std::make_unique<Scenario>(sc);
  lap(&ReplayResult::scenario_s);
  if (cfg.configure_scenario) cfg.configure_scenario(*w.scenario);
  lap(&ReplayResult::configure_s);
  w.factory = std::make_unique<TransportFactory>(*w.scenario, cfg.factory);
  w.stack = spec.pt ? w.factory->create(*spec.pt) : w.factory->create_vanilla();
  lap(&ReplayResult::factory_s);
  if (cfg.configure_stack) cfg.configure_stack(*w.scenario, w.stack);
  lap(&ReplayResult::configure_s);
  return w;
}

}  // namespace

ReplayResult replay(const Workload& w, std::uint64_t seed) {
  const EnsembleCampaignConfig ecfg = campaign_config(w, seed, 0);
  const ShardedCampaignConfig& cfg = ecfg.base;
  ReplayResult out;
  util::BufPool& pool = util::local_pool();
  const ShardPlan plan = shard_plan(w, seed);
  for (const ShardSpec& spec : plan.shards()) {
    const std::uint64_t leases0 = pool.total_acquired();
    const std::uint64_t fallbacks0 = pool.fallbacks();

    double t = now_s();
    std::uint64_t s = shard_seed(seed, spec.pt_name, spec.chunk_index);
    out.seed_s += now_s() - t;
    if (s != spec.seed) out.seeds_match = false;

    ShardWorld world = build_shard(cfg, spec, &out);
    Scenario& scenario = *world.scenario;
    PtStack& stack = world.stack;
    Campaign campaign(scenario, cfg.campaign);
    const std::size_t events0 = scenario.loop().events_executed();
    t = now_s();
    switch (w.kind) {
      case Kind::kWebsites:
        add_all(out.tally, campaign.run_website_curl(
                               stack, shard_sites(spec, scenario, w.sites)));
        break;
      case Kind::kFiles:
        add_all(out.tally, campaign.run_file_downloads(
                               stack, shard_sizes(spec, w.sizes)));
        break;
      case Kind::kReliability: {
        RetryPolicy retry;
        retry.max_retries = w.retries;
        add_all(out.tally,
                campaign.run_reliability(stack, shard_sizes(spec, w.sizes),
                                         retry));
        break;
      }
    }
    out.campaign_s += now_s() - t;

    out.events += scenario.loop().events_executed() - events0;
    out.virtual_s += sim::seconds_since_start(scenario.loop().now());
    out.pool_leases += pool.total_acquired() - leases0;
    out.pool_fallbacks += pool.fallbacks() - fallbacks0;
    out.pool_high_water =
        std::max<std::uint64_t>(out.pool_high_water, pool.high_water());
    if (const pt::layer::LayerStack* layers =
            stack.transport ? stack.transport->layer_stack() : nullptr) {
      const pt::layer::StackAccounting& acct = *layers->accounting();
      out.wire_bytes += acct.wire_bytes;
      out.payload_bytes += acct.payload_bytes;
      out.handshake_rtts += acct.handshake_rtts;
    }
    if (fault::FaultInjector* injector = scenario.fault_injector()) {
      for (int k = 0; k < static_cast<int>(fault::FaultKind::kCount_); ++k)
        out.injected_faults +=
            injector->injected(static_cast<fault::FaultKind>(k));
    }
  }
  return out;
}

double build_worlds(const Workload& w, std::uint64_t seed) {
  const EnsembleCampaignConfig ecfg = campaign_config(w, seed, 0);
  const ShardedCampaignConfig& cfg = ecfg.base;
  const ShardPlan plan = shard_plan(w, seed);
  const double start = now_s();
  for (const ShardSpec& spec : plan.shards()) build_shard(cfg, spec, nullptr);
  return now_s() - start;
}

OpCosts measure_op_costs() {
  OpCosts c;
  sim::Rng rng(20230901);
  constexpr std::size_t kBytes = 4096;  // 64 SHA/ChaCha blocks, 256 Poly
  util::Bytes data = rng.bytes(kBytes);

  c.sha256_ns_per_block = ns_per_op(
      [&] {
        crypto::Sha256 h;
        h.update(data);
        g_sink = g_sink + h.finalize()[0];
      },
      kBytes / crypto::Sha256::kBlockSize);

  crypto::ChaCha20 cipher(rng.bytes(32), rng.bytes(12));
  c.chacha20_ns_per_block = ns_per_op(
      [&] {
        cipher.process(data.data(), data.size());
        g_sink = g_sink + data[0];
      },
      kBytes / 64.0);

  util::Bytes poly_key = rng.bytes(32);
  c.poly1305_ns_per_block = ns_per_op(
      [&] {
        crypto::Poly1305 mac(poly_key);
        mac.update(data);
        g_sink = g_sink + mac.finalize()[0];
      },
      kBytes / 16.0);

  // One Tor cell sealed into and opened from a PT record, in place.
  crypto::ChaCha20Poly1305 aead(rng.bytes(32));
  util::Bytes record(tor::kCellSize + crypto::ChaCha20Poly1305::kTagSize);
  std::uint64_t seq = 0;
  c.aead_ns_per_cell = ns_per_op(
      [&] {
        auto nonce = crypto::counter_nonce_arr(seq++);
        util::BytesView nv(nonce.data(), nonce.size());
        aead.seal_in_place(nv, record, tor::kCellSize);
        g_sink = g_sink + aead.open_in_place(nv, record).value_or(0);
      },
      1);

  crypto::X25519Key scalar{};
  rng.fill_bytes(scalar.data(), scalar.size());
  scalar = crypto::x25519_clamp(scalar);
  crypto::X25519Key point = crypto::x25519_base(scalar);
  c.x25519_us = ns_per_op(
                    [&] {
                      point = crypto::x25519(scalar, point);
                      g_sink = g_sink + point[0];
                    },
                    1) /
                1e3;

  // The rolling relay digest: the sender commits, the receiver (same keys)
  // checks, so both hashes advance in step on every call.
  tor::CircuitKeys keys = circuit_keys(rng);
  tor::RelayLayer sender(keys), receiver(keys);
  util::Bytes payload = rng.bytes(tor::kCellPayloadSize);
  std::fill_n(payload.begin() + tor::kRelayDigestOffset, 4, 0);
  c.digest_ns_per_cell = ns_per_op(
      [&] {
        std::uint32_t d = sender.commit_forward_digest(payload);
        g_sink = g_sink + receiver.check_forward_digest(payload, d);
      },
      1);

  c.onion_ns_per_cell = ns_per_op(
      [&] {
        sender.process_forward(payload);
        g_sink = g_sink + payload[0];
      },
      1);

  std::array<std::uint8_t, tor::kCellSize> wire{};
  util::Bytes body = rng.bytes(tor::kRelayDataMax);
  c.cell_codec_ns = ns_per_op(
      [&] {
        std::span<std::uint8_t> w(wire);
        tor::encode_relay_cell_into(w.subspan(tor::kCellHeaderSize),
                                    tor::RelayCommand::kData, 7, 0, body);
        tor::patch_circ_id(w, 99);
        w[4] = static_cast<std::uint8_t>(tor::CellCommand::kRelay);
        auto cell = tor::parse_cell(util::BytesView(wire.data(), wire.size()));
        auto relay = tor::parse_relay_cell(cell->payload);
        g_sink = g_sink + relay->data.size();
      },
      1);

  // The campaigns' consensus handshake mode (kFastSim by default).
  const tor::HandshakeMode mode = tor::ConsensusParams{}.handshake_mode;
  tor::RelayIdentity identity;
  crypto::X25519Key onion_private = crypto::x25519_clamp(scalar);
  identity.onion_public = crypto::x25519_base(onion_private);
  c.ntor_us = ns_per_op(
                  [&] {
                    tor::NtorClientState st = tor::ntor_client_start(rng, mode);
                    auto reply = tor::ntor_server_respond(
                        tor::ntor_client_message(st), identity, onion_private,
                        rng, mode);
                    auto k = tor::ntor_client_finish(st, identity,
                                                     reply->reply);
                    g_sink = g_sink + k->forward_key[0];
                  },
                  1) /
              1e3;

  constexpr int kEvents = 256;
  sim::EventLoop loop;
  std::uint64_t fired = 0;
  c.event_ns = ns_per_op(
      [&] {
        for (int i = 0; i < kEvents; ++i)
          loop.schedule_at(loop.now() + sim::Duration(i % 16),
                           [&fired] { ++fired; });
        while (loop.step()) {
        }
      },
      kEvents);
  std::vector<sim::EventHandle> handles(kEvents);
  c.event_cancel_ns = ns_per_op(
      [&] {
        for (int i = 0; i < kEvents; ++i)
          handles[i] = loop.schedule_at(loop.now() + sim::Duration(i % 16),
                                        [&fired] { ++fired; });
        for (int i = 0; i < kEvents; i += 2) handles[i].cancel();
        while (loop.step()) {
        }
      },
      kEvents);
  g_sink = g_sink + fired;
  return c;
}

}  // namespace campaign_bench
