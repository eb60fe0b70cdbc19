// Per-layer measurements, all taken from outside the simulator: a replay
// of each shard on the calling thread through the engine's public calls,
// and per-operation costs of the crypto, cell, event-loop and buffer-pool
// primitives at the sizes the campaigns use.
#pragma once

#include <cstdint>

#include "workloads.h"

namespace campaign_bench {

struct ReplayResult {
  Tally tally;
  // Summed wall seconds per engine phase, in the engine's order.
  double seed_s = 0;       // shard_seed
  double scenario_s = 0;   // Scenario construction
  double configure_s = 0;  // configure_scenario + configure_stack hooks
  double factory_s = 0;    // TransportFactory + create / create_vanilla
  double campaign_s = 0;   // Campaign::run_*
  std::uint64_t events = 0;
  double virtual_s = 0;
  std::uint64_t pool_leases = 0;
  std::uint64_t pool_fallbacks = 0;
  std::uint64_t pool_high_water = 0;
  std::int64_t wire_bytes = 0;
  std::int64_t payload_bytes = 0;
  std::int64_t handshake_rtts = 0;
  std::uint64_t injected_faults = 0;
  bool seeds_match = true;  // shard_seed agreed with the plan for every shard
};

/// Replays every shard of the workload's plan at `seed`, one after another
/// on the calling thread, with tracing off.
ReplayResult replay(const Workload& w, std::uint64_t seed);

/// Wall seconds to construct every world and PT stack of the plan once
/// (Scenario, configure hooks, TransportFactory), as the engine does.
double build_worlds(const Workload& w, std::uint64_t seed);

/// Per-operation costs, each the median of several timed batches.
struct OpCosts {
  double sha256_ns_per_block = 0;
  double chacha20_ns_per_block = 0;
  double poly1305_ns_per_block = 0;
  double aead_ns_per_cell = 0;   // seal_in_place + open_in_place, one cell
  double x25519_us = 0;
  double digest_ns_per_cell = 0; // RelayLayer commit + check, 509 bytes
  double onion_ns_per_cell = 0;  // one RelayLayer crypt, 509 bytes
  double cell_codec_ns = 0;      // relay cell encode + parse, one cell
  double ntor_us = 0;            // one client/server ntor exchange
  double event_ns = 0;           // schedule_at + step
  double event_cancel_ns = 0;    // schedule_at + cancel half + drain
};

OpCosts measure_op_costs();

}  // namespace campaign_bench
