// Geographic model: regions used in the paper's location study plus the
// relay-dense regions (Europe / North America per [13] in the paper), and
// a base round-trip-time matrix between them.
#pragma once

#include <array>
#include <cstdint>

#include "sim/time.h"

namespace ptperf::net {

/// Client/server vantage points from §4.5 plus aggregate relay regions.
enum class Region : std::uint8_t {
  kBangalore,   // client (Asia)
  kSingapore,   // server (Asia)
  kLondon,      // client (Europe)
  kFrankfurt,   // server (Europe)
  kNewYork,     // server (North America)
  kToronto,     // client (North America)
  kEuropeWest,  // relay cluster
  kEuropeEast,  // relay cluster
  kUsEast,      // relay cluster
  kUsWest,      // relay cluster
};

inline constexpr std::size_t kRegionCount = 10;

class Topology {
 public:
  Topology();

  /// Base round-trip time between two regions (no jitter, no queueing).
  sim::Duration base_rtt(Region a, Region b) const;

  /// One-way propagation delay (half the base RTT).
  sim::Duration one_way(Region a, Region b) const {
    return base_rtt(a, b) / 2;
  }

 private:
  // Milliseconds, symmetric.
  std::array<std::array<double, kRegionCount>, kRegionCount> rtt_ms_;
};

}  // namespace ptperf::net
