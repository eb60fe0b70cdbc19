#include "net/topology.h"

namespace ptperf::net {
namespace {

constexpr std::size_t idx(Region r) { return static_cast<std::size_t>(r); }

}  // namespace

Topology::Topology() {
  // Representative inter-region RTTs (ms), informed by public cloud latency
  // matrices. Symmetric; diagonal is intra-region.
  auto& m = rtt_ms_;
  auto set = [&m](Region a, Region b, double ms) {
    m[idx(a)][idx(b)] = ms;
    m[idx(b)][idx(a)] = ms;
  };
  // Intra-region.
  for (std::size_t i = 0; i < kRegionCount; ++i) m[i][i] = 2.0;

  using R = Region;
  set(R::kBangalore, R::kSingapore, 35);
  set(R::kBangalore, R::kLondon, 150);
  set(R::kBangalore, R::kFrankfurt, 140);
  set(R::kBangalore, R::kNewYork, 210);
  set(R::kBangalore, R::kToronto, 220);
  set(R::kBangalore, R::kEuropeWest, 148);
  set(R::kBangalore, R::kEuropeEast, 130);
  set(R::kBangalore, R::kUsEast, 212);
  set(R::kBangalore, R::kUsWest, 240);

  set(R::kSingapore, R::kLondon, 175);
  set(R::kSingapore, R::kFrankfurt, 165);
  set(R::kSingapore, R::kNewYork, 230);
  set(R::kSingapore, R::kToronto, 225);
  set(R::kSingapore, R::kEuropeWest, 172);
  set(R::kSingapore, R::kEuropeEast, 160);
  set(R::kSingapore, R::kUsEast, 228);
  set(R::kSingapore, R::kUsWest, 170);

  set(R::kLondon, R::kFrankfurt, 15);
  set(R::kLondon, R::kNewYork, 75);
  set(R::kLondon, R::kToronto, 90);
  set(R::kLondon, R::kEuropeWest, 12);
  set(R::kLondon, R::kEuropeEast, 35);
  set(R::kLondon, R::kUsEast, 78);
  set(R::kLondon, R::kUsWest, 140);

  set(R::kFrankfurt, R::kNewYork, 85);
  set(R::kFrankfurt, R::kToronto, 100);
  set(R::kFrankfurt, R::kEuropeWest, 12);
  set(R::kFrankfurt, R::kEuropeEast, 22);
  set(R::kFrankfurt, R::kUsEast, 88);
  set(R::kFrankfurt, R::kUsWest, 150);

  set(R::kNewYork, R::kToronto, 18);
  set(R::kNewYork, R::kEuropeWest, 80);
  set(R::kNewYork, R::kEuropeEast, 105);
  set(R::kNewYork, R::kUsEast, 8);
  set(R::kNewYork, R::kUsWest, 65);

  set(R::kToronto, R::kEuropeWest, 95);
  set(R::kToronto, R::kEuropeEast, 118);
  set(R::kToronto, R::kUsEast, 20);
  set(R::kToronto, R::kUsWest, 60);

  set(R::kEuropeWest, R::kEuropeEast, 28);
  set(R::kEuropeWest, R::kUsEast, 82);
  set(R::kEuropeWest, R::kUsWest, 145);

  set(R::kEuropeEast, R::kUsEast, 110);
  set(R::kEuropeEast, R::kUsWest, 165);

  set(R::kUsEast, R::kUsWest, 62);
}

sim::Duration Topology::base_rtt(Region a, Region b) const {
  return sim::from_millis(rtt_ms_[idx(a)][idx(b)]);
}

}  // namespace ptperf::net
