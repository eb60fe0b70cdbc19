// Bandwidth-weighted path selection with guard persistence — Tor's
// behaviour that makes the first hop "sticky" for a client while middle
// and exit vary per circuit (the paper's Fig 4 experiment hinges on this).
#pragma once

#include <optional>
#include <vector>

#include "sim/rng.h"
#include "tor/directory.h"

namespace ptperf::tor {

struct PathConstraints {
  /// Force a specific entry (bridge / pinned guard). Overrides selection.
  std::optional<RelayIndex> entry;
  std::optional<RelayIndex> middle;
  std::optional<RelayIndex> exit;
};

struct Path {
  RelayIndex entry = 0;
  RelayIndex middle = 0;
  RelayIndex exit = 0;

  std::vector<RelayIndex> hops() const { return {entry, middle, exit}; }
};

class PathSelector {
 public:
  PathSelector(const Consensus& consensus, sim::Rng rng);

  /// Chooses (and on first use persists) the guard, then samples middle
  /// and exit bandwidth-weighted with the usual distinctness rules.
  Path select(const PathConstraints& constraints = {});

  /// Forgets the persisted guard (Tor's "new identity" semantics).
  void reset_guard() { guard_.reset(); }

 private:
  RelayIndex weighted_pick(RelayFlags required_flag,
                           const std::vector<RelayIndex>& exclude);

  const Consensus* consensus_;
  sim::Rng rng_;
  std::optional<RelayIndex> guard_;
};

}  // namespace ptperf::tor
