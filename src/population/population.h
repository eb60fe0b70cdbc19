// Fleet-scale population engine: deterministic per-cohort session arrivals
// on the sim's virtual clock. Each cohort (a country x access-class user
// fleet) draws Poisson arrivals whose rate carries diurnal modulation, a
// per-country adoption weight, and censorship-event surge episodes;
// session departures are binomial thinning of the active count. Every
// cohort samples from its own Rng::fork("population/<name>") stream, so a
// cohort's trajectory depends only on (seed, name), and cohorts merge with
// plain u64 addition in any order (docs/POPULATION.md).
//
// The emergent active-session trajectory drives ContendedResources
// (net/resource.h) through the contention curves in contention.h; fig10
// and fig12 are anchored on it instead of hand-set load constants.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/rng.h"

namespace ptperf::population {

/// One user fleet: a country x access-class slice of the PT population.
struct Cohort {
  /// RNG namespace: the cohort's stream is fork("population/<name>").
  std::string name;
  std::string country;
  /// Per-country adoption weight scaling the base arrival rate.
  double adoption_weight = 1.0;
  /// Session arrivals per hour at adoption weight 1.0 (pre-surge mean;
  /// the diurnal factor integrates to 1 over whole days).
  double arrivals_per_hour = 1000.0;
  /// Mean session duration (exponential); stationary active count is
  /// arrivals_per_hour * mean_session_minutes / 60 (M/M/inf).
  double mean_session_minutes = 20.0;
  /// Diurnal modulation depth in [0, 1): rate factor is
  /// 1 + amplitude * cos(2*pi * (t - peak_hour_utc) / 24).
  double diurnal_amplitude = 0.4;
  /// Local-evening usage peak mapped to UTC hours.
  double peak_hour_utc = 20.0;
  /// Whether censorship-event surge episodes multiply this cohort's rate.
  bool surge_affected = false;
};

/// A censorship event: affected cohorts' arrival rate ramps linearly from
/// 1x at start_hour to peak_multiplier over ramp_hours, then holds (the
/// paper's §5.3 observation: the load never recovered).
struct SurgeEpisode {
  double start_hour = 0.0;
  double ramp_hours = 24.0;
  double peak_multiplier = 8.0;
};

struct PopulationConfig {
  /// Base seed of the fleet; fig10 and fig12 set it to --seed so the
  /// population rides the same seed tree as the measured worlds.
  std::uint64_t seed = 1;
  double horizon_hours = 24.0 * 7;
  double step_minutes = 60.0;
  std::vector<Cohort> cohorts;
  std::vector<SurgeEpisode> surges;

  std::size_t steps() const;
};

/// One cohort's sampled series, one entry per step.
struct CohortTrajectory {
  std::string cohort;
  std::vector<std::uint64_t> arrivals;
  std::vector<std::uint64_t> active;  // at end of step
};

/// The fleet-wide series: element-wise u64 sums over cohorts. Integer
/// addition is associative and commutative, so the merge is exactly
/// order-invariant.
struct Trajectory {
  double step_minutes = 60.0;
  std::vector<std::uint64_t> arrivals;
  std::vector<std::uint64_t> active;

  std::size_t steps() const { return active.size(); }
  double hours_at(std::size_t step) const {
    return static_cast<double>(step) * step_minutes / 60.0;
  }
  /// Mean active sessions over steps whose start time lies in [h0, h1).
  double mean_active(double h0, double h1) const;
};

class PopulationModel {
 public:
  explicit PopulationModel(PopulationConfig config);

  const PopulationConfig& config() const { return cfg_; }
  std::size_t cohort_count() const { return cfg_.cohorts.size(); }

  /// The deterministic forcing function: expected arrivals/hour of `c` at
  /// time t (adoption weight x diurnal factor x surge multiplier). No RNG
  /// — fig10a's timeline and the phase/onset tests read this directly.
  double rate_per_hour(const Cohort& c, double t_hours) const;

  /// Product of all surge-episode multipliers at t (1 before onset).
  double surge_multiplier(double t_hours) const;

  /// Samples one cohort's trajectory from its private stream. Pure
  /// function of (seed, config, index).
  CohortTrajectory simulate_cohort(std::size_t index) const;

  /// All cohorts in index order, merged. Equal to merging
  /// simulate_cohort(i) results in any order.
  Trajectory simulate() const;

  static Trajectory merge(const PopulationConfig& cfg,
                          const std::vector<CohortTrajectory>& cohorts);

 private:
  PopulationConfig cfg_;
};

namespace detail {

/// Deterministic Poisson sampler on sim::Rng: exact (Knuth) below
/// lambda = 64, normal approximation above — at that scale the relative
/// CV of the approximation error is < 1/sqrt(64) of the draw's own noise.
std::uint64_t poisson(sim::Rng& rng, double lambda);

/// Deterministic Binomial(n, p): exact Bernoulli counting for n <= 64,
/// normal approximation when the variance supports it, Poisson thinning
/// for the large-n / tiny-p corner.
std::uint64_t binomial(sim::Rng& rng, std::uint64_t n, double p);

}  // namespace detail

}  // namespace ptperf::population
