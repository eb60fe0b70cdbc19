// Population engine tests: sampler statistics (Poisson/binomial on both
// the exact and approximation paths), the deterministic forcing function
// (diurnal phase, surge onset), M/M/inf stationarity of the cohort
// process, and the determinism contract — trajectory replay, cohort-merge
// order invariance, horizon prefix stability — plus the contention
// curves' anchor fidelity and the ContendedResource registration the
// transports perform.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "net/resource.h"
#include "population/contention.h"
#include "population/population.h"
#include "ptperf/scenario.h"
#include "ptperf/transports.h"

namespace ptperf {
namespace {

// ---------------------------------------------------------------- samplers

struct Moments {
  double mean = 0;
  double var = 0;
};

template <typename Draw>
Moments sample_moments(int n, const Draw& draw) {
  std::vector<double> xs;
  xs.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) xs.push_back(static_cast<double>(draw()));
  double sum = 0;
  for (double x : xs) sum += x;
  Moments m;
  m.mean = sum / static_cast<double>(n);
  double ss = 0;
  for (double x : xs) ss += (x - m.mean) * (x - m.mean);
  m.var = ss / static_cast<double>(n - 1);
  return m;
}

TEST(PopulationSamplers, PoissonExactPathMeanAndVariance) {
  sim::Rng rng(42);
  const double lambda = 5.0;  // < 64: Knuth product-of-uniforms path
  Moments m = sample_moments(
      20000, [&] { return population::detail::poisson(rng, lambda); });
  // SE(mean) = sqrt(5/20000) ~= 0.016; 5 sigma bounds.
  EXPECT_NEAR(m.mean, lambda, 0.08);
  EXPECT_NEAR(m.var, lambda, 0.35);
}

TEST(PopulationSamplers, PoissonApproxPathMeanAndVariance) {
  sim::Rng rng(43);
  const double lambda = 400.0;  // >= 64: normal approximation path
  Moments m = sample_moments(
      20000, [&] { return population::detail::poisson(rng, lambda); });
  EXPECT_NEAR(m.mean, lambda, 1.0);
  EXPECT_NEAR(m.var, lambda, 20.0);
}

TEST(PopulationSamplers, PoissonDegenerateRates) {
  sim::Rng rng(44);
  EXPECT_EQ(population::detail::poisson(rng, 0.0), 0u);
  EXPECT_EQ(population::detail::poisson(rng, -3.0), 0u);
}

TEST(PopulationSamplers, BinomialExactPathMeanAndEdgeCases) {
  sim::Rng rng(45);
  const std::uint64_t n = 40;  // <= 64: exact Bernoulli counting
  const double p = 0.3;
  Moments m = sample_moments(
      20000, [&] { return population::detail::binomial(rng, n, p); });
  EXPECT_NEAR(m.mean, 12.0, 0.12);
  EXPECT_NEAR(m.var, 8.4, 0.5);
  EXPECT_EQ(population::detail::binomial(rng, 0, 0.5), 0u);
  EXPECT_EQ(population::detail::binomial(rng, 17, 0.0), 0u);
  EXPECT_EQ(population::detail::binomial(rng, 17, 1.0), 17u);
}

TEST(PopulationSamplers, BinomialApproxPathMeanAndVariance) {
  sim::Rng rng(46);
  const std::uint64_t n = 10000;  // normal-approximation path
  const double p = 0.4;
  Moments m = sample_moments(
      20000, [&] { return population::detail::binomial(rng, n, p); });
  EXPECT_NEAR(m.mean, 4000.0, 2.0);
  EXPECT_NEAR(m.var, 2400.0, 120.0);
  // Draws never exceed n even in the approximation tail.
  for (int i = 0; i < 1000; ++i)
    EXPECT_LE(population::detail::binomial(rng, n, 0.999), n);
}

TEST(PopulationSamplers, BinomialThinningCorner) {
  sim::Rng rng(47);
  // Large n, tiny p: Poisson-thinning path; mean n*p, clamped at n.
  Moments m = sample_moments(20000, [&] {
    return population::detail::binomial(rng, 100000, 1e-4);
  });
  EXPECT_NEAR(m.mean, 10.0, 0.2);
}

// ---------------------------------------------------------------- forcing

population::Cohort test_cohort() {
  population::Cohort c;
  c.name = "t";
  c.arrivals_per_hour = 1000.0;
  c.diurnal_amplitude = 0.4;
  c.peak_hour_utc = 20.0;
  return c;
}

TEST(PopulationForcing, DiurnalPeaksAtPeakHourAndTroughsOpposite) {
  population::PopulationConfig cfg;
  cfg.cohorts = {test_cohort()};
  population::PopulationModel model(cfg);
  const population::Cohort& c = model.config().cohorts[0];
  double at_peak = model.rate_per_hour(c, 20.0);
  double at_trough = model.rate_per_hour(c, 8.0);  // 12 h opposite
  EXPECT_NEAR(at_peak, 1400.0, 1e-9);
  EXPECT_NEAR(at_trough, 600.0, 1e-9);
  // Phase: strictly decreasing moving off the peak.
  EXPECT_GT(at_peak, model.rate_per_hour(c, 23.0));
  EXPECT_GT(model.rate_per_hour(c, 23.0), at_trough);
  // A whole day of the modulation integrates back to the base rate.
  double sum = 0;
  for (int h = 0; h < 24; ++h)
    sum += model.rate_per_hour(c, static_cast<double>(h));
  EXPECT_NEAR(sum / 24.0, 1000.0, 1e-6);
}

TEST(PopulationForcing, SurgeOnsetRampAndHold) {
  population::PopulationConfig cfg;
  population::Cohort c = test_cohort();
  c.diurnal_amplitude = 0.0;
  c.surge_affected = true;
  cfg.cohorts = {c};
  population::SurgeEpisode s;
  s.start_hour = 100.0;
  s.ramp_hours = 24.0;
  s.peak_multiplier = 8.0;
  cfg.surges = {s};
  population::PopulationModel model(cfg);
  EXPECT_NEAR(model.surge_multiplier(0.0), 1.0, 1e-12);
  EXPECT_NEAR(model.surge_multiplier(99.9), 1.0, 1e-12);
  EXPECT_NEAR(model.surge_multiplier(112.0), 4.5, 1e-9);  // mid-ramp
  EXPECT_NEAR(model.surge_multiplier(124.0), 8.0, 1e-12);
  EXPECT_NEAR(model.surge_multiplier(10000.0), 8.0, 1e-12);  // holds
  // Unaffected cohorts never see the surge.
  population::Cohort calm = c;
  calm.surge_affected = false;
  EXPECT_NEAR(model.rate_per_hour(calm, 200.0), 1000.0, 1e-9);
}

// ------------------------------------------------------------ stationarity

TEST(PopulationModel, StationaryActiveMatchesMMInfinity) {
  // M/M/inf: stationary active = lambda * E[session] = 60000/h * (1/3)h.
  population::PopulationConfig cfg;
  cfg.seed = 7;
  cfg.horizon_hours = 120.0;
  population::Cohort c = test_cohort();
  c.arrivals_per_hour = 60000.0;
  c.mean_session_minutes = 20.0;
  c.diurnal_amplitude = 0.0;
  cfg.cohorts = {c};
  population::Trajectory traj =
      population::PopulationModel(cfg).simulate();
  // Warmed-up window only (the process starts empty).
  double mean = traj.mean_active(24.0, 120.0);
  EXPECT_NEAR(mean, 20000.0, 400.0);  // within 2%
}

// ------------------------------------------------------------- determinism

population::PopulationConfig small_fleet(std::uint64_t seed,
                                         double horizon_hours) {
  population::PopulationConfig cfg;
  cfg.seed = seed;
  cfg.horizon_hours = horizon_hours;
  population::Cohort a = test_cohort();
  a.name = "alpha";
  population::Cohort b = test_cohort();
  b.name = "beta";
  b.arrivals_per_hour = 300.0;
  b.surge_affected = true;
  population::Cohort c = test_cohort();
  c.name = "gamma";
  c.arrivals_per_hour = 120000.0;  // exercises the approx sampler paths
  cfg.cohorts = {a, b, c};
  population::SurgeEpisode s;
  s.start_hour = 12.0;
  cfg.surges = {s};
  return cfg;
}

TEST(PopulationDeterminism, ReplayIsByteIdentical) {
  population::PopulationModel model(small_fleet(11, 48.0));
  population::Trajectory t1 = model.simulate();
  population::Trajectory t2 = model.simulate();
  EXPECT_EQ(t1.arrivals, t2.arrivals);
  EXPECT_EQ(t1.active, t2.active);
}

TEST(PopulationDeterminism, CohortMergeIsOrderInvariant) {
  population::PopulationConfig cfg = small_fleet(12, 48.0);
  population::PopulationModel model(cfg);
  std::vector<population::CohortTrajectory> forward, reversed;
  for (std::size_t i = 0; i < model.cohort_count(); ++i)
    forward.push_back(model.simulate_cohort(i));
  for (std::size_t i = model.cohort_count(); i-- > 0;)
    reversed.push_back(model.simulate_cohort(i));
  population::Trajectory a = population::PopulationModel::merge(cfg, forward);
  population::Trajectory b = population::PopulationModel::merge(cfg, reversed);
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.active, b.active);
}

TEST(PopulationDeterminism, SeedAndCohortNameChangeTheStream) {
  population::Trajectory base =
      population::PopulationModel(small_fleet(13, 24.0)).simulate();
  population::Trajectory other_seed =
      population::PopulationModel(small_fleet(14, 24.0)).simulate();
  EXPECT_NE(base.active, other_seed.active);

  population::PopulationConfig renamed = small_fleet(13, 24.0);
  renamed.cohorts[0].name = "alpha2";
  population::PopulationModel m(renamed);
  // Renaming cohort 0 reforks its stream but leaves the others untouched.
  EXPECT_NE(m.simulate_cohort(0).active,
            population::PopulationModel(small_fleet(13, 24.0))
                .simulate_cohort(0)
                .active);
  EXPECT_EQ(m.simulate_cohort(1).active,
            population::PopulationModel(small_fleet(13, 24.0))
                .simulate_cohort(1)
                .active);
}

TEST(PopulationDeterminism, HorizonExtensionPreservesThePrefix) {
  population::Trajectory short_run =
      population::PopulationModel(small_fleet(15, 48.0)).simulate();
  population::Trajectory long_run =
      population::PopulationModel(small_fleet(15, 96.0)).simulate();
  ASSERT_LT(short_run.steps(), long_run.steps());
  for (std::size_t i = 0; i < short_run.steps(); ++i) {
    EXPECT_EQ(short_run.active[i], long_run.active[i]) << "step " << i;
    EXPECT_EQ(short_run.arrivals[i], long_run.arrivals[i]) << "step " << i;
  }
}

// -------------------------------------------------------------- contention

TEST(Contention, CurveHitsBothLegacyAnchorsExactly) {
  pt::SnowflakeConfig cfg;
  pt::SnowflakeLoad pre =
      population::snowflake_load_at(cfg.proxy_load, cfg);
  EXPECT_EQ(pre.proxy_load, cfg.proxy_load);
  EXPECT_EQ(pre.lifetime_mean_s, cfg.proxy_lifetime_mean_s);
  EXPECT_EQ(pre.match_mean_s, cfg.broker_match_mean_s);
  pt::SnowflakeLoad post =
      population::snowflake_load_at(cfg.overload_proxy_load, cfg);
  EXPECT_EQ(post.proxy_load, cfg.overload_proxy_load);
  EXPECT_EQ(post.lifetime_mean_s, cfg.overload_lifetime_mean_s);
  EXPECT_EQ(post.match_mean_s, cfg.overload_broker_match_mean_s);
}

TEST(Contention, CurveIsMonotoneBetweenAndBeyondTheAnchors) {
  pt::SnowflakeConfig cfg;
  double prev_lifetime = 1e9, prev_match = 0;
  for (double u = 0.05; u < 0.95; u += 0.05) {
    pt::SnowflakeLoad load = population::snowflake_load_at(u, cfg);
    EXPECT_LT(load.lifetime_mean_s, prev_lifetime) << "u=" << u;
    EXPECT_GT(load.match_mean_s, prev_match) << "u=" << u;
    prev_lifetime = load.lifetime_mean_s;
    prev_match = load.match_mean_s;
  }
}

TEST(Contention, SaturationCurveReproducesThePaperOperatingPoints) {
  population::IranSurge surge = population::iran_surge(12);
  // The cohort mix's stationary demand: ~0.9M active pre-surge, ~8x post.
  double u_pre = surge.utilization_at(0.9e6);
  double u_post = surge.utilization_at(7.2e6);
  EXPECT_NEAR(u_pre, 0.25, 0.01);
  EXPECT_NEAR(u_post, 0.88, 0.01);
}

TEST(Contention, UtilizationForIsSaturatingAndClamped) {
  net::ContendedResourceSpec spec;
  spec.capacity_sessions = 3.0e6;
  spec.max_utilization = 0.97;
  EXPECT_EQ(net::ContendedResource::utilization_for(0.0, spec), 0.0);
  double lo = net::ContendedResource::utilization_for(1e6, spec);
  double hi = net::ContendedResource::utilization_for(1e7, spec);
  EXPECT_GT(hi, lo);
  EXPECT_LE(hi, 0.97);
  EXPECT_LE(net::ContendedResource::utilization_for(1e12, spec), 0.97);
}

// ------------------------------------------------- transport integration

TEST(ContendedResources, SnowflakeRegistersPoolsAndAnchorsApplyExactly) {
  ScenarioConfig cfg;
  cfg.seed = 3;
  cfg.tranco_sites = 2;
  cfg.cbl_sites = 0;
  Scenario scenario(cfg);
  TransportFactory factory(scenario);
  PtStack stack = factory.create(PtId::kSnowflake);
  ASSERT_NE(stack.snowflake, nullptr);

  net::ContendedResource* pool = stack.snowflake->proxy_pool();
  ASSERT_NE(pool, nullptr);
  EXPECT_NE(stack.snowflake->broker_pool(), nullptr);
  // The registry finds them under the factory's tag-unique names.
  EXPECT_EQ(scenario.network().find_resource(pool->spec().name), pool);

  // The legacy regime switch routes through the pool and applies the
  // anchor constants bit-exactly (the pre-population byte-identity
  // contract).
  stack.snowflake->set_overloaded(true);
  EXPECT_EQ(pool->utilization(), 0.88);
  stack.snowflake->set_overloaded(false);
  EXPECT_EQ(pool->utilization(), 0.25);

  // population::apply_regime is the sanctioned bench-facing spelling.
  population::apply_regime(*stack.snowflake, true);
  EXPECT_TRUE(stack.snowflake->overloaded());
  EXPECT_EQ(pool->utilization(), 0.88);

  // apply_snowflake at an off-anchor utilization lands between the eras.
  population::apply_snowflake(*stack.snowflake, 0.6);
  EXPECT_EQ(pool->utilization(), 0.6);
}

TEST(ContendedResources, MeekAndBridgesRegisterResources) {
  ScenarioConfig cfg;
  cfg.seed = 3;
  cfg.tranco_sites = 2;
  cfg.cbl_sites = 0;
  Scenario scenario(cfg);
  TransportFactory factory(scenario);
  factory.create(PtId::kMeek);
  const auto& resources = scenario.network().resources();
  bool has_cdn = false, has_bridge = false;
  for (const auto& r : resources) {
    if (r->spec().name.find("/cdn") != std::string::npos) has_cdn = true;
    if (r->spec().name.rfind("bridge/", 0) == 0) has_bridge = true;
  }
  EXPECT_TRUE(has_cdn);
  EXPECT_TRUE(has_bridge);  // meek's bridge relay registered its pool
}

}  // namespace
}  // namespace ptperf
