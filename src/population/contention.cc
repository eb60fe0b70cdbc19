#include "population/contention.h"

#include <algorithm>
#include <cmath>

namespace ptperf::population {

pt::SnowflakeLoad snowflake_load_at(double utilization,
                                    const pt::SnowflakeConfig& cfg) {
  double u0 = cfg.proxy_load;
  double u1 = cfg.overload_proxy_load;
  double span = u1 - u0;
  pt::SnowflakeLoad load;
  load.proxy_load = std::clamp(utilization, 0.0, 0.97);
  if (std::abs(span) < 1e-12) {
    // Degenerate anchors: nothing to interpolate through.
    load.lifetime_mean_s = cfg.proxy_lifetime_mean_s;
    load.match_mean_s = cfg.broker_match_mean_s;
    return load;
  }
  double du = utilization - u0;
  if (du == 0.0) {
    // Exactly the normal-era anchor: return the constants verbatim so the
    // pre-population byte-identity contract survives exp/log round-trips.
    load.lifetime_mean_s = cfg.proxy_lifetime_mean_s;
    load.match_mean_s = cfg.broker_match_mean_s;
    return load;
  }
  if (du == span) {
    load.lifetime_mean_s = cfg.overload_lifetime_mean_s;
    load.match_mean_s = cfg.overload_broker_match_mean_s;
    return load;
  }
  double k_lifetime =
      std::log(cfg.proxy_lifetime_mean_s / cfg.overload_lifetime_mean_s) /
      span;
  double k_match =
      std::log(cfg.overload_broker_match_mean_s / cfg.broker_match_mean_s) /
      span;
  load.lifetime_mean_s = cfg.proxy_lifetime_mean_s * std::exp(-k_lifetime * du);
  load.match_mean_s = cfg.broker_match_mean_s * std::exp(k_match * du);
  // Keep the curves physical well past the calibrated range.
  load.lifetime_mean_s = std::max(load.lifetime_mean_s, 1.0);
  load.match_mean_s = std::max(load.match_mean_s, 1e-3);
  return load;
}

void apply_snowflake(pt::SnowflakeTransport& sf, double utilization) {
  sf.apply_load(snowflake_load_at(utilization, sf.config()));
}

void apply_regime(pt::SnowflakeTransport& sf, bool overloaded) {
  sf.set_overloaded(overloaded);
}

IranSurge iran_surge(int horizon_weeks) {
  IranSurge s;
  s.weeks = horizon_weeks;
  s.surge_week = 9;
  s.pop.horizon_hours = 24.0 * 7 * horizon_weeks;
  s.pop.step_minutes = 60.0;

  // Five country x access-class fleets. Stationary active sessions are
  // arrivals/h * mean_session_h; the mix totals ~0.9M active pre-surge
  // (u ~= 0.25 through the saturation curve) and the 12.8x surge on the
  // Iranian cohorts lifts the total ~8x (u ~= 0.88) — the paper's §5.3
  // operating points emerge from demand rather than being hand-set.
  // Built in place: copying a cohort and reassigning its strings draws
  // false -Wrestrict/-Wmaybe-uninitialized reports from GCC 12 at -O3.
  s.pop.cohorts = {
      {.name = "ir-mobile",
       .country = "IR",
       .adoption_weight = 1.0,
       .arrivals_per_hour = 950.0e3,
       .mean_session_minutes = 20.0,
       .diurnal_amplitude = 0.45,
       .peak_hour_utc = 17.0,  // evening IRST
       .surge_affected = true},
      {.name = "ir-broadband",
       .country = "IR",
       .adoption_weight = 1.0,
       .arrivals_per_hour = 650.0e3,
       .mean_session_minutes = 20.0,
       .diurnal_amplitude = 0.35,
       .peak_hour_utc = 17.0,
       .surge_affected = true},
      {.name = "global-web",
       .country = "*",
       .arrivals_per_hour = 500.0e3,
       .mean_session_minutes = 20.0,
       .diurnal_amplitude = 0.15,  // phase-smeared across timezones
       .peak_hour_utc = 20.0},
      {.name = "cn-mobile",
       .country = "CN",
       .arrivals_per_hour = 350.0e3,
       .mean_session_minutes = 20.0,
       .diurnal_amplitude = 0.5,
       .peak_hour_utc = 13.0},  // evening CST
      {.name = "ru-broadband",
       .country = "RU",
       .arrivals_per_hour = 250.0e3,
       .mean_session_minutes = 20.0,
       .diurnal_amplitude = 0.4,
       .peak_hour_utc = 16.0},
  };

  // Mahsa Amini protest onset at the start of surge_week; 24 h mobilization
  // ramp, then sustained (the load never recovered within the paper's
  // window). 12.8x on the Iranian cohorts scales the total fleet ~8x.
  SurgeEpisode surge;
  surge.start_hour = 24.0 * 7 * (s.surge_week - 1);
  surge.ramp_hours = 24.0;
  surge.peak_multiplier = 12.8;
  s.pop.surges = {surge};
  return s;
}

std::vector<WeekSummary> weekly_view(const IranSurge& surge,
                                     const Trajectory& traj,
                                     const pt::SnowflakeConfig& cfg) {
  std::vector<WeekSummary> weeks;
  double week1_mean = 0.0;
  for (int w = 1; w <= surge.weeks; ++w) {
    double h0 = 24.0 * 7 * (w - 1);
    double h1 = 24.0 * 7 * w;
    WeekSummary ws;
    ws.week = w;
    ws.post = w >= surge.surge_week;
    ws.mean_active = traj.mean_active(h0, h1);
    ws.utilization = surge.utilization_at(ws.mean_active);
    pt::SnowflakeLoad load = snowflake_load_at(ws.utilization, cfg);
    ws.proxy_lifetime_s = load.lifetime_mean_s;
    ws.broker_match_s = load.match_mean_s;
    if (w == 1) week1_mean = ws.mean_active;
    ws.relative_users =
        week1_mean > 0.0 ? ws.mean_active / week1_mean : 0.0;
    weeks.push_back(ws);
  }
  return weeks;
}

}  // namespace ptperf::population
