// Reproduces Figure 10a/10b + §5.3: snowflake before and after the
// September-2022 Iran unrest. 10a's Tor-Metrics user series is the
// population engine's emergent trajectory: five simulated country cohorts
// (two Iranian fleets surge-affected) produce active-session demand that
// saturates the volunteer-proxy pool, and the pre/post operating points
// fall out of the contention curves instead of being hand-set. 10b
// compares website access time across the two emergent regimes; §5.3's
// companion check (5 MB downloads mostly fail post-surge) runs at the
// post-surge utilization.
//
// The fleet simulates on one thread (population::PopulationModel, seeded
// from --seed); each load regime is its own ensemble campaign whose
// configure_stack hook applies the emergent utilization through
// population::apply_snowflake before any measurement starts.
#include "population/contention.h"

#include "common.h"

namespace ptperf::bench {
namespace {

/// Ensemble website campaign against snowflake pinned to one emergent
/// pool utilization.
EnsembleRuns<WebsiteSample> run_regime(const EnsembleCampaignConfig& base,
                                       const SiteSelection& sites,
                                       double utilization,
                                       std::vector<ShardTiming>& timings) {
  EnsembleCampaignConfig cfg = base;
  cfg.base.configure_stack = [utilization](Scenario&, PtStack& stack) {
    if (stack.snowflake) population::apply_snowflake(*stack.snowflake,
                                                     utilization);
  };
  EnsembleCampaign engine(cfg);
  auto runs = engine.run_website_curl({PtId::kSnowflake}, sites);
  timings.insert(timings.end(), engine.timings().begin(),
                 engine.timings().end());
  return runs;
}

/// Mean of the per-site mean access times of one repetition.
std::vector<std::pair<std::string, double>> regime_estimator(
    const std::string& label, const std::vector<WebsiteSample>& rep) {
  std::vector<double> means = per_site_means(rep);
  if (means.empty()) return {};
  return {{label, stats::mean(means)}};
}

int run(const BenchArgs& args) {
  banner("Figure 10a/10b / §5.3", "snowflake under the Iran-unrest load",
         args);

  EnsembleCampaignConfig ecfg = ensemble_config(args, "fig10");
  auto& cfg = ecfg.base;
  cfg.scenario.tranco_sites = scaled(25, args.scale, 6);
  cfg.scenario.cbl_sites = 0;
  cfg.campaign.website_reps = 3;
  SiteSelection sites{cfg.scenario.tranco_sites, 0};

  // -- Population engine: simulate the user fleets on the campaign's seed.
  population::IranSurge surge = population::iran_surge(12);
  population::PopulationConfig pcfg = surge.pop;
  pcfg.seed = args.seed;
  population::Trajectory traj = population::PopulationModel(pcfg).simulate();

  // -- Figure 10a: the emergent load timeline, weekly aggregates of the
  // trajectory run through the contention curves (anchor constants from
  // the snowflake defaults — the same curves apply_snowflake uses).
  pt::SnowflakeConfig anchors;
  std::vector<population::WeekSummary> weeks =
      population::weekly_view(surge, traj, anchors);
  stats::Table timeline({"week", "era", "active_sessions", "utilization",
                         "proxy_lifetime_s", "broker_match_s",
                         "relative_users"});
  for (const population::WeekSummary& w : weeks) {
    timeline.add_row({std::to_string(w.week), w.post ? "post-unrest" : "pre",
                      util::fmt_double(w.mean_active, 0),
                      util::fmt_double(w.utilization, 3),
                      util::fmt_double(w.proxy_lifetime_s, 1),
                      util::fmt_double(w.broker_match_s, 3),
                      util::fmt_double(w.relative_users, 2)});
  }
  std::printf("-- Figure 10a: emergent snowflake load timeline --\n");
  emit(timeline, args, "fig10a_timeline");

  // The two regimes' operating points, from the trajectory itself.
  double split_hours = 24.0 * 7 * (surge.surge_week - 1);
  double u_pre = surge.utilization_at(traj.mean_active(0, split_hours));
  double u_post = surge.utilization_at(
      traj.mean_active(split_hours, surge.pop.horizon_hours));
  std::printf("emergent pool utilization: pre %.3f post %.3f\n", u_pre,
              u_post);

  // -- Figure 10b: pre vs post access times at the emergent utilizations.
  std::vector<ShardTiming> timings;
  auto pre_runs = run_regime(ecfg, sites, u_pre, timings);
  auto post_runs = run_regime(ecfg, sites, u_post, timings);
  const auto& pre = pre_runs.first();
  const auto& post = post_runs.first();

  std::vector<double> pre_means = per_site_means(pre);
  std::vector<double> post_means = per_site_means(post);
  stats::Table boxes(box_header());
  boxes.add_row(box_row("pre-Sept", pre_means));
  boxes.add_row(box_row("post-Sept", post_means));
  std::printf("-- Figure 10b: website access time pre vs post (s) --\n");
  emit(boxes, args, "fig10b_boxes");

  std::size_t n = std::min(pre_means.size(), post_means.size());
  if (n >= 2) {
    std::vector<double> a(pre_means.begin(), pre_means.begin() + static_cast<long>(n));
    std::vector<double> b(post_means.begin(), post_means.begin() + static_cast<long>(n));
    auto r = stats::paired_t_test(a, b);
    std::printf("pre vs post: %s\n", stats::format_t_test(r).c_str());
    std::printf("(paper: pre M=3.42 vs post M=4.77, t=-10.76, P<.001)\n\n");
  }

  // Cross-repetition distribution of the two regimes' mean access times,
  // paired pre-vs-post per repetition (both regimes replay the same
  // forked worlds).
  std::vector<EnsembleSeries> regime_series;
  auto collect = [&regime_series](const std::string& label,
                                  const EnsembleRuns<WebsiteSample>& runs) {
    std::vector<EnsembleSeries> s = ensemble_series<WebsiteSample>(
        runs, [&label](const std::vector<WebsiteSample>& rep) {
          return regime_estimator(label, rep);
        });
    regime_series.insert(regime_series.end(), s.begin(), s.end());
  };
  collect("pre-Sept", pre_runs);
  collect("post-Sept", post_runs);
  emit_ensemble(regime_series, args, "fig10_ensemble", "mean_access_time",
                EnsembleUnit::kSeconds, "pre-Sept");

  // -- §5.3 companion: 5 MB downloads at the post-surge utilization.
  EnsembleCampaignConfig fcfg = ecfg;
  fcfg.base.campaign.file_reps = scaled_int(5, args.scale, 3);
  fcfg.base.configure_stack = [u_post](Scenario&, PtStack& stack) {
    if (stack.snowflake) population::apply_snowflake(*stack.snowflake,
                                                     u_post);
  };
  EnsembleCampaign file_engine(fcfg);
  auto file_runs =
      file_engine.run_file_downloads({PtId::kSnowflake}, {5u << 20});
  const auto& file_samples = file_runs.first();
  timings.insert(timings.end(), file_engine.timings().begin(),
                 file_engine.timings().end());
  int complete = 0;
  for (const FileSample& s : file_samples)
    if (s.result.success) ++complete;
  std::printf("-- 5 MB downloads post-surge: %d/%zu complete --\n", complete,
              file_samples.size());
  std::printf("(paper: 8 of 10 attempts failed post-September)\n");

  print_shard_timings(timings, args);
  emit_trace(file_engine, args);
  return 0;
}

}  // namespace
}  // namespace ptperf::bench

int main(int argc, char** argv) {
  return ptperf::bench::run(ptperf::bench::parse_args(argc, argv));
}
