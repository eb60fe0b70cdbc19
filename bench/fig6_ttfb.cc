// Reproduces Figure 6: ECDF of time-to-first-byte across websites for all
// transports, on the sharded engine. Expected: most PTs deliver the first
// byte within 5 s for >80% of sites; meek sits in a 2.5-7.5 s band,
// camoufler spreads to ~17.5 s, and marionette has ~40% of sites above
// 20 s.
#include "common.h"

namespace ptperf::bench {
namespace {

int run(const BenchArgs& args) {
  banner("Figure 6", "time to first byte (TTFB) ECDF", args);

  EnsembleCampaignConfig ecfg = ensemble_config(args, "fig6");
  auto& cfg = ecfg.base;
  cfg.scenario.tranco_sites = scaled(40, args.scale, 8);
  cfg.scenario.cbl_sites = 0;
  cfg.campaign.website_reps = 2;
  EnsembleCampaign engine(ecfg);

  SiteSelection sites{cfg.scenario.tranco_sites, 0};
  auto runs = engine.run_website_curl(sweep_pts(), sites);
  const auto& samples = runs.first();

  std::vector<std::pair<std::string, std::vector<double>>> groups;
  for (const auto& [name, mine] : by_pt(samples))
    groups.emplace_back(name, ttfb_seconds(mine));

  std::printf("-- Figure 6: P[TTFB <= t] --\n");
  emit(ecdf_table(groups, {1, 2.5, 5, 7.5, 10, 17.5, 20, 30}, "t"), args,
       "fig6_ttfb_ecdf");

  std::printf("-- headline checks --\n");
  for (const auto& [name, xs] : groups) {
    if (xs.empty()) continue;
    stats::Ecdf e(xs);
    std::printf("  %-12s P[TTFB<=5s]=%.2f  P[TTFB>20s]=%.2f\n", name.c_str(),
                e(5.0), 1.0 - e(20.0));
  }
  std::printf("(paper: most PTs >0.80 under 5 s; marionette ~0.40 above 20 s)\n");

  // Cross-repetition distribution of each PT's median TTFB.
  emit_ensemble(ensemble_series<WebsiteSample>(
                    runs,
                    [](const std::vector<WebsiteSample>& rep) {
                      std::vector<std::pair<std::string, double>> out;
                      for (const auto& [name, mine] : by_pt(rep)) {
                        std::vector<double> ttfbs = ttfb_seconds(mine);
                        if (!ttfbs.empty())
                          out.emplace_back(name, stats::median(ttfbs));
                      }
                      return out;
                    }),
                args, "fig6_ensemble", "median_ttfb", EnsembleUnit::kSeconds,
                "tor");

  emit_trace(engine, args);
  print_shard_timings(engine.timings(), args);
  return 0;
}

}  // namespace
}  // namespace ptperf::bench

int main(int argc, char** argv) {
  return ptperf::bench::run(ptperf::bench::parse_args(argc, argv));
}
