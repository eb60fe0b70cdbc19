// Reproduces Figure 2a + Appendix Tables 3/4: website access time via curl
// for vanilla Tor and all 12 PTs over Tranco and CBL sites (paper: 1k+1k
// sites x 5 accesses; default here: 30+30 sites x 3, grow with --scale).
// Runs on the sharded engine: one shard per PT, merged in plan order, so
// --jobs N only changes wall time, never output.
//
// Expected shape (paper): fully-encrypted and proxy-layer PTs cluster near
// vanilla Tor (~2.3 s); dnstt and meek are 2x+ slower; camoufler ~5x;
// marionette is the worst by far (~9x).
#include "common.h"

namespace ptperf::bench {
namespace {

int run(const BenchArgs& args) {
  banner("Figure 2a / Tables 3-4",
         "website access time, curl, Tranco + CBL", args);

  EnsembleCampaignConfig ecfg = ensemble_config(args, "fig2a");
  auto& cfg = ecfg.base;
  cfg.scenario.tranco_sites = scaled(30, args.scale, 5);
  cfg.scenario.cbl_sites = scaled(30, args.scale, 5);
  cfg.campaign.website_reps = 3;  // paper: 5; sites scale with --scale
  EnsembleCampaign engine(ecfg);

  SiteSelection sites{cfg.scenario.tranco_sites, cfg.scenario.cbl_sites};
  auto runs = engine.run_website_curl(sweep_pts(), sites);
  const auto& samples = runs.first();

  stats::Table boxes(box_header());
  std::vector<std::pair<std::string, std::vector<double>>> per_site;
  for (const auto& [name, mine] : by_pt(samples)) {
    std::vector<double> means = per_site_means(mine);
    boxes.add_row(box_row(name, means));
    per_site.emplace_back(name, std::move(means));
  }

  std::printf("-- Figure 2a: per-site average access time (s) --\n");
  emit(boxes, args, "fig2a_boxes");

  std::printf("-- Tables 3/4: paired t-tests over per-site means --\n");
  stats::Table tests = pairwise_t_tests(per_site);
  emit(tests, args, "fig2a_ttests", args.verbose);
  std::printf("(%zu PT pairs; full table in fig2a_ttests.csv)\n",
              tests.rows());

  // Cross-repetition distribution of each PT's mean access time, with
  // PT-vs-vanilla paired differences over the ensemble.
  emit_ensemble(ensemble_series<WebsiteSample>(
                    runs,
                    [](const std::vector<WebsiteSample>& rep) {
                      std::vector<std::pair<std::string, double>> out;
                      for (const auto& [name, mine] : by_pt(rep)) {
                        std::vector<double> means = per_site_means(mine);
                        if (!means.empty())
                          out.emplace_back(name, stats::mean(means));
                      }
                      return out;
                    }),
                args, "fig2a_ensemble", "mean_access_time",
                EnsembleUnit::kSeconds, "tor");
  emit_trace(engine, args);
  print_shard_timings(engine.timings(), args);
  return 0;
}

}  // namespace
}  // namespace ptperf::bench

int main(int argc, char** argv) {
  return ptperf::bench::run(ptperf::bench::parse_args(argc, argv));
}
