// Reproduces Figure 2b + Appendix Tables 5/6: website access time via
// selenium browser automation (full page + sub-resources, 6 parallel
// connections), on the sharded engine (one shard per PT). Two
// paper-critical effects must show:
//   * obfs4, webtunnel and conjure come out FASTER than vanilla Tor
//     (§4.2.1 — lightly loaded PT bridges vs volunteer guards);
//   * snowflake is much slower than in Fig 2a because the selenium runs
//     happened during the post-September-2022 user surge (§5.3);
//   * camoufler is absent (no parallel-stream support).
#include "population/contention.h"

#include "common.h"

namespace ptperf::bench {
namespace {

int run(const BenchArgs& args) {
  banner("Figure 2b / Tables 5-6",
         "website access time, selenium (page + resources)", args);

  EnsembleCampaignConfig ecfg = ensemble_config(args, "fig2b");
  auto& cfg = ecfg.base;
  cfg.scenario.tranco_sites = scaled(15, args.scale, 4);
  cfg.scenario.cbl_sites = scaled(15, args.scale, 4);
  cfg.campaign.website_reps = 2;
  // The paper's selenium campaign ran from November 2022 on: snowflake
  // was overloaded for its duration.
  cfg.configure_stack = [](Scenario&, PtStack& stack) {
    if (stack.snowflake) population::apply_regime(*stack.snowflake, true);
  };
  EnsembleCampaign engine(ecfg);

  SiteSelection sites{cfg.scenario.tranco_sites, cfg.scenario.cbl_sites};
  auto runs = engine.run_website_selenium(sweep_pts(), sites);
  const auto& samples = runs.first();

  stats::Table boxes(box_header());
  std::vector<std::pair<std::string, std::vector<double>>> groups;
  for (const auto& [name, mine] : by_pt(samples)) {
    if (mine.empty()) {
      std::printf("%-12s excluded (no parallel-stream support)\n",
                  name.c_str());
      continue;
    }
    std::vector<double> loads = load_seconds(mine);
    boxes.add_row(box_row(name, loads));
    groups.emplace_back(name, std::move(loads));
  }

  std::printf("\n-- Figure 2b: page load time (s) --\n");
  emit(boxes, args, "fig2b_boxes");

  std::printf("-- Tables 5/6: paired t-tests over page loads --\n");
  stats::Table tests = pairwise_t_tests(groups);
  emit(tests, args, "fig2b_ttests", args.verbose);
  std::printf("(%zu PT pairs; full table in fig2b_ttests.csv)\n\n",
              tests.rows());

  // Call out the §4.2.1 headline comparisons explicitly.
  std::printf("-- PTs vs vanilla Tor (positive diff = Tor slower) --\n");
  const std::vector<double>* tor = nullptr;
  for (auto& [name, xs] : groups)
    if (name == "tor") tor = &xs;
  if (tor) {
    for (const char* pt : {"obfs4", "webtunnel", "conjure"}) {
      for (auto& [name, xs] : groups) {
        if (name != pt) continue;
        std::size_t n = std::min(tor->size(), xs.size());
        if (n < 2) continue;
        std::vector<double> a(tor->begin(), tor->begin() + static_cast<long>(n));
        std::vector<double> b(xs.begin(), xs.begin() + static_cast<long>(n));
        auto r = stats::paired_t_test(a, b);
        std::printf("  tor-%-10s %s\n", pt, stats::format_t_test(r).c_str());
      }
    }
  }
  // Cross-repetition distribution of each PT's mean page-load time.
  emit_ensemble(ensemble_series<PageSample>(
                    runs,
                    [](const std::vector<PageSample>& rep) {
                      std::vector<std::pair<std::string, double>> out;
                      for (const auto& [name, mine] : by_pt(rep)) {
                        std::vector<double> loads = load_seconds(mine);
                        if (!loads.empty())
                          out.emplace_back(name, stats::mean(loads));
                      }
                      return out;
                    }),
                args, "fig2b_ensemble", "mean_page_load", EnsembleUnit::kSeconds,
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
