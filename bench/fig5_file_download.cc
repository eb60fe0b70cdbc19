// Reproduces Figure 5 + Appendix Table 7: file download times for 5..100 MB
// across all transports (paper: 10 attempts each; default 3, --scale
// grows), on the sharded engine (one shard per PT; --jobs N for the
// wall-clock speedup, output identical). PTs that fail to complete a size
// at least twice are excluded from the time table, exactly as the paper
// excludes dnstt, snowflake and meek. Expected shape:
// obfs4/cloak/psiphon/webtunnel fastest PT cluster; camoufler the slowest
// completer; marionette pinned at the timeout.
#include "population/contention.h"

#include "common.h"

namespace ptperf::bench {
namespace {

int run(const BenchArgs& args) {
  banner("Figure 5 / Table 7", "bulk file download times", args);

  EnsembleCampaignConfig ecfg = ensemble_config(args, "fig5");
  auto& cfg = ecfg.base;
  cfg.scenario.tranco_sites = 2;
  cfg.scenario.cbl_sites = 0;
  cfg.campaign.file_reps = scaled_int(3, args.scale, 2);
  // The paper's file campaign overlapped the snowflake load surge.
  cfg.configure_stack = [](Scenario&, PtStack& stack) {
    if (stack.snowflake) population::apply_regime(*stack.snowflake, true);
  };
  EnsembleCampaign engine(ecfg);

  // --scale < 1 also trims the size list (5..100 MB) from the top, so
  // smoke runs are not pinned to the 100 MB virtual transfers.
  std::vector<std::size_t> sizes = workload::standard_file_sizes();
  sizes.resize(scaled(sizes.size(), std::min(args.scale, 1.0), 1));
  auto runs = engine.run_file_downloads(sweep_pts(), sizes);
  const auto& samples = runs.first();

  std::vector<std::string> headers{"pt"};
  for (std::size_t s : sizes)
    headers.push_back(std::to_string(s >> 20) + "MB_mean_s");
  stats::Table times(headers);
  stats::Table excluded({"pt", "size", "completes", "note"});

  // Per-PT per-size mean times over completed attempts (paired t-test input
  // pools all sizes, like the paper's Table 7).
  std::vector<std::pair<std::string, std::vector<double>>> all_attempts;

  for (const auto& [name, mine] : by_pt(samples)) {
    std::vector<std::string> row{name};
    std::vector<double> pooled;
    for (std::size_t size : sizes) {
      std::vector<double> ok;
      for (const FileSample& s : mine) {
        if (s.size_bytes != size) continue;
        if (s.result.success) {
          ok.push_back(s.result.elapsed());
          pooled.push_back(s.result.elapsed());
        } else {
          // Failed attempts enter the pooled comparison at the timeout
          // bound (the downloads effectively cost that long).
          pooled.push_back(sim::to_seconds(cfg.campaign.file_timeout));
        }
      }
      if (ok.size() >= 2) {
        row.push_back(util::fmt_double(stats::mean(ok), 1));
      } else {
        row.push_back("-");
        excluded.add_row({name, std::to_string(size >> 20) + "MB",
                          std::to_string(ok.size()),
                          "fewer than two complete downloads"});
      }
    }
    times.add_row(std::move(row));
    all_attempts.emplace_back(name, std::move(pooled));
  }

  std::printf("-- Figure 5: mean download time of completed attempts (s) --\n");
  emit(times, args, "fig5_times");
  if (excluded.rows() > 0) {
    std::printf("-- excluded cells (like the paper's dnstt/meek/snowflake) --\n");
    emit(excluded, args, "fig5_excluded");
  }

  std::printf("-- Table 7: paired t-tests over pooled attempts --\n");
  stats::Table tests = pairwise_t_tests(all_attempts);
  emit(tests, args, "fig5_ttests", args.verbose);
  std::printf("(%zu pairs; full table in fig5_ttests.csv)\n", tests.rows());

  // Cross-repetition distribution of each PT's pooled mean download time
  // (failed attempts imputed at the timeout, as in the t-test pooling).
  double timeout_s = sim::to_seconds(cfg.campaign.file_timeout);
  emit_ensemble(ensemble_series<FileSample>(
                    runs,
                    [timeout_s](const std::vector<FileSample>& rep) {
                      std::vector<std::pair<std::string, double>> out;
                      for (const auto& [name, mine] : by_pt(rep)) {
                        std::vector<double> pooled;
                        for (const FileSample& s : mine)
                          pooled.push_back(s.result.success
                                               ? s.result.elapsed()
                                               : timeout_s);
                        if (!pooled.empty())
                          out.emplace_back(name, stats::mean(pooled));
                      }
                      return out;
                    }),
                args, "fig5_ensemble", "pooled_mean_download",
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
