// Reproduces Figure 8a/8b + §4.6: reliability of file downloads, on the
// sharded engine (each shard installs the fault plan in its own world;
// injected-fault counters merge in plan order, so counts are deterministic
// for a seed at any --jobs).
//   8a — fraction of complete / partial / failed attempts per PT.
//   8b — ECDF of the *fraction of the file* actually downloaded, for the
//        three unreliable transports (meek, dnstt, snowflake).
// Expected: meek/dnstt/snowflake mostly partial (>80%); camoufler and meek
// show a slice of total failures; the reliable cluster (obfs4, cloak,
// psiphon, webtunnel, shadowsocks) completes essentially everything.
#include "population/contention.h"

#include "common.h"

namespace ptperf::bench {
namespace {

int run(const BenchArgs& args) {
  banner("Figure 8a/8b / §4.6", "download reliability", args);

  bool inject = false;
  if (args.faults != "none" && !args.faults.empty()) {
    if (args.faults != "paper") {
      std::fprintf(stderr, "unknown --faults profile '%s' (none|paper)\n",
                   args.faults.c_str());
      return 2;
    }
    inject = true;
    std::printf("   fault profile: paper (§4.6), retries=%d\n\n",
                args.retries);
  }

  EnsembleCampaignConfig ecfg = ensemble_config(args, "fig8");
  auto& cfg = ecfg.base;
  cfg.scenario.tranco_sites = 2;
  cfg.scenario.cbl_sites = 0;
  cfg.campaign.file_reps = scaled_int(4, args.scale, 2);  // paper: 20/size
  if (inject) {
    cfg.configure_scenario = [](Scenario& scenario) {
      scenario.install_fault_plan(fault::FaultPlan::paper_section_4_6());
    };
  }
  cfg.configure_stack = [](Scenario&, PtStack& stack) {
    if (stack.snowflake) population::apply_regime(*stack.snowflake, true);
  };
  EnsembleCampaign engine(ecfg);

  // As in fig5, --scale < 1 trims the size list from the top so smoke
  // runs (e.g. the CI TSan job) skip the largest virtual transfers.
  std::vector<std::size_t> sizes = workload::standard_file_sizes();
  sizes.resize(scaled(sizes.size(), std::min(args.scale, 1.0), 1));

  stats::Table bars({"pt", "attempts", "complete", "partial", "failed",
                     "complete_frac", "partial_frac", "failed_frac"});
  std::vector<std::pair<std::string, std::vector<double>>> fraction_groups;

  // One reliability campaign either way: --retries applies in fault mode,
  // and with no retry to fire the samples are plain downloads, classified.
  RetryPolicy retry;
  retry.max_retries = inject ? args.retries : 0;
  EnsembleRuns<ReliabilitySample> runs =
      engine.run_reliability(sweep_pts(), sizes, retry);

  for (const auto& [name, mine] : by_pt(runs.first())) {
    OutcomeCounts c = count_outcomes(mine);
    std::vector<double> fractions;
    for (const ReliabilitySample& s : mine)
      fractions.push_back(s.result.fraction());
    auto n = static_cast<double>(c.total());
    bars.add_row({name, std::to_string(c.total()), std::to_string(c.complete),
                  std::to_string(c.partial), std::to_string(c.failed),
                  util::fmt_double(c.complete / n, 2),
                  util::fmt_double(c.partial / n, 2),
                  util::fmt_double(c.failed / n, 2)});
    fraction_groups.emplace_back(name, std::move(fractions));
  }

  std::printf("\n-- Figure 8a: outcome fractions per PT --\n");
  emit(bars, args, "fig8a_outcomes");

  std::printf("-- Figure 8b: ECDF of downloaded fraction (unreliable PTs) --\n");
  std::vector<std::pair<std::string, std::vector<double>>> unreliable;
  for (auto& [name, xs] : fraction_groups) {
    if (name == "meek" || name == "dnstt" || name == "snowflake")
      unreliable.emplace_back(name, xs);
  }
  emit(ecdf_table(unreliable, {0.1, 0.2, 0.4, 0.6, 0.8, 0.92, 0.96, 1.0},
                  "frac"),
       args, "fig8b_fraction_ecdf");
  std::printf(
      "(paper: snowflake <40%% of the file in ~60%% of attempts; meek and\n"
      " dnstt reach higher fractions but rarely complete)\n");

  // Cross-repetition distribution of each PT's complete fraction.
  emit_ensemble(
      ensemble_series<ReliabilitySample>(
          runs,
          [](const std::vector<ReliabilitySample>& rep) {
            std::vector<std::pair<std::string, double>> out;
            for (const auto& [name, mine] : by_pt(rep)) {
              OutcomeCounts c = count_outcomes(mine);
              if (c.total() > 0)
                out.emplace_back(name,
                                 static_cast<double>(c.complete) / c.total());
            }
            return out;
          }),
      args, "fig8_ensemble", "complete_frac", EnsembleUnit::kFraction, "tor");

  if (inject) {
    std::printf("\n-- Injected faults (deterministic for this seed) --\n");
    stats::Table injected({"fault", "count"});
    for (int k = 0; k < static_cast<int>(fault::FaultKind::kCount_); ++k) {
      auto kind = static_cast<fault::FaultKind>(k);
      if (engine.injected_faults(kind) == 0) continue;
      injected.add_row({std::string(fault::fault_kind_name(kind)),
                        std::to_string(engine.injected_faults(kind))});
    }
    emit(injected, args, "fig8_injected_faults");
  }
  emit_trace(engine, args);
  print_shard_timings(engine.timings(), args);
  return 0;
}

}  // namespace
}  // namespace ptperf::bench

int main(int argc, char** argv) {
  return ptperf::bench::run(ptperf::bench::parse_args(argc, argv));
}
