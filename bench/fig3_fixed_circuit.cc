// Reproduces Figure 3a/3b: website access over a FIXED circuit — the same
// host serves as vanilla-Tor guard and as private obfs4/webtunnel server,
// and middle/exit are pinned per iteration. Expected: the three boxplots
// are nearly identical and the paired t-tests are non-significant; the
// ECDF of per-site |time difference| concentrates below a few seconds
// (>80% under 5 s in the paper).
#include "pt/fully_encrypted.h"
#include "pt/tls_family.h"

#include "common.h"

namespace ptperf::bench {
namespace {

int run(const BenchArgs& args) {
  banner("Figure 3a/3b",
         "fixed circuit: vanilla Tor vs obfs4 vs webtunnel", args);

  ScenarioConfig cfg;
  cfg.seed = args.seed;
  cfg.tranco_sites = 5;  // the paper's five category-sampled sites
  cfg.cbl_sites = 0;
  Scenario scenario(cfg);

  // One host doubles as guard relay and PT server (§4.2.1's setup).
  tor::RelayIndex shared_bridge = scenario.add_bridge(net::Region::kFrankfurt);

  pt::Obfs4Config ocfg;
  ocfg.client_host = scenario.client_host();
  ocfg.bridge = shared_bridge;
  // simlint: allow(transport-bypass) -- ablation pins the PT to a shared guard/bridge host the registry builders don't expose
  auto obfs4 = std::make_shared<pt::Obfs4Transport>(
      scenario.network(), scenario.consensus(), scenario.fork_rng("o4"), ocfg);

  pt::WebTunnelConfig wcfg;
  wcfg.client_host = scenario.client_host();
  wcfg.bridge = shared_bridge;
  // simlint: allow(transport-bypass) -- same fixed shared-bridge setup
  auto webtunnel = std::make_shared<pt::WebTunnelTransport>(
      scenario.network(), scenario.consensus(), scenario.fork_rng("wt"), wcfg);

  // Three stacks: vanilla Tor (guard = shared host), obfs4, webtunnel.
  TransportFactory factory(scenario);
  std::vector<PtStack> stacks;
  stacks.push_back(factory.create_vanilla());
  stacks.push_back(factory.attach(obfs4));
  stacks.push_back(factory.attach(webtunnel));
  std::vector<std::vector<double>> times(stacks.size());

  // Iterations: fresh middle/exit pair per iteration, shared by all three
  // stacks (paper: 500 iterations x 5 sites; default 25, --scale grows).
  std::size_t iterations = scaled(25, args.scale, 5);
  // Forked only for its side effect: Rng::fork advances the scenario RNG,
  // so the sampler's stream below, and with it fig3's CSV, depends on it.
  static_cast<void>(scenario.fork_rng("fig3-pick"));
  tor::PathSelector sampler(scenario.consensus(),
                            scenario.fork_rng("fig3-sampler"));

  std::vector<double> diffs_abs;  // |PT - tor| per (site, iteration, pt)
  sim::EventLoop& loop = scenario.loop();

  for (std::size_t iter = 0; iter < iterations; ++iter) {
    tor::Path p = sampler.select({});
    for (PtStack& s : stacks) {
      tor::PathConstraints constraints;
      constraints.entry = shared_bridge;
      constraints.middle = p.middle;
      constraints.exit = p.exit;
      s.socks->set_constraints(constraints);
      s.socks->warm();  // circuits pre-built, as in the paper's setup
    }
    for (const workload::Website& site : scenario.tranco().sites()) {
      double site_time[3] = {-1, -1, -1};
      for (std::size_t k = 0; k < stacks.size(); ++k) {
        bool done = false;
        stacks[k].fetcher->fetch(site.hostname, "/", sim::from_seconds(120),
                                 [&](workload::FetchResult r) {
                                   if (r.success) {
                                     times[k].push_back(r.elapsed());
                                     site_time[k] = r.elapsed();
                                   }
                                   done = true;
                                 });
        loop.run_until_done([&] { return done; });
      }
      if (site_time[0] >= 0) {
        for (int k = 1; k < 3; ++k)
          if (site_time[k] >= 0)
            diffs_abs.push_back(std::abs(site_time[k] - site_time[0]));
      }
    }
  }

  std::printf("-- Figure 3a: access time over the fixed circuit (s) --\n");
  stats::Table boxes(box_header());
  std::vector<std::pair<std::string, std::vector<double>>> groups;
  for (std::size_t k = 0; k < stacks.size(); ++k) {
    boxes.add_row(box_row(stacks[k].name(), times[k]));
    groups.emplace_back(stacks[k].name(), times[k]);
  }
  emit(boxes, args, "fig3a_boxes");

  std::printf("-- paired t-tests (expect non-significant) --\n");
  emit(pairwise_t_tests(groups), args, "fig3a_ttests");

  std::printf("-- Figure 3b: ECDF of |PT - Tor| per site access (s) --\n");
  emit(ecdf_table({{"abs_diff", diffs_abs}}, {0.5, 1, 2, 5, 10}, "diff"),
       args, "fig3b_ecdf");
  double under5 = diffs_abs.empty() ? 0 : stats::Ecdf(diffs_abs)(5.0);
  std::printf("fraction of accesses with |diff| < 5s: %.2f (paper: >0.80)\n",
              under5);
  return 0;
}

}  // namespace
}  // namespace ptperf::bench

int main(int argc, char** argv) {
  return ptperf::bench::run(ptperf::bench::parse_args(argc, argv));
}
