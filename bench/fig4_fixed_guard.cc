// Reproduces Figure 4: fixed first hop (one host = own guard + private
// obfs4 server), middle and exit chosen freely per circuit by the default
// selection algorithm. Expected: vanilla Tor and obfs4 track each other
// site-by-site — middle/exit variety does not separate them, establishing
// that the first hop governs performance (§4.2.1).
#include "pt/fully_encrypted.h"

#include "common.h"

namespace ptperf::bench {
namespace {

int run(const BenchArgs& args) {
  banner("Figure 4", "fixed guard, variable middle/exit: Tor vs obfs4", args);

  ScenarioConfig cfg;
  cfg.seed = args.seed;
  cfg.tranco_sites = scaled(40, args.scale, 10);
  cfg.cbl_sites = 0;
  Scenario scenario(cfg);

  tor::RelayIndex shared_bridge = scenario.add_bridge(net::Region::kFrankfurt);

  pt::Obfs4Config ocfg;
  ocfg.client_host = scenario.client_host();
  ocfg.bridge = shared_bridge;
  // simlint: allow(transport-bypass) -- ablation pins the PT to a shared guard/bridge host the registry builders don't expose
  auto obfs4 = std::make_shared<pt::Obfs4Transport>(
      scenario.network(), scenario.consensus(), scenario.fork_rng("o4"), ocfg);

  // Both stacks enter at the shared host: vanilla Tor pins it as its
  // guard, obfs4 through its bridge.
  TransportFactory factory(scenario);
  PtStack tor = factory.create_vanilla();
  tor::PathConstraints guard;
  guard.entry = shared_bridge;
  tor.socks->set_constraints(guard);
  PtStack o4 = factory.attach(obfs4);

  sim::EventLoop& loop = scenario.loop();
  stats::Table per_site({"site", "tor_s", "obfs4_s"});
  std::vector<double> tor_times, o4_times;

  for (const workload::Website& site : scenario.tranco().sites()) {
    // Fresh circuit per site for both stacks (middle/exit re-picked);
    // pre-built as Tor does, so fetches measure stream time only.
    tor.socks->new_identity();
    o4.socks->new_identity();
    tor.socks->warm();
    o4.socks->warm();
    double t_tor = -1, t_o4 = -1;
    bool done = false;
    tor.fetcher->fetch(site.hostname, "/", sim::from_seconds(120),
                       [&](workload::FetchResult r) {
                         if (r.success) t_tor = r.elapsed();
                         done = true;
                       });
    loop.run_until_done([&] { return done; });
    done = false;
    o4.fetcher->fetch(site.hostname, "/", sim::from_seconds(120),
                      [&](workload::FetchResult r) {
                        if (r.success) t_o4 = r.elapsed();
                        done = true;
                      });
    loop.run_until_done([&] { return done; });

    if (t_tor >= 0 && t_o4 >= 0) {
      tor_times.push_back(t_tor);
      o4_times.push_back(t_o4);
      per_site.add_row({site.hostname, util::fmt_double(t_tor, 2),
                        util::fmt_double(t_o4, 2)});
    }
  }

  std::printf("-- Figure 4: per-site access time, fixed guard (s) --\n");
  emit(per_site, args, "fig4_per_site", args.verbose);
  stats::Table boxes(box_header());
  boxes.add_row(box_row("tor", tor_times));
  boxes.add_row(box_row("obfs4", o4_times));
  emit(boxes, args, "fig4_boxes");

  auto r = stats::paired_t_test(tor_times, o4_times);
  std::printf("tor vs obfs4 (expect non-significant): %s\n",
              stats::format_t_test(r).c_str());
  return 0;
}

}  // namespace
}  // namespace ptperf::bench

int main(int argc, char** argv) {
  return ptperf::bench::run(ptperf::bench::parse_args(argc, argv));
}
