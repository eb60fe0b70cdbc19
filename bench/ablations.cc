// Ablations over the design choices DESIGN.md calls out. Each one removes
// or sweeps a single mechanism and checks that the corresponding paper
// finding appears/disappears:
//   1. guard-load: equalize the obfs4 bridge's background load with
//      volunteer guards -> the "PT beats vanilla Tor" selenium effect
//      (§4.2.1) must shrink toward zero.
//   2. dnstt response cap: lift 512 B -> 4096 B -> bulk download
//      completion recovers (the §4.6 unreliability is the cap's fault).
//   3. camoufler IM rate: sweep messages/s -> website access time falls
//      hyperbolically (the §4.2 rate-limit explanation).
//   4. snowflake churn: sweep proxy lifetime -> 5 MB completion rate
//      tracks it (the §4.6 proxy-transition hypothesis).
#include "pt/camoufler.h"
#include "pt/dnstt.h"
#include "pt/fully_encrypted.h"

#include "population/contention.h"

#include "common.h"

namespace ptperf::bench {
namespace {

void ablate_guard_load(const BenchArgs& args) {
  std::printf("-- ablation 1: bridge grade vs selenium advantage --\n");
  // Sweep the obfs4 bridge from a managed high-end box down to
  // volunteer-guard-grade hardware: the "PT beats Tor" effect must vanish.
  struct Grade {
    const char* name;
    double load, mbps, proc_ms;
  };
  const Grade grades[] = {
      {"managed", 0.10, 400, 40},
      {"mid", 0.45, 60, 70},
      {"volunteer-grade", 0.70, 20, 90},
  };
  stats::Table t({"bridge_grade", "tor_mean_s", "obfs4_mean_s", "advantage_s"});
  for (const Grade& grade : grades) {
    ScenarioConfig cfg;
    cfg.seed = args.seed;
    cfg.tranco_sites = scaled(8, args.scale, 4);
    cfg.cbl_sites = 0;
    Scenario scenario(cfg);
    CampaignOptions copts;
    copts.website_reps = 2;
    Campaign campaign(scenario, copts);
    auto sites = Campaign::take_sites(scenario.tranco(), cfg.tranco_sites);

    TransportFactory factory(scenario);
    PtStack tor = factory.create_vanilla();
    // Hand-built obfs4 whose bridge carries the swept load.
    tor::RelayIndex bridge = scenario.add_bridge(
        net::Region::kFrankfurt, grade.load, grade.mbps, grade.proc_ms);
    pt::Obfs4Config ocfg;
    ocfg.client_host = scenario.client_host();
    ocfg.bridge = bridge;
    // simlint: allow(transport-bypass) -- ablation sweeps bridge grades the registry builder deliberately fixes
    auto transport = std::make_shared<pt::Obfs4Transport>(
        scenario.network(), scenario.consensus(), scenario.fork_rng("ab1"),
        ocfg);
    PtStack obfs4 = factory.attach(transport);

    auto tor_loads = load_seconds(campaign.run_website_selenium(tor, sites));
    auto o4_loads = load_seconds(campaign.run_website_selenium(obfs4, sites));
    double tm = stats::mean(tor_loads);
    double om = stats::mean(o4_loads);
    t.add_row({grade.name, util::fmt_double(tm, 2), util::fmt_double(om, 2),
               util::fmt_double(tm - om, 2)});
  }
  emit(t, args, "ablation_guard_load");
  std::printf("(advantage should shrink as the bridge load approaches the\n"
              " volunteer-guard level — validating §4.2.1)\n\n");
}

void ablate_dnstt_cap(const BenchArgs& args) {
  std::printf("-- ablation 2: dnstt response cap vs 5 MB reliability --\n");
  stats::Table t({"cap_bytes", "complete", "attempts", "mean_time_s"});
  for (std::size_t cap : {std::size_t{512}, std::size_t{1024},
                          std::size_t{4096}}) {
    ScenarioConfig cfg;
    cfg.seed = args.seed;
    cfg.tranco_sites = 2;
    cfg.cbl_sites = 0;
    Scenario scenario(cfg);
    tor::RelayIndex bridge = scenario.add_bridge(net::Region::kFrankfurt);
    pt::DnsttConfig dcfg;
    dcfg.client_host = scenario.client_host();
    dcfg.bridge = bridge;
    dcfg.resolver_host =
        scenario.add_infra_host("resolver-ab", net::Region::kUsEast, 1000, 0.15);
    dcfg.max_response_bytes = cap;
    // simlint: allow(transport-bypass) -- ablation sweeps the DNS response budget the registry builder fixes at 512 B
    auto transport = std::make_shared<pt::DnsttTransport>(
        scenario.network(), scenario.consensus(), scenario.fork_rng("ab2"),
        dcfg);
    PtStack stack = TransportFactory(scenario).attach(transport);

    CampaignOptions copts;
    copts.file_reps = scaled_int(4, args.scale, 3);
    Campaign campaign(scenario, copts);
    auto samples = campaign.run_file_downloads(stack, {5u << 20});
    int complete = 0;
    std::vector<double> ok;
    for (const FileSample& s : samples) {
      if (s.result.success) {
        ++complete;
        ok.push_back(s.result.elapsed());
      }
    }
    t.add_row({std::to_string(cap), std::to_string(complete),
               std::to_string(samples.size()),
               ok.empty() ? "-" : util::fmt_double(stats::mean(ok), 1)});
    std::printf("  cap %zu done\n", cap);
    std::fflush(stdout);
  }
  emit(t, args, "ablation_dnstt_cap");
  std::printf("(completion should recover as the cap is lifted)\n\n");
}

void ablate_camoufler_rate(const BenchArgs& args) {
  std::printf("-- ablation 3: camoufler IM rate vs transfer times --\n");
  stats::Table t({"messages_per_sec", "website_mean_s", "file5mb_mean_s"});
  for (double rate : {1.0, 3.0, 5.0, 10.0, 20.0}) {
    ScenarioConfig cfg;
    cfg.seed = args.seed;
    cfg.tranco_sites = scaled(6, args.scale, 3);
    cfg.cbl_sites = 0;
    Scenario scenario(cfg);
    pt::CamouflerConfig ccfg;
    ccfg.client_host = scenario.client_host();
    ccfg.im_server_host =
        scenario.add_infra_host("im-ab", net::Region::kEuropeWest, 2000, 0.2);
    ccfg.peer_host =
        scenario.add_infra_host("peer-ab", net::Region::kFrankfurt);
    ccfg.messages_per_sec = rate;
    // simlint: allow(transport-bypass) -- ablation sweeps the IM message-rate cap the registry builder fixes
    auto transport = std::make_shared<pt::CamouflerTransport>(
        scenario.network(), scenario.consensus(), scenario.fork_rng("ab3"),
        ccfg);
    PtStack stack = TransportFactory(scenario).attach(transport);

    CampaignOptions copts;
    copts.website_reps = 2;
    copts.file_reps = 2;
    Campaign campaign(scenario, copts);
    auto sites = Campaign::take_sites(scenario.tranco(), cfg.tranco_sites);
    auto times = elapsed_seconds(campaign.run_website_curl(stack, sites));
    std::vector<double> file_times;
    for (const FileSample& s :
         campaign.run_file_downloads(stack, {5u << 20})) {
      if (s.result.success) file_times.push_back(s.result.elapsed());
    }
    t.add_row({util::fmt_double(rate, 1),
               util::fmt_double(stats::mean(times), 2),
               file_times.empty() ? "-"
                                  : util::fmt_double(stats::mean(file_times), 1)});
    std::printf("  rate %.0f done\n", rate);
    std::fflush(stdout);
  }
  emit(t, args, "ablation_camoufler_rate");
  std::printf("(bulk time should fall hyperbolically with the rate limit;\n"
              " website time is latency-bound and moves less)\n\n");
}

void ablate_snowflake_churn(const BenchArgs& args) {
  std::printf("-- ablation 4: snowflake proxy lifetime vs 5 MB completion --\n");
  stats::Table t({"lifetime_mean_s", "complete", "attempts", "avg_fraction"});
  for (double lifetime : {30.0, 60.0, 180.0, 600.0}) {
    ScenarioConfig cfg;
    cfg.seed = args.seed;
    cfg.tranco_sites = 2;
    cfg.cbl_sites = 0;
    Scenario scenario(cfg);
    TransportFactory factory(scenario);
    PtStack stack = factory.create(PtId::kSnowflake);
    // Overloaded proxy pool, but with the churn rate under sweep control.
    population::apply_regime(*stack.snowflake, true);
    stack.snowflake->set_proxy_lifetime_mean(lifetime);
    CampaignOptions copts;
    copts.file_reps = scaled_int(4, args.scale, 3);
    Campaign campaign(scenario, copts);
    auto samples = campaign.run_file_downloads(stack, {5u << 20});
    int complete = 0;
    double frac = 0;
    for (const FileSample& s : samples) {
      if (s.result.success) ++complete;
      frac += s.result.fraction();
    }
    t.add_row({util::fmt_double(lifetime, 0), std::to_string(complete),
               std::to_string(samples.size()),
               util::fmt_double(frac / samples.size(), 2)});
  }
  emit(t, args, "ablation_snowflake_churn");
}

}  // namespace
}  // namespace ptperf::bench

int main(int argc, char** argv) {
  auto args = ptperf::bench::parse_args(argc, argv);
  ptperf::bench::banner("Ablations", "design-choice validation sweeps", args);
  ptperf::bench::ablate_guard_load(args);
  ptperf::bench::ablate_dnstt_cap(args);
  ptperf::bench::ablate_camoufler_rate(args);
  ptperf::bench::ablate_snowflake_churn(args);
  return 0;
}
