// Behavioural tests for the paper-critical PT mechanisms: meek's bulk
// resets, dnstt's resolver throttling, snowflake's churn and load regimes,
// camoufler's selenium exclusion, and the guard-load first-hop effect.
#include <gtest/gtest.h>

#include "ptperf/campaign.h"
#include "stats/descriptive.h"

namespace ptperf {
namespace {

sim::Duration kShortTimeout = sim::from_seconds(600);

workload::FetchResult download_file(Scenario& scenario, PtStack& stack,
                                    std::size_t bytes,
                                    sim::Duration timeout = kShortTimeout) {
  workload::FetchResult result;
  bool done = false;
  stack.socks->new_identity();
  // Appended, not "/" + name: GCC 12 -O3 reports a false -Wrestrict on
  // operator+(const char*, std::string&&).
  std::string target = "/";
  target += workload::file_target_name(bytes);
  stack.fetcher->fetch("files.example", target, timeout,
                       [&](workload::FetchResult r) {
                         result = std::move(r);
                         done = true;
                       });
  scenario.loop().run_until_done([&] { return done; });
  return result;
}

TEST(MeekBehavior, BulkDownloadsMostlyPartialWebsitesFine) {
  ScenarioConfig cfg;
  cfg.seed = 7001;
  cfg.tranco_sites = 3;
  cfg.cbl_sites = 0;
  Scenario scenario(cfg);
  TransportFactory factory(scenario);
  PtStack meek = factory.create(PtId::kMeek);

  // Websites succeed.
  int web_ok = 0;
  for (int i = 0; i < 3; ++i) {
    const auto& site = scenario.tranco().sites()[i];
    bool done = false;
    meek.socks->new_identity();
    meek.fetcher->fetch(site.hostname, "/", sim::from_seconds(120),
                        [&](workload::FetchResult r) {
                          if (r.success) ++web_ok;
                          done = true;
                        });
    scenario.loop().run_until_done([&] { return done; });
  }
  EXPECT_EQ(web_ok, 3);

  // 20 MB bulk attempts mostly end partial (the bridge resets saturated
  // sessions; §4.6).
  int partial = 0;
  for (int i = 0; i < 4; ++i) {
    auto r = download_file(scenario, meek, 20u << 20);
    if (classify(r) != DownloadOutcome::kComplete) ++partial;
  }
  EXPECT_GE(partial, 3);
}

TEST(DnsttBehavior, ThroughputBoundedByResponseBudget) {
  // dnstt completes small transfers but cannot sustain bulk: the resolver
  // window x budget bound caps throughput at tens of KB/s.
  ScenarioConfig cfg;
  cfg.seed = 7002;
  cfg.tranco_sites = 2;
  cfg.cbl_sites = 0;
  Scenario scenario(cfg);
  TransportFactory factory(scenario);
  PtStack dnstt = factory.create(PtId::kDnstt);

  auto r = download_file(scenario, dnstt, 1u << 20,
                         sim::from_seconds(1200));
  if (r.success) {
    double rate = static_cast<double>(r.received_bytes) / r.elapsed();
    EXPECT_LT(rate, 80e3);  // far below the path's raw capacity
    EXPECT_GT(rate, 2e3);
  } else {
    // Resolver throttling may kill even 1 MB; then it must be partial,
    // not an instant failure.
    EXPECT_GT(r.received_bytes, 0u);
  }
}

TEST(SnowflakeBehavior, OverloadSlowsAccessAndKillsBulk) {
  ScenarioConfig cfg;
  cfg.seed = 7003;
  cfg.tranco_sites = 6;
  cfg.cbl_sites = 0;
  Scenario scenario(cfg);
  TransportFactory factory(scenario);
  PtStack sf = factory.create(PtId::kSnowflake);
  CampaignOptions copts;
  copts.website_reps = 2;
  // One fixed guard across both eras: guard-quality variance would
  // otherwise swamp the broker/proxy load signal in a small sample.
  copts.rotate_guard_per_site = false;
  Campaign campaign(scenario, copts);
  auto sites = Campaign::take_sites(scenario.tranco(), 6);

  sf.snowflake->set_overloaded(false);
  auto pre_samples = campaign.run_website_curl(sf, sites);
  sf.snowflake->set_overloaded(true);
  auto post_samples = campaign.run_website_curl(sf, sites);
  auto pre = elapsed_seconds(pre_samples);
  auto post = elapsed_seconds(post_samples);
  ASSERT_FALSE(pre.empty());
  ASSERT_FALSE(post.empty());
  // Overload degrades service: slower successful fetches and/or fetches
  // that now fail outright (tunnel churn). Successful-only means carry a
  // survivor bias, so accept either signal.
  std::size_t pre_failures = pre_samples.size() - pre.size();
  std::size_t post_failures = post_samples.size() - post.size();
  EXPECT_TRUE(stats::mean(post) > stats::mean(pre) ||
              post_failures > pre_failures)
      << "pre mean " << stats::mean(pre) << " (fail " << pre_failures
      << "), post mean " << stats::mean(post) << " (fail " << post_failures
      << ")";

  // Bulk under overload: 20 MB attempts should not complete reliably.
  int complete = 0;
  for (int i = 0; i < 3; ++i) {
    auto r = download_file(scenario, sf, 20u << 20);
    if (r.success) ++complete;
  }
  EXPECT_LE(complete, 1);
}

TEST(CamouflerBehavior, SeleniumExcludedCurlWorks) {
  ScenarioConfig cfg;
  cfg.seed = 7004;
  cfg.tranco_sites = 2;
  cfg.cbl_sites = 0;
  Scenario scenario(cfg);
  TransportFactory factory(scenario);
  PtStack cam = factory.create(PtId::kCamoufler);
  EXPECT_FALSE(cam.supports_selenium());

  CampaignOptions copts;
  copts.website_reps = 1;
  Campaign campaign(scenario, copts);
  auto sites = Campaign::take_sites(scenario.tranco(), 2);
  EXPECT_TRUE(campaign.run_website_selenium(cam, sites).empty());

  auto curl = campaign.run_website_curl(cam, sites);
  ASSERT_EQ(curl.size(), 2u);
  for (auto& s : curl) EXPECT_TRUE(s.result.success);
}

TEST(GuardLoadEffect, BridgePtBeatsTorThroughLoadedGuard) {
  // The §4.2.1 mechanism isolated: vanilla Tor pinned to the most-loaded
  // volunteer guard vs obfs4 through its lightly loaded managed bridge.
  // Under selenium-style parallel fetching the loaded first hop must cost
  // real time.
  ScenarioConfig cfg;
  cfg.seed = 7005;
  cfg.tranco_sites = 6;
  cfg.cbl_sites = 0;
  Scenario scenario(cfg);
  TransportFactory factory(scenario);
  PtStack tor = factory.create_vanilla();
  PtStack obfs4 = factory.create(PtId::kObfs4);

  // Pin vanilla Tor's entry to the highest-load guard in the consensus.
  tor::RelayIndex loaded_guard = 0;
  double max_load = -1;
  for (const tor::RelayDescriptor& d : scenario.consensus().relays) {
    if (!d.has(tor::kFlagGuard) || d.has(tor::kFlagBridge)) continue;
    double load = scenario.network().background_load(d.host);
    if (load > max_load) {
      max_load = load;
      loaded_guard = d.index;
    }
  }
  ASSERT_GT(max_load, 0.5);
  tor::PathConstraints pinned;
  pinned.entry = loaded_guard;
  tor.socks->set_constraints(pinned);

  CampaignOptions copts;
  copts.website_reps = 2;
  copts.rotate_guard_per_site = false;  // keep the pinned entries
  Campaign campaign(scenario, copts);
  auto sites = Campaign::take_sites(scenario.tranco(), 6);

  auto tor_loads = load_seconds(campaign.run_website_selenium(tor, sites));
  auto o4_loads = load_seconds(campaign.run_website_selenium(obfs4, sites));
  ASSERT_GE(tor_loads.size(), 8u);
  ASSERT_GE(o4_loads.size(), 8u);
  EXPECT_GT(stats::mean(tor_loads), stats::mean(o4_loads));
}

TEST(MarionetteBehavior, SlowestTransportByFar) {
  ScenarioConfig cfg;
  cfg.seed = 7006;
  cfg.tranco_sites = 3;
  cfg.cbl_sites = 0;
  Scenario scenario(cfg);
  TransportFactory factory(scenario);
  PtStack tor = factory.create_vanilla();
  PtStack marionette = factory.create(PtId::kMarionette);

  CampaignOptions copts;
  copts.website_reps = 2;
  Campaign campaign(scenario, copts);
  auto sites = Campaign::take_sites(scenario.tranco(), 3);

  auto tor_times = elapsed_seconds(campaign.run_website_curl(tor, sites));
  auto mar_times =
      elapsed_seconds(campaign.run_website_curl(marionette, sites));
  ASSERT_FALSE(tor_times.empty());
  ASSERT_FALSE(mar_times.empty());
  EXPECT_GT(stats::mean(mar_times), 4 * stats::mean(tor_times));
}

TEST(CampaignDeterminism, SameSeedSameResults) {
  auto run_once = [] {
    ScenarioConfig cfg;
    cfg.seed = 7007;
    cfg.tranco_sites = 3;
    cfg.cbl_sites = 0;
    Scenario scenario(cfg);
    TransportFactory factory(scenario);
    PtStack stack = factory.create(PtId::kObfs4);
    CampaignOptions copts;
    copts.website_reps = 2;
    Campaign campaign(scenario, copts);
    auto sites = Campaign::take_sites(scenario.tranco(), 3);
    return elapsed_seconds(campaign.run_website_curl(stack, sites));
  };
  auto a = run_once();
  auto b = run_once();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
}

TEST(WirelessBehavior, SlightlySlowerSameOrdering) {
  auto measure = [](bool wireless) {
    ScenarioConfig cfg;
    cfg.seed = 7008;
    cfg.wireless_client = wireless;
    cfg.tranco_sites = 4;
    cfg.cbl_sites = 0;
    Scenario scenario(cfg);
    TransportFactory factory(scenario);
    PtStack tor = factory.create_vanilla();
    PtStack meek = factory.create(PtId::kMeek);
    CampaignOptions copts;
    copts.website_reps = 2;
    Campaign campaign(scenario, copts);
    auto sites = Campaign::take_sites(scenario.tranco(), 4);
    double tor_mean =
        stats::mean(elapsed_seconds(campaign.run_website_curl(tor, sites)));
    double meek_mean =
        stats::mean(elapsed_seconds(campaign.run_website_curl(meek, sites)));
    return std::make_pair(tor_mean, meek_mean);
  };
  auto wired = measure(false);
  auto wifi = measure(true);
  // Ordering preserved in both media (the paper's §4.7 conclusion).
  EXPECT_LT(wired.first, wired.second);
  EXPECT_LT(wifi.first, wifi.second);
}

}  // namespace
}  // namespace ptperf
