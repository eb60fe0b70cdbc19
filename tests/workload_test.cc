// Workload layer tests: corpus generation, the web server, the fetchers
// (curl/selenium), speed index, and reliability classification.
#include <gtest/gtest.h>

#include "ptperf/campaign.h"
#include "ptperf/transports.h"
#include "workload/website.h"

namespace ptperf::workload {
namespace {

TEST(Corpus, DeterministicUnderSeed) {
  Corpus a = Corpus::generate(CorpusKind::kTranco, 50, sim::Rng(1));
  Corpus b = Corpus::generate(CorpusKind::kTranco, 50, sim::Rng(1));
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.sites()[i].hostname, b.sites()[i].hostname);
    EXPECT_EQ(a.sites()[i].default_page_bytes, b.sites()[i].default_page_bytes);
    EXPECT_EQ(a.sites()[i].resources.size(), b.sites()[i].resources.size());
  }
}

TEST(Corpus, ReasonablePageSizes) {
  Corpus c = Corpus::generate(CorpusKind::kTranco, 200, sim::Rng(2));
  for (const Website& w : c.sites()) {
    EXPECT_GE(w.default_page_bytes, 2'000u);
    EXPECT_LE(w.default_page_bytes, 2'000'000u);
    EXPECT_GE(w.resources.size(), 3u);
    EXPECT_GT(w.total_bytes(), w.default_page_bytes);
  }
}

TEST(Corpus, CblSitesSmallerOnAverage) {
  Corpus tranco = Corpus::generate(CorpusKind::kTranco, 300, sim::Rng(3));
  Corpus cbl = Corpus::generate(CorpusKind::kCbl, 300, sim::Rng(3));
  auto avg = [](const Corpus& c) {
    double sum = 0;
    for (const Website& w : c.sites()) sum += static_cast<double>(w.default_page_bytes);
    return sum / static_cast<double>(c.size());
  };
  EXPECT_GT(avg(tranco), avg(cbl));
}

TEST(Corpus, FindByHostname) {
  Corpus c = Corpus::generate(CorpusKind::kCbl, 10, sim::Rng(4));
  EXPECT_NE(c.find("site0003.cbl"), nullptr);
  EXPECT_EQ(c.find("site0003.tranco"), nullptr);
  EXPECT_EQ(c.find("nope"), nullptr);
}

TEST(FileTargets, StandardSizes) {
  auto sizes = standard_file_sizes();
  ASSERT_EQ(sizes.size(), 5u);
  EXPECT_EQ(sizes[0], 5u << 20);
  EXPECT_EQ(sizes[4], 100u << 20);
  EXPECT_EQ(file_target_name(5u << 20), "file5mb");
  EXPECT_EQ(file_target_name(100u << 20), "file100mb");
}

struct WorkloadFixture : ::testing::Test {
  ScenarioConfig cfg;
  std::unique_ptr<Scenario> scenario;
  PtStack stack;

  void SetUp() override {
    cfg.seed = 91;
    cfg.tranco_sites = 4;
    cfg.cbl_sites = 2;
    scenario = std::make_unique<Scenario>(cfg);
    stack = TransportFactory(*scenario).create_vanilla();
  }
};

TEST_F(WorkloadFixture, CurlFetchReportsSizesAndTimes) {
  const Website& site = scenario->tranco().sites()[2];
  FetchResult result;
  bool done = false;
  stack.fetcher->fetch(site.hostname, "/", sim::from_seconds(60),
                       [&](FetchResult r) {
                         result = std::move(r);
                         done = true;
                       });
  scenario->loop().run_until_done([&] { return done; });
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.expected_bytes, site.default_page_bytes);
  EXPECT_GE(result.ttfb(), 0.0);
  EXPECT_LE(result.ttfb(), result.elapsed());
  EXPECT_EQ(result.fraction(), 1.0);
}

TEST_F(WorkloadFixture, FetchSubresource) {
  const Website& site = scenario->tranco().sites()[0];
  ASSERT_GT(site.resources.size(), 1u);
  FetchResult result;
  bool done = false;
  stack.fetcher->fetch(site.hostname, "/r1", sim::from_seconds(60),
                       [&](FetchResult r) {
                         result = std::move(r);
                         done = true;
                       });
  scenario->loop().run_until_done([&] { return done; });
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.expected_bytes, site.resources[1].size_bytes);
}

TEST_F(WorkloadFixture, UnknownTargetIs404) {
  const Website& site = scenario->tranco().sites()[0];
  FetchResult result;
  bool done = false;
  stack.fetcher->fetch(site.hostname, "/r9999", sim::from_seconds(60),
                       [&](FetchResult r) {
                         result = std::move(r);
                         done = true;
                       });
  scenario->loop().run_until_done([&] { return done; });
  EXPECT_FALSE(result.success);
  EXPECT_NE(result.error.find("404"), std::string::npos);
}

TEST_F(WorkloadFixture, TimeoutProducesPartial) {
  // An unreasonably small timeout cannot finish a 5 MB transfer.
  FetchResult result;
  bool done = false;
  stack.fetcher->fetch("files.example", "/file5mb", sim::from_seconds(2),
                       [&](FetchResult r) {
                         result = std::move(r);
                         done = true;
                       });
  scenario->loop().run_until_done([&] { return done; });
  EXPECT_FALSE(result.success);
  EXPECT_TRUE(result.timed_out);
  EXPECT_LT(result.fraction(), 1.0);
}

TEST_F(WorkloadFixture, PageLoadFetchesAllResources) {
  const Website& site = scenario->tranco().sites()[1];
  PageLoadResult result;
  bool done = false;
  stack.fetcher->fetch_page(site, [&](PageLoadResult r) {
    result = std::move(r);
    done = true;
  });
  scenario->loop().run_until_done([&] { return done; });
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.resources.size(), site.resources.size());
  EXPECT_GT(result.load_time_s, result.page.elapsed());
  for (const FetchResult& r : result.resources) EXPECT_TRUE(r.success);
}

TEST_F(WorkloadFixture, SpeedIndexBelowLoadTime) {
  const Website& site = scenario->tranco().sites()[3];
  PageLoadResult result;
  bool done = false;
  stack.fetcher->fetch_page(site, [&](PageLoadResult r) {
    result = std::move(r);
    done = true;
  });
  scenario->loop().run_until_done([&] { return done; });
  ASSERT_TRUE(result.success);
  double si = speed_index(site, result);
  EXPECT_GT(si, 0.0);
  EXPECT_LT(si, result.load_time_s);
}

TEST(Classification, OutcomeRules) {
  FetchResult complete;
  complete.success = true;
  complete.expected_bytes = 100;
  complete.received_bytes = 100;
  EXPECT_EQ(classify(complete), DownloadOutcome::kComplete);

  FetchResult partial;
  partial.success = false;
  partial.expected_bytes = 100;
  partial.received_bytes = 40;
  EXPECT_EQ(classify(partial), DownloadOutcome::kPartial);
  EXPECT_NEAR(partial.fraction(), 0.4, 1e-12);

  FetchResult failed;
  failed.success = false;
  failed.received_bytes = 0;
  EXPECT_EQ(classify(failed), DownloadOutcome::kFailed);
  EXPECT_EQ(outcome_name(DownloadOutcome::kPartial), "partial");
}

TEST(Campaign, SampleCountsAndSiteMeans) {
  ScenarioConfig cfg;
  cfg.seed = 92;
  cfg.tranco_sites = 3;
  cfg.cbl_sites = 0;
  Scenario scenario(cfg);
  TransportFactory factory(scenario);
  PtStack stack = factory.create_vanilla();
  CampaignOptions copts;
  copts.website_reps = 2;
  Campaign campaign(scenario, copts);
  auto sites = Campaign::take_sites(scenario.tranco(), 3);

  auto samples = campaign.run_website_curl(stack, sites);
  EXPECT_EQ(samples.size(), 6u);  // 3 sites x 2 reps
  for (const WebsiteSample& s : samples) EXPECT_TRUE(s.result.success);

  auto means = per_site_means(samples);
  EXPECT_EQ(means.size(), 3u);
  for (double m : means) EXPECT_GT(m, 0.0);

  auto elapsed = elapsed_seconds(samples);
  EXPECT_EQ(elapsed.size(), 6u);
  auto ttfbs = ttfb_seconds(samples);
  EXPECT_EQ(ttfbs.size(), 6u);
}

}  // namespace
}  // namespace ptperf::workload
