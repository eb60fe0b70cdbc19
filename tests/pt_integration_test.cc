// End-to-end integration: each pluggable transport must carry a complete
// website fetch (SOCKS -> tunnel -> circuit -> exit -> web server) inside
// a fresh scenario, deterministically under a fixed seed.
#include <gtest/gtest.h>

#include "ptperf/transports.h"

namespace ptperf {
namespace {

class PtIntegration : public ::testing::TestWithParam<PtId> {};

TEST_P(PtIntegration, FetchesDefaultPage) {
  ScenarioConfig cfg;
  cfg.seed = 7;
  cfg.tranco_sites = 3;
  cfg.cbl_sites = 0;
  Scenario scenario(cfg);
  TransportFactory factory(scenario);
  PtStack stack = factory.create(GetParam());

  const workload::Website& site = scenario.tranco().sites()[1];
  workload::FetchResult result;
  bool done = false;
  stack.fetcher->fetch(site.hostname, "/", sim::from_seconds(300),
                       [&](workload::FetchResult r) {
                         result = std::move(r);
                         done = true;
                       });
  scenario.loop().run_until_done([&] { return done; });

  ASSERT_TRUE(done) << stack.name();
  EXPECT_TRUE(result.success) << stack.name() << ": " << result.error;
  EXPECT_EQ(result.received_bytes, site.default_page_bytes) << stack.name();
  EXPECT_GT(result.elapsed(), 0.0) << stack.name();
  EXPECT_LT(result.elapsed(), 200.0) << stack.name();
}

TEST_P(PtIntegration, SurvivesRepeatedFetchesWithNewCircuits) {
  ScenarioConfig cfg;
  cfg.seed = 11;
  cfg.tranco_sites = 3;
  cfg.cbl_sites = 0;
  Scenario scenario(cfg);
  TransportFactory factory(scenario);
  PtStack stack = factory.create(GetParam());

  int completed = 0;
  int successes = 0;
  std::function<void(int)> next = [&](int i) {
    if (i >= 3) return;
    stack.socks->new_identity();
    const workload::Website& site = scenario.tranco().sites()[i];
    stack.fetcher->fetch(site.hostname, "/", sim::from_seconds(300),
                         [&, i](workload::FetchResult r) {
                           ++completed;
                           if (r.success) ++successes;
                           next(i + 1);
                         });
  };
  next(0);
  scenario.loop().run_until_done([&] { return completed == 3; });

  EXPECT_EQ(completed, 3) << stack.name();
  EXPECT_EQ(successes, 3) << stack.name();
}

INSTANTIATE_TEST_SUITE_P(
    AllTransports, PtIntegration, ::testing::ValuesIn(all_pt_ids()),
    [](const ::testing::TestParamInfo<PtId>& info) {
      return std::string(pt_id_name(info.param));
    });

TEST(VanillaBaseline, FetchesDefaultPage) {
  ScenarioConfig cfg;
  cfg.seed = 7;
  cfg.tranco_sites = 3;
  cfg.cbl_sites = 0;
  Scenario scenario(cfg);
  TransportFactory factory(scenario);
  PtStack stack = factory.create_vanilla();

  const workload::Website& site = scenario.tranco().sites()[0];
  bool ok = false;
  bool done = false;
  stack.fetcher->fetch(site.hostname, "/", sim::from_seconds(120),
                       [&](workload::FetchResult r) {
                         ok = r.success;
                         done = true;
                       });
  scenario.loop().run_until_done([&] { return done; });
  EXPECT_TRUE(ok);
}

}  // namespace
}  // namespace ptperf
