// End-to-end smoke: vanilla Tor client fetches a page through a full
// simulated circuit (SOCKS5 -> 3-hop circuit -> exit -> web server).
#include <gtest/gtest.h>

#include "ptperf/transports.h"

namespace ptperf {
namespace {

TEST(Smoke, VanillaTorFetchCompletes) {
  ScenarioConfig cfg;
  cfg.seed = 42;
  cfg.tranco_sites = 5;
  cfg.cbl_sites = 0;
  Scenario scenario(cfg);
  PtStack stack = TransportFactory(scenario).create_vanilla();

  workload::FetchResult result;
  bool done = false;
  const workload::Website& site = scenario.tranco().sites()[0];
  stack.fetcher->fetch(site.hostname, "/", sim::from_seconds(120),
                       [&](workload::FetchResult r) {
                         result = std::move(r);
                         done = true;
                       });
  scenario.loop().run();

  ASSERT_TRUE(done);
  EXPECT_TRUE(result.success) << result.error;
  EXPECT_EQ(result.expected_bytes, site.default_page_bytes);
  EXPECT_EQ(result.received_bytes, site.default_page_bytes);
  EXPECT_GT(result.elapsed(), 0.0);
  EXPECT_LT(result.elapsed(), 30.0);
  EXPECT_GT(result.ttfb(), 0.0);
  EXPECT_LT(result.ttfb(), result.elapsed() + 1e-9);
}

}  // namespace
}  // namespace ptperf
