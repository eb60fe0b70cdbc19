// massbrowser: the invite-code gate (Table 2's "requires invite-code from
// authors") and the happy path when the code is right.
#include <gtest/gtest.h>

#include "pt/massbrowser.h"
#include "ptperf/scenario.h"
#include "ptperf/transports.h"

namespace ptperf {
namespace {

struct MassbrowserFixture : ::testing::Test {
  ScenarioConfig cfg;
  std::unique_ptr<Scenario> scenario;

  void SetUp() override {
    cfg.seed = 909;
    cfg.tranco_sites = 2;
    cfg.cbl_sites = 0;
    scenario = std::make_unique<Scenario>(cfg);
  }

  pt::MassbrowserConfig base_config() {
    pt::MassbrowserConfig mb;
    mb.client_host = scenario->client_host();
    mb.operator_host =
        scenario->add_infra_host("mb-op", net::Region::kUsEast, 1000, 0.1);
    for (int i = 0; i < 3; ++i) {
      net::HostTraits traits;
      traits.up_mbps = 50;
      traits.down_mbps = 100;
      mb.buddy_hosts.push_back(scenario->network().add_host(
          "mb-buddy" + std::to_string(i), net::Region::kEuropeWest, traits));
    }
    return mb;
  }
};

TEST_F(MassbrowserFixture, WorksWithIssuedCode) {
  pt::MassbrowserConfig mb = base_config();
  mb.access_code = mb.issued_code;
  auto transport = std::make_shared<pt::MassbrowserTransport>(
      scenario->network(), scenario->consensus(), scenario->fork_rng("mb"),
      mb);
  PtStack stack = TransportFactory(*scenario).attach(transport);

  const auto& site = scenario->tranco().sites()[0];
  workload::FetchResult result;
  bool done = false;
  stack.fetcher->fetch(site.hostname, "/", sim::from_seconds(120),
                       [&](workload::FetchResult r) {
                         result = std::move(r);
                         done = true;
                       });
  scenario->loop().run_until_done([&] { return done; });
  EXPECT_TRUE(result.success) << result.error;
  EXPECT_EQ(result.received_bytes, site.default_page_bytes);
}

TEST_F(MassbrowserFixture, RejectedWithoutInvite) {
  pt::MassbrowserConfig mb = base_config();
  mb.access_code = "guessed-code";
  auto transport = std::make_shared<pt::MassbrowserTransport>(
      scenario->network(), scenario->consensus(), scenario->fork_rng("mb2"),
      mb);
  PtStack stack = TransportFactory(*scenario).attach(transport);

  const auto& site = scenario->tranco().sites()[1];
  workload::FetchResult result;
  bool done = false;
  stack.fetcher->fetch(site.hostname, "/", sim::from_seconds(60),
                       [&](workload::FetchResult r) {
                         result = std::move(r);
                         done = true;
                       });
  scenario->loop().run_until_done([&] { return done; });
  EXPECT_FALSE(result.success);
}

}  // namespace
}  // namespace ptperf
