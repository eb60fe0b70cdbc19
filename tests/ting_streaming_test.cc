// Tests for the Appendix-A.5 Ting tool and the §A.4 streaming extension.
#include <gtest/gtest.h>

#include "ptperf/transports.h"
#include "tor/ting.h"
#include "workload/streaming.h"

namespace ptperf {
namespace {

struct TingFixture : ::testing::Test {
  ScenarioConfig cfg;
  std::unique_ptr<Scenario> scenario;
  net::HostId echo_host = 0;
  std::shared_ptr<tor::TorClient> client;

  void SetUp() override {
    cfg.seed = 555;
    cfg.tranco_sites = 1;
    cfg.cbl_sites = 0;
    scenario = std::make_unique<Scenario>(cfg);
    echo_host = scenario->add_infra_host("echo", cfg.client_region, 1000, 0);
    tor::start_echo_server(scenario->network(), echo_host);
    scenario->add_exit_alias("ting.echo", echo_host);
    client = scenario->make_tor_client(scenario->client_host());
  }
};

TEST_F(TingFixture, ShortCircuitsWork) {
  // 1-hop and 2-hop pinned circuits must build and carry streams (the
  // generalized circuit machinery Ting depends on).
  for (std::vector<tor::RelayIndex> hops :
       {std::vector<tor::RelayIndex>{0}, std::vector<tor::RelayIndex>{0, 1}}) {
    bool done = false;
    bool ok = false;
    client->build_circuit_path(hops, [&](std::optional<tor::TorCircuit> c,
                                         std::string) {
      ok = c.has_value();
      done = true;
      if (c) c->close();
    });
    scenario->loop().run_until_done([&] { return done; });
    EXPECT_TRUE(ok) << hops.size() << " hops";
  }
}

TEST_F(TingFixture, MeasuresRelayPairLatency) {
  tor::TingResult result;
  bool done = false;
  tor::ting_measure(client, "ting.echo:80", 2, 9, {},
                    [&](tor::TingResult r) {
                      result = std::move(r);
                      done = true;
                    });
  scenario->loop().run_until_done([&] { return done; });

  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_GT(result.rtt_x_s, 0);
  EXPECT_GT(result.rtt_y_s, 0);
  EXPECT_GT(result.rtt_xy_s, result.rtt_x_s / 2);
  // Estimate must land within per-hop-processing slack of the truth.
  double true_owd = sim::to_seconds(scenario->network().topology().one_way(
      scenario->consensus().at(2).region, scenario->consensus().at(9).region));
  EXPECT_GT(result.link_latency_s, 0);
  EXPECT_NEAR(result.link_latency_s, true_owd, 0.35);
}

TEST_F(TingFixture, PtLimitationReported) {
  tor::TingTargetView pt_view;
  pt_view.is_pluggable_transport = true;
  pt_view.server_can_be_middle_hop = false;
  pt_view.name = "obfs4";
  auto why = tor::ting_pt_limitation(pt_view);
  ASSERT_TRUE(why);
  EXPECT_NE(why->find("first hop"), std::string::npos);

  tor::TingTargetView relay_view;
  relay_view.is_pluggable_transport = false;
  EXPECT_FALSE(tor::ting_pt_limitation(relay_view));
}

TEST(StreamTarget, ParseRoundTrip) {
  workload::StreamingSpec spec;
  spec.bitrate_kbps = 256;
  spec.duration = sim::from_seconds(60);
  std::string target = workload::stream_target(spec);
  EXPECT_EQ(target, "/stream256kbps60s");
  double rate = 0, secs = 0;
  ASSERT_TRUE(workload::parse_stream_target(target, &rate, &secs));
  EXPECT_EQ(rate, 256);
  EXPECT_EQ(secs, 60);
  EXPECT_FALSE(workload::parse_stream_target("/file5mb", &rate, &secs));
  EXPECT_FALSE(workload::parse_stream_target("/stream-5kbps1s", &rate, &secs));
}

TEST(Streaming, VanillaTorPlaysCleanly) {
  ScenarioConfig cfg;
  cfg.seed = 556;
  cfg.tranco_sites = 1;
  cfg.cbl_sites = 0;
  Scenario scenario(cfg);
  TransportFactory factory(scenario);
  PtStack stack = factory.create_vanilla();

  workload::StreamingSpec spec;
  spec.bitrate_kbps = 256;
  spec.duration = sim::from_seconds(30);

  workload::StreamingResult result;
  bool done = false;
  workload::StreamingClient sc(scenario.loop(), stack.dialer);
  sc.play(spec, sim::from_seconds(300), [&](workload::StreamingResult r) {
    result = std::move(r);
    done = true;
  });
  scenario.loop().run_until_done([&] { return done; });

  EXPECT_TRUE(result.started);
  EXPECT_TRUE(result.completed) << result.error;
  EXPECT_GE(result.startup_delay_s, 0);
  EXPECT_LT(result.startup_delay_s, 10);
  EXPECT_EQ(result.rebuffer_events, 0);
  EXPECT_LT(result.stall_ratio(spec), 0.05);
}

TEST(Streaming, MarionetteStallsBelowBitrate) {
  // 256 kbps needs 32 KB/s; marionette's automaton sustains only a few
  // KB/s, so the stream must rebuffer heavily or never complete.
  ScenarioConfig cfg;
  cfg.seed = 557;
  cfg.tranco_sites = 1;
  cfg.cbl_sites = 0;
  Scenario scenario(cfg);
  TransportFactory factory(scenario);
  PtStack stack = factory.create(PtId::kMarionette);

  workload::StreamingSpec spec;
  spec.bitrate_kbps = 256;
  spec.duration = sim::from_seconds(30);

  workload::StreamingResult result;
  bool done = false;
  workload::StreamingClient sc(scenario.loop(), stack.dialer);
  sc.play(spec, sim::from_seconds(600), [&](workload::StreamingResult r) {
    result = std::move(r);
    done = true;
  });
  scenario.loop().run_until_done([&] { return done; });

  EXPECT_TRUE(result.started);
  // Either it stalls repeatedly or the resolver cuts the session.
  EXPECT_TRUE(result.rebuffer_events >= 2 || !result.completed)
      << "rebuffers=" << result.rebuffer_events;
  if (result.completed) {
    EXPECT_GT(result.stall_ratio(spec), 0.2);
  }
}

TEST(Streaming, ServerPacesAtBitrate) {
  // The origin pushes at the encoding rate: direct fetch of the stream
  // target cannot finish much faster than its duration.
  ScenarioConfig cfg;
  cfg.seed = 558;
  cfg.tranco_sites = 1;
  cfg.cbl_sites = 0;
  Scenario scenario(cfg);
  TransportFactory factory(scenario);
  PtStack stack = factory.create_vanilla();

  bool done = false;
  double elapsed = -1;
  stack.fetcher->fetch("files.example", "/stream256kbps20s",
                       sim::from_seconds(300), [&](workload::FetchResult r) {
                         if (r.success) elapsed = r.elapsed();
                         done = true;
                       });
  scenario.loop().run_until_done([&] { return done; });
  ASSERT_GT(elapsed, 0);
  EXPECT_GT(elapsed, 18.0);  // ~20 s of media cannot arrive in 5 s
  EXPECT_LT(elapsed, 40.0);
}

}  // namespace
}  // namespace ptperf
