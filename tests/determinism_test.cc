// Whole-campaign determinism: the same seed must reproduce every sample
// byte-for-byte, including timings at full double precision. Guards the
// named-RNG-stream plumbing (and every future refactor of it) that both
// the paper-methodology replays and the fault-injection layer rely on.
// The CampaignContract tests pin what Campaign's one measurement loop
// relies on: a file download run is a reliability run with no retries,
// event for event, and an empty item list runs nothing.
#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "fault/fault_plan.h"
#include "population/contention.h"
#include "ptperf/campaign.h"

namespace ptperf {
namespace {

std::string hex(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

std::string encode(const workload::FetchResult& r) {
  return r.target + "|" + hex(r.start_s) + "|" + hex(r.ttfb_s) + "|" +
         hex(r.complete_s) + "|" + std::to_string(r.expected_bytes) + "|" +
         std::to_string(r.received_bytes) + "|" + (r.success ? "ok" : "no") +
         "|" + (r.timed_out ? "T" : "t") + "|" + r.error;
}

struct CampaignTrace {
  std::vector<std::string> website;
  std::vector<std::string> files;
};

CampaignTrace run_once(std::uint64_t seed, PtId id) {
  ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.tranco_sites = 2;
  cfg.cbl_sites = 0;
  Scenario scenario(cfg);
  TransportFactory factory(scenario);
  PtStack stack = factory.create(id);

  CampaignOptions copts;
  copts.website_reps = 2;
  copts.file_reps = 2;
  copts.file_timeout = sim::from_seconds(120);
  Campaign campaign(scenario, copts);

  CampaignTrace trace;
  auto sites = Campaign::take_sites(scenario.tranco(), 2);
  for (const WebsiteSample& s : campaign.run_website_curl(stack, sites))
    trace.website.push_back(s.pt + "|" + s.site + "|" + std::to_string(s.rep) +
                            "|" + encode(s.result));
  for (const FileSample& s : campaign.run_file_downloads(stack, {1u << 20}))
    trace.files.push_back(s.pt + "|" + std::to_string(s.size_bytes) + "|" +
                          std::to_string(s.rep) + "|" + encode(s.result));
  return trace;
}

TEST(Determinism, SameSeedReplaysObfs4CampaignByteIdentically) {
  CampaignTrace a = run_once(9001, PtId::kObfs4);
  CampaignTrace b = run_once(9001, PtId::kObfs4);
  ASSERT_FALSE(a.website.empty());
  ASSERT_FALSE(a.files.empty());
  EXPECT_EQ(a.website, b.website);
  EXPECT_EQ(a.files, b.files);
}

TEST(Determinism, SameSeedReplaysMeekCampaignByteIdentically) {
  // meek exercises polling timers, per-session RNG forks, and the rate
  // cap — the paths most likely to pick up accidental nondeterminism.
  CampaignTrace a = run_once(9002, PtId::kMeek);
  CampaignTrace b = run_once(9002, PtId::kMeek);
  EXPECT_EQ(a.website, b.website);
  EXPECT_EQ(a.files, b.files);
}

TEST(Determinism, DifferentSeedsDiverge) {
  CampaignTrace a = run_once(9003, PtId::kObfs4);
  CampaignTrace b = run_once(9004, PtId::kObfs4);
  EXPECT_NE(a.website, b.website);
}

// ---------------------------------------------------------------------------
// CampaignContract

/// One world for the campaign contracts below: a seed, a stack, and the
/// hazards that make downloads fail.
struct World {
  std::uint64_t seed = 0;
  std::optional<PtId> pt;
  bool paper_faults = false;     // the §4.6 fault plan
  bool snowflake_surge = false;  // the post-September-2022 overload
};

/// Builds `w` and runs `body(scenario, campaign, stack)` in it.
template <typename Body>
void in_world(const World& w, const Body& body) {
  ScenarioConfig cfg;
  cfg.seed = w.seed;
  cfg.tranco_sites = 2;
  cfg.cbl_sites = 0;
  Scenario scenario(cfg);
  if (w.paper_faults)
    scenario.install_fault_plan(fault::FaultPlan::paper_section_4_6());
  TransportFactory factory(scenario);
  PtStack stack = w.pt ? factory.create(*w.pt) : factory.create_vanilla();
  if (w.snowflake_surge && stack.snowflake)
    population::apply_regime(*stack.snowflake, true);
  CampaignOptions copts;
  copts.website_reps = 2;
  copts.file_reps = 2;
  copts.file_timeout = sim::from_seconds(120);
  Campaign campaign(scenario, copts);
  body(scenario, campaign, stack);
}

TEST(CampaignContract, FileDownloadsAreAReliabilityRunWithoutRetries) {
  // With the default RetryPolicy no retry ever fires, so a reliability run
  // schedules exactly the events of a plain download run: on two worlds
  // with the same seed the samples agree field for field and the loops
  // end at the same event count and virtual time — failed downloads
  // included.
  const std::vector<std::size_t> sizes{1u << 20, 2u << 20};
  const World worlds[] = {
      {9101, std::nullopt, true, false},
      {9102, PtId::kObfs4, true, false},
      {9103, PtId::kSnowflake, false, true},
      {9104, PtId::kMeek, true, false},
  };
  std::size_t not_complete = 0;
  for (const World& w : worlds) {
    std::vector<FileSample> files;
    std::size_t file_events = 0;
    sim::TimePoint file_end{};
    in_world(w, [&](Scenario& scenario, Campaign& campaign, PtStack& stack) {
      files = campaign.run_file_downloads(stack, sizes);
      file_events = scenario.loop().events_executed();
      file_end = scenario.loop().now();
    });
    std::vector<ReliabilitySample> reliability;
    std::size_t reliability_events = 0;
    sim::TimePoint reliability_end{};
    in_world(w, [&](Scenario& scenario, Campaign& campaign, PtStack& stack) {
      reliability = campaign.run_reliability(stack, sizes, RetryPolicy{});
      reliability_events = scenario.loop().events_executed();
      reliability_end = scenario.loop().now();
    });

    ASSERT_EQ(files.size(), sizes.size() * 2) << "seed " << w.seed;
    ASSERT_EQ(reliability.size(), files.size()) << "seed " << w.seed;
    for (std::size_t i = 0; i < files.size(); ++i) {
      const FileSample& f = files[i];
      const ReliabilitySample& r = reliability[i];
      EXPECT_EQ(r.pt, f.pt);
      EXPECT_EQ(r.size_bytes, f.size_bytes);
      EXPECT_EQ(r.rep, f.rep);
      EXPECT_EQ(encode(r.result), encode(f.result))
          << "seed " << w.seed << " sample " << i;
      EXPECT_EQ(r.attempts, 1);
      EXPECT_EQ(r.outcome, classify(r.result));
      if (r.outcome != DownloadOutcome::kComplete) ++not_complete;
    }
    EXPECT_EQ(reliability_events, file_events) << "seed " << w.seed;
    EXPECT_EQ(reliability_end, file_end) << "seed " << w.seed;
  }
  // The worlds were picked so that some downloads fail or stop short;
  // without that the comparison would only cover the happy path.
  EXPECT_GT(not_complete, 0u);
}

TEST(CampaignContract, EmptyItemListsRunNothing) {
  in_world({9105, PtId::kObfs4}, [](Scenario& scenario, Campaign& campaign,
                                    PtStack& stack) {
    sim::EventLoop& loop = scenario.loop();
    const std::size_t events = loop.events_executed();
    const sim::TimePoint now = loop.now();
    EXPECT_TRUE(campaign.run_website_curl(stack, {}).empty());
    EXPECT_TRUE(campaign.run_website_selenium(stack, {}).empty());
    EXPECT_TRUE(campaign.run_file_downloads(stack, {}).empty());
    EXPECT_TRUE(campaign.run_reliability(stack, {}, RetryPolicy{}).empty());
    EXPECT_EQ(loop.events_executed(), events);
    EXPECT_EQ(loop.now(), now);
  });
}

}  // namespace
}  // namespace ptperf
