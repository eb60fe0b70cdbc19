// Parallel-engine determinism: a sharded campaign must produce the same
// bytes whether its shards run on one thread or several, and the merged
// sample stream must follow plan order no matter which shard finishes
// first. Together with tests/determinism_test.cc (same-seed replay) this
// is the net under every future executor change; the TSan CI job runs this
// file too, so the executor answers to the race detector on every PR.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ptperf/ensemble.h"
#include "stats/table.h"

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

/// The full mixed campaign of the acceptance criteria: curl websites, bulk
/// files, and reliability with the paper fault plan active — every sample
/// encoded at full double precision, plus a CSV rendering, plus the merged
/// injected-fault counters.
struct MixedTrace {
  std::vector<std::string> website;
  std::vector<std::string> files;
  std::vector<std::string> reliability;
  std::string website_csv;
  std::vector<std::uint64_t> fault_counts;
};

ShardedCampaignConfig small_config(std::uint64_t seed, int jobs) {
  ShardedCampaignConfig cfg;
  cfg.scenario.seed = seed;
  cfg.scenario.tranco_sites = 2;
  cfg.scenario.cbl_sites = 1;
  cfg.campaign.website_reps = 2;
  cfg.campaign.file_reps = 2;
  cfg.campaign.file_timeout = sim::from_seconds(120);
  cfg.jobs = jobs;
  return cfg;
}

std::vector<std::optional<PtId>> mixed_pts() {
  // Vanilla + a fast PT + the PT most sensitive to RNG/timer plumbing.
  return {std::nullopt, PtId::kObfs4, PtId::kMeek};
}

MixedTrace run_mixed(std::uint64_t seed, int jobs) {
  MixedTrace trace;

  {
    EnsembleCampaign engine({small_config(seed, jobs), 1});
    auto runs = engine.run_website_curl(mixed_pts(), SiteSelection{2, 1});
    stats::Table table({"pt", "site", "rep", "sample"});
    for (const WebsiteSample& s : runs.first()) {
      std::string row = s.pt + "|" + s.site + "|" + std::to_string(s.rep) +
                        "|" + encode(s.result);
      trace.website.push_back(row);
      table.add_row({s.pt, s.site, std::to_string(s.rep), encode(s.result)});
    }
    trace.website_csv = table.to_csv();
  }
  {
    EnsembleCampaign engine({small_config(seed, jobs), 1});
    auto runs = engine.run_file_downloads(mixed_pts(), {1u << 20, 2u << 20});
    for (const FileSample& s : runs.first()) {
      trace.files.push_back(s.pt + "|" + std::to_string(s.size_bytes) + "|" +
                            std::to_string(s.rep) + "|" + encode(s.result));
    }
  }
  {
    ShardedCampaignConfig cfg = small_config(seed, jobs);
    cfg.configure_scenario = [](Scenario& scenario) {
      scenario.install_fault_plan(fault::FaultPlan::paper_section_4_6());
    };
    EnsembleCampaign engine({cfg, 1});
    RetryPolicy retry;
    retry.max_retries = 1;
    auto runs = engine.run_reliability(mixed_pts(), {1u << 20}, retry);
    for (const ReliabilitySample& s : runs.first()) {
      trace.reliability.push_back(
          s.pt + "|" + std::to_string(s.size_bytes) + "|" +
          std::to_string(s.rep) + "|" + std::to_string(s.attempts) + "|" +
          std::string(outcome_name(s.outcome)) + "|" + encode(s.result));
    }
    for (std::size_t k = 0;
         k < static_cast<std::size_t>(fault::FaultKind::kCount_); ++k) {
      trace.fault_counts.push_back(
          engine.injected_faults(static_cast<fault::FaultKind>(k)));
    }
  }
  return trace;
}

TEST(ParallelDeterminism, MixedCampaignIsByteIdenticalAcrossJobCounts) {
  MixedTrace sequential = run_mixed(4242, 1);
  MixedTrace parallel = run_mixed(4242, 4);
  ASSERT_FALSE(sequential.website.empty());
  ASSERT_FALSE(sequential.files.empty());
  ASSERT_FALSE(sequential.reliability.empty());
  EXPECT_EQ(sequential.website, parallel.website);
  EXPECT_EQ(sequential.files, parallel.files);
  EXPECT_EQ(sequential.reliability, parallel.reliability);
  EXPECT_EQ(sequential.website_csv, parallel.website_csv);
  EXPECT_EQ(sequential.fault_counts, parallel.fault_counts);
}

TEST(ParallelDeterminism, ParallelRunReplaysItself) {
  MixedTrace a = run_mixed(77, 3);
  MixedTrace b = run_mixed(77, 3);
  EXPECT_EQ(a.website, b.website);
  EXPECT_EQ(a.files, b.files);
  EXPECT_EQ(a.reliability, b.reliability);
}

TEST(ParallelDeterminism, PlanIsIndependentOfJobsAndSeedsAreNamespaced) {
  auto pts = mixed_pts();
  ShardPlan a = ShardPlan::build(9, pts, 10, 4);
  ShardPlan b = ShardPlan::build(9, pts, 10, 4);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.size(), pts.size() * 3);  // ceil(10/4) chunks per PT
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.shards()[i].seed, b.shards()[i].seed);
    EXPECT_EQ(a.shards()[i].item_begin, b.shards()[i].item_begin);
    EXPECT_EQ(a.shards()[i].item_end, b.shards()[i].item_end);
  }
  // Every shard lives in its own world: all seeds distinct.
  std::vector<std::uint64_t> seeds;
  for (const ShardSpec& s : a.shards()) seeds.push_back(s.seed);
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end());
  // Chunk seeds are namespaced by PT name, not plan position.
  EXPECT_EQ(a.shards()[0].seed, shard_seed(9, "tor", 0));
  EXPECT_EQ(a.shards()[3].seed, shard_seed(9, "obfs4", 0));
}

TEST(ParallelDeterminism, MergeOrderIgnoresCompletionOrder) {
  // Tasks finish in reverse index order (later indices sleep less), and a
  // completion log proves they really did; the merged result must still be
  // in index order.
  constexpr std::size_t kTasks = 6;
  std::vector<int> results(kTasks, -1);
  std::vector<std::size_t> completion_order;
  std::atomic<std::size_t> completed{0};
  std::mutex mu;
  ParallelExecutor executor(static_cast<int>(kTasks));
  executor.for_each(kTasks, [&](std::size_t i) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(10 * (kTasks - i)));
    results[i] = static_cast<int>(i);
    completed.fetch_add(1);
    std::lock_guard<std::mutex> lock(mu);
    completion_order.push_back(i);
  });
  ASSERT_EQ(completed.load(), kTasks);
  // All slots filled, in index order, regardless of completion order.
  for (std::size_t i = 0; i < kTasks; ++i)
    EXPECT_EQ(results[i], static_cast<int>(i));
  // Sanity: with 6 dedicated threads and strictly decreasing sleeps, at
  // least one later task must have finished before task 0.
  ASSERT_FALSE(completion_order.empty());
  EXPECT_NE(completion_order.front(), 0u);
}

TEST(ParallelDeterminism, ExecutorPropagatesTaskExceptions) {
  ParallelExecutor executor(2);
  EXPECT_THROW(
      executor.for_each(4,
                        [](std::size_t i) {
                          if (i == 2) throw std::runtime_error("shard 2");
                        }),
      std::runtime_error);
}

}  // namespace
}  // namespace ptperf
