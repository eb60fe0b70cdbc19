// Crash-equivalence suite for checkpoint/resume (docs/CHECKPOINTING.md):
// a campaign killed after ANY number of completed shard units and resumed
// from its snapshot must merge to byte-identical samples — at every kill
// point k, at --jobs 1 and 4, at --repeats 1 and 3, for a fig5-like file
// campaign and a fig8-like faulted reliability campaign. The kill is the
// in-process simulate_crash_after() hook: the snapshot freezes at unit k
// exactly as if the process died between shard boundaries, then a second
// store resumes from it. Bench-binary-level checks cover the CLI contract:
// --checkpoint leaves goldens byte-identical, a completed snapshot resumes
// to identical CSVs, fingerprint mismatches and flag misuse exit 2, and a
// checkpointed fig12 monitor extends a shorter run byte-identically.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fault/fault_plan.h"
#include "ptperf/checkpoint.h"
#include "ptperf/ensemble.h"
#include "sim/rng.h"

namespace ptperf {
namespace {

class TempDir {
 public:
  TempDir() {
    std::string tmpl = ::testing::TempDir() + "ckresume_XXXXXX";
    dir_ = mkdtemp(tmpl.data());
  }
  ~TempDir() {
    if (dir_.empty()) return;
    std::string cmd = "rm -rf '" + dir_ + "'";
    [[maybe_unused]] int rc = std::system(cmd.c_str());
  }
  const std::string& path() const { return dir_; }

 private:
  std::string dir_;
};

// ---------------------------------------------------------------------------
// Sample encodings (hex-float, bit-exact — the in-process analogue of
// byte-comparing CSVs)

std::string encode(const workload::FetchResult& r) {
  char a[48], b[48], c[48];
  std::snprintf(a, sizeof a, "%a", r.start_s);
  std::snprintf(b, sizeof b, "%a", r.ttfb_s);
  std::snprintf(c, sizeof c, "%a", r.complete_s);
  return r.target + "|" + a + "|" + b + "|" + c + "|" +
         std::to_string(r.expected_bytes) + "|" +
         std::to_string(r.received_bytes) + "|" + (r.success ? "ok" : "no");
}

std::vector<std::string> encode_runs(const EnsembleRuns<FileSample>& runs) {
  std::vector<std::string> out;
  for (const auto& rep : runs.reps)
    for (const FileSample& s : rep)
      out.push_back(s.pt + "|" + std::to_string(s.size_bytes) + "|" +
                    std::to_string(s.rep) + "|" + encode(s.result));
  return out;
}

std::vector<std::string> encode_runs(
    const EnsembleRuns<ReliabilitySample>& runs) {
  std::vector<std::string> out;
  for (const auto& rep : runs.reps)
    for (const ReliabilitySample& s : rep)
      out.push_back(s.pt + "|" + std::to_string(s.size_bytes) + "|" +
                    std::to_string(s.rep) + "|" +
                    std::to_string(s.attempts) + "|" +
                    std::string(outcome_name(s.outcome)) + "|" +
                    encode(s.result));
  return out;
}

// ---------------------------------------------------------------------------
// In-process campaigns: fig5-like (file downloads) and fig8-like
// (reliability under the paper fault plan, with retries)

// At least 1 MiB: file_target_name rounds to whole MB, and /file0mb is a
// 404, so smaller sizes would sweep campaigns that transfer nothing.
const std::vector<std::size_t> kSizes{1u << 20, 2u << 20};

std::vector<std::optional<PtId>> small_pts() {
  return {std::nullopt, PtId::kObfs4, PtId::kMeek};
}

EnsembleCampaignConfig fig5_like(int jobs, int repeats) {
  ShardedCampaignConfig base;
  base.scenario.seed = 1;
  base.scenario.tranco_sites = 2;
  base.scenario.cbl_sites = 0;
  base.campaign.file_reps = 1;
  base.campaign.file_timeout = sim::from_seconds(120);
  base.jobs = jobs;
  base.items_per_shard = 1;  // one size per shard: more kill points
  return {base, repeats};
}

EnsembleCampaignConfig fig8_like(int jobs, int repeats) {
  EnsembleCampaignConfig cfg = fig5_like(jobs, repeats);
  cfg.base.configure_scenario = [](Scenario& scenario) {
    scenario.install_fault_plan(fault::FaultPlan::paper_section_4_6());
  };
  return cfg;
}

RetryPolicy fig8_retry() {
  RetryPolicy retry;
  retry.max_retries = 1;
  return retry;
}

checkpoint::Fingerprint fp_for(const char* figure, int jobs, int repeats) {
  checkpoint::Fingerprint fp;
  fp.figure = figure;
  fp.seed = 1;
  fp.scale = 1;
  fp.jobs = jobs;
  fp.repeats = repeats;
  fp.flags = "inproc";
  return fp;
}

std::shared_ptr<checkpoint::Store> make_store(const std::string& dir,
                                              const char* figure, int jobs,
                                              int repeats, bool resume) {
  return std::make_shared<checkpoint::Store>(
      checkpoint::Options{dir, 1, resume}, fp_for(figure, jobs, repeats));
}

template <typename Sample>
bool moves_a_whole_file(const EnsembleRuns<Sample>& runs) {
  for (const auto& rep : runs.reps)
    for (const Sample& s : rep)
      if (s.result.success && s.result.received_bytes == s.size_bytes)
        return true;
  return false;
}

/// Runs the full kill-point sweep for one (jobs, repeats) cell of one
/// campaign type: baseline without checkpointing (which must complete at
/// least one download), uninterrupted with checkpointing (must not perturb
/// output), then for every k in 1..U a run killed after k units and a
/// resumed run that must reproduce the baseline bit-for-bit.
template <typename RunFn>
void sweep_kill_points(const char* figure, int jobs, int repeats,
                       const RunFn& run_samples) {
  auto run = [&](std::shared_ptr<checkpoint::Store> store) {
    return encode_runs(run_samples(std::move(store)));
  };
  auto first = run_samples(nullptr);
  EXPECT_TRUE(moves_a_whole_file(first))
      << figure << ": no download completed; the sweep is vacuous";
  std::vector<std::string> baseline = encode_runs(first);

  TempDir clean;
  auto full = make_store(clean.path(), figure, jobs, repeats, false);
  EXPECT_EQ(run(full), baseline)
      << figure << ": --checkpoint perturbed an uninterrupted run";
  std::size_t units = full->unit_count();
  ASSERT_GT(units, 0u);

  for (std::size_t k = 1; k <= units; ++k) {
    TempDir dir;
    auto killed = make_store(dir.path(), figure, jobs, repeats, false);
    killed->simulate_crash_after(k);
    run(killed);  // completes in-process; the snapshot froze at unit k

    auto resumed = make_store(dir.path(), figure, jobs, repeats, true);
    EXPECT_TRUE(resumed->resumed());
    EXPECT_EQ(resumed->unit_count(), k) << figure << " kill point " << k;
    EXPECT_EQ(run(resumed), baseline)
        << figure << ": resume after " << k << " of " << units
        << " units diverged (jobs=" << jobs << ", repeats=" << repeats << ")";
  }
}

class CrashEquivalence
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(CrashEquivalence, Fig5LikeFileCampaignResumesByteIdentically) {
  auto [jobs, repeats] = GetParam();
  sweep_kill_points("fig5like", jobs, repeats,
                    [&](std::shared_ptr<checkpoint::Store> store) {
                      EnsembleCampaignConfig cfg = fig5_like(jobs, repeats);
                      cfg.base.checkpoint = std::move(store);
                      EnsembleCampaign engine(cfg);
                      return engine.run_file_downloads(small_pts(), kSizes);
                    });
}

TEST_P(CrashEquivalence, Fig8LikeFaultedReliabilityResumesByteIdentically) {
  auto [jobs, repeats] = GetParam();
  sweep_kill_points("fig8like", jobs, repeats,
                    [&](std::shared_ptr<checkpoint::Store> store) {
                      EnsembleCampaignConfig cfg = fig8_like(jobs, repeats);
                      cfg.base.checkpoint = std::move(store);
                      EnsembleCampaign engine(cfg);
                      return engine.run_reliability(small_pts(), kSizes,
                                                    fig8_retry());
                    });
}

INSTANTIATE_TEST_SUITE_P(
    JobsByRepeats, CrashEquivalence,
    ::testing::Values(std::pair{1, 1}, std::pair{1, 3}, std::pair{4, 1},
                      std::pair{4, 3}),
    [](const ::testing::TestParamInfo<std::pair<int, int>>& info) {
      return "jobs" + std::to_string(info.param.first) + "repeats" +
             std::to_string(info.param.second);
    });

TEST(CrashEquivalenceCross, ResumeAtDifferentJobsMatchesBaseline) {
  // Kill at jobs=1, resume at jobs=4 (and vice versa): the snapshot is
  // jobs-agnostic, so the merged output must still match the baseline.
  auto run = [&](int jobs, std::shared_ptr<checkpoint::Store> store) {
    EnsembleCampaignConfig cfg = fig5_like(jobs, 2);
    cfg.base.checkpoint = std::move(store);
    EnsembleCampaign engine(cfg);
    return encode_runs(engine.run_file_downloads(small_pts(), kSizes));
  };
  std::vector<std::string> baseline = run(1, nullptr);

  TempDir dir;
  auto killed = make_store(dir.path(), "fig5like", 1, 2, false);
  killed->simulate_crash_after(3);
  run(1, killed);
  auto resumed = make_store(dir.path(), "fig5like", 4, 2, true);
  EXPECT_EQ(run(4, resumed), baseline);

  TempDir dir2;
  auto killed_wide = make_store(dir2.path(), "fig5like", 4, 2, false);
  killed_wide->simulate_crash_after(3);
  run(4, killed_wide);
  auto resumed_narrow = make_store(dir2.path(), "fig5like", 1, 2, true);
  EXPECT_EQ(run(1, resumed_narrow), baseline);
}

TEST(CrashEquivalenceCross, FaultCountersSurviveResume) {
  // Injected-fault counters are part of the snapshot unit; a resumed
  // engine must report the same totals as an uninterrupted one.
  auto make_engine = [&](std::shared_ptr<checkpoint::Store> store) {
    EnsembleCampaignConfig cfg = fig8_like(2, 1);
    cfg.base.checkpoint = std::move(store);
    return cfg;
  };
  EnsembleCampaign baseline(make_engine(nullptr));
  baseline.run_reliability(small_pts(), kSizes, fig8_retry());
  ASSERT_GT(baseline.total_injected_faults(), 0u)
      << "fault plan injected nothing; the test is vacuous";

  TempDir dir;
  auto killed = make_store(dir.path(), "fig8like", 2, 1, false);
  killed->simulate_crash_after(2);
  EnsembleCampaign first(make_engine(killed));
  first.run_reliability(small_pts(), kSizes, fig8_retry());

  auto resumed = make_store(dir.path(), "fig8like", 2, 1, true);
  EnsembleCampaign second(make_engine(resumed));
  second.run_reliability(small_pts(), kSizes, fig8_retry());
  for (int k = 0; k < static_cast<int>(fault::FaultKind::kCount_); ++k) {
    auto kind = static_cast<fault::FaultKind>(k);
    EXPECT_EQ(second.injected_faults(kind), baseline.injected_faults(kind))
        << "fault counter " << k << " diverged across resume";
  }
}

// ---------------------------------------------------------------------------
// Bench-binary-level CLI contract (BENCH_DIR injected by CMake)

int run_bench(const std::string& binary, const std::string& args) {
  std::string cmd = std::string(BENCH_DIR) + "/" + binary + " " + args +
                    " > /dev/null 2>&1";
  int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string read_csv_no_comments(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::string out, line;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] == '#') continue;
    out += line;
    out += '\n';
  }
  return out;
}

constexpr const char* kFig5 = "bench_fig5_file_download";
constexpr const char* kFig5Flags = "--scale 0.05 --seed 1 --jobs 2";

TEST(CheckpointBench, CheckpointedRunMatchesPlainRunByteForByte) {
  TempDir plain, checked, snap;
  ASSERT_EQ(run_bench(kFig5, std::string(kFig5Flags) + " --out '" +
                                plain.path() + "'"),
            0);
  ASSERT_EQ(run_bench(kFig5, std::string(kFig5Flags) + " --checkpoint '" +
                                snap.path() + "' --out '" + checked.path() +
                                "'"),
            0);
  EXPECT_EQ(read_csv_no_comments(plain.path() + "/fig5_times.csv"),
            read_csv_no_comments(checked.path() + "/fig5_times.csv"));

  // The snapshot now holds every unit: a --resume run replays everything
  // from it and must emit identical bytes again.
  TempDir resumed;
  ASSERT_EQ(run_bench(kFig5, std::string(kFig5Flags) + " --checkpoint '" +
                                snap.path() + "' --resume --out '" +
                                resumed.path() + "'"),
            0);
  EXPECT_EQ(read_csv_no_comments(plain.path() + "/fig5_times.csv"),
            read_csv_no_comments(resumed.path() + "/fig5_times.csv"));

  // Fingerprint refusals against the same snapshot: wrong seed, wrong
  // scale, wrong repeats all exit 2.
  TempDir refuse;
  std::string tail = "' --resume --out '" + refuse.path() + "'";
  EXPECT_EQ(run_bench(kFig5, "--scale 0.05 --seed 2 --jobs 2 --checkpoint '" +
                                snap.path() + tail),
            2);
  EXPECT_EQ(run_bench(kFig5, "--scale 0.1 --seed 1 --jobs 2 --checkpoint '" +
                                snap.path() + tail),
            2);
  EXPECT_EQ(run_bench(kFig5,
                      "--scale 0.05 --seed 1 --jobs 2 --repeats 3 "
                      "--checkpoint '" +
                          snap.path() + tail),
            2);
}

TEST(CheckpointBench, FlagMisuseExitsTwo) {
  TempDir out, snap;
  // --resume without --checkpoint.
  EXPECT_EQ(run_bench(kFig5, std::string(kFig5Flags) + " --resume --out '" +
                                out.path() + "'"),
            2);
  // --checkpoint with --trace (a resumed shard has no capture to replay).
  EXPECT_EQ(run_bench(kFig5, std::string(kFig5Flags) + " --checkpoint '" +
                                snap.path() + "' --trace '" + out.path() +
                                "/t.jsonl' --out '" + out.path() + "'"),
            2);
  // --resume from an empty checkpoint directory.
  EXPECT_EQ(run_bench(kFig5, std::string(kFig5Flags) + " --checkpoint '" +
                                snap.path() + "' --resume --out '" +
                                out.path() + "'"),
            2);
  // fig12 rejects --checkpoint outside --monitor.
  EXPECT_EQ(run_bench("bench_fig12_snowflake_monitor",
                      "--scale 0.05 --seed 1 --checkpoint '" + snap.path() +
                          "' --out '" + out.path() + "'"),
            2);
}

TEST(CheckpointBench, MonitorResumeExtendsTheWindowSeriesByteIdentically) {
  constexpr const char* kFig12 = "bench_fig12_snowflake_monitor";
  constexpr const char* kFlags = "--scale 0.05 --seed 1 --jobs 2 --monitor";

  TempDir straight;
  ASSERT_EQ(run_bench(kFig12, std::string(kFlags) + " --windows 3 --out '" +
                                  straight.path() + "'"),
            0);

  // Run two windows checkpointed, then resume and extend to three: the
  // grown series must be byte-identical to the uninterrupted one.
  TempDir grown, snap;
  ASSERT_EQ(run_bench(kFig12, std::string(kFlags) + " --windows 2 "
                                  "--checkpoint '" +
                                  snap.path() + "' --out '" + grown.path() +
                                  "'"),
            0);
  ASSERT_EQ(run_bench(kFig12, std::string(kFlags) + " --windows 3 "
                                  "--checkpoint '" +
                                  snap.path() + "' --resume --out '" +
                                  grown.path() + "'"),
            0);
  EXPECT_EQ(read_csv_no_comments(straight.path() + "/fig12_monitor.csv"),
            read_csv_no_comments(grown.path() + "/fig12_monitor.csv"));

  // A different --interval-hours is a different fingerprint: refused.
  TempDir out;
  EXPECT_EQ(run_bench(kFig12, std::string(kFlags) + " --windows 4 "
                                  "--interval-hours 24 --checkpoint '" +
                                  snap.path() + "' --resume --out '" +
                                  out.path() + "'"),
            2);
}

}  // namespace
}  // namespace ptperf
