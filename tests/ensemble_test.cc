// Statistical regression suite for the ensemble campaign layer:
//   - repeat_seed contract: repetition 0 IS the base seed, later
//     repetitions are distinct, stable, namespaced forks;
//   - ensemble::summarize math on known inputs and degenerate inputs;
//   - CI calibration: the 95% t-interval covers a known population mean at
//     roughly the nominal rate on synthetic normal draws;
//   - repetition independence: repetition r of an EnsembleCampaign is
//     byte-identical to a standalone single-repetition campaign at
//     repeat_seed(base, r), so adding repetitions never perturbs earlier
//     ones;
//   - the accumulators: timings in (repetition, plan) order, repetition
//     0's traces only, fault counters summed over every repetition — and
//     no sharded campaign starts outside the ensemble layer;
//   - the --repeats 1 byte-identity contract and the --jobs independence of
//     the ensemble CSVs, checked end-to-end through the fig5 bench binary
//     against tests/golden/ (BENCH_DIR / GOLDEN_DIR injected by CMake).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "fault/fault_plan.h"
#include "ptperf/ensemble.h"
#include "sim/rng.h"
#include "stats/ttest.h"
#include "trace/export.h"

namespace ptperf {
namespace {

// ---------------------------------------------------------------------------
// repeat_seed

TEST(EnsembleSeed, RepetitionZeroIsTheBaseSeed) {
  EXPECT_EQ(repeat_seed(1, 0), 1u);
  EXPECT_EQ(repeat_seed(424242, 0), 424242u);
  EXPECT_EQ(repeat_seed(0, 0), 0u);
}

TEST(EnsembleSeed, LaterRepetitionsAreDistinctStableForks) {
  constexpr std::uint64_t kBase = 1;
  std::set<std::uint64_t> seen{kBase};
  for (int r = 1; r <= 16; ++r) {
    std::uint64_t s = repeat_seed(kBase, r);
    EXPECT_NE(s, kBase) << "repetition " << r << " reused the base seed";
    EXPECT_TRUE(seen.insert(s).second)
        << "repetition " << r << " collided with an earlier repetition";
    // Deterministic: calling again gives the same fork.
    EXPECT_EQ(repeat_seed(kBase, r), s);
    // Namespaced off the base stream exactly as documented.
    EXPECT_EQ(s, sim::Rng(kBase)
                     .fork("repeat/" + std::to_string(r))
                     .next_u64());
  }
  // Different base seeds give different repetition streams.
  EXPECT_NE(repeat_seed(1, 1), repeat_seed(2, 1));
}

// ---------------------------------------------------------------------------
// ensemble::summarize

TEST(EnsembleSummary, MatchesHandComputedStats) {
  ensemble::Estimate e = ensemble::summarize({1, 2, 3, 4, 5});
  EXPECT_EQ(e.repeats, 5u);
  EXPECT_DOUBLE_EQ(e.mean, 3.0);
  EXPECT_NEAR(e.stddev, std::sqrt(2.5), 1e-12);
  EXPECT_DOUBLE_EQ(e.min, 1.0);
  EXPECT_DOUBLE_EQ(e.max, 5.0);
  double half = stats::student_t_critical(4, 0.95) * std::sqrt(2.5 / 5.0);
  EXPECT_NEAR(e.ci_lo, 3.0 - half, 1e-9);
  EXPECT_NEAR(e.ci_hi, 3.0 + half, 1e-9);
  EXPECT_LT(e.ci_lo, e.mean);
  EXPECT_GT(e.ci_hi, e.mean);
}

TEST(EnsembleSummary, DegenerateInputsStayDefined) {
  // n = 0: all zeros, no NaN.
  ensemble::Estimate empty = ensemble::summarize({});
  EXPECT_EQ(empty.repeats, 0u);
  EXPECT_EQ(empty.mean, 0.0);
  EXPECT_EQ(empty.ci_lo, 0.0);
  EXPECT_EQ(empty.ci_hi, 0.0);

  // n = 1: the interval collapses onto the single observation.
  ensemble::Estimate one = ensemble::summarize({7.5});
  EXPECT_EQ(one.repeats, 1u);
  EXPECT_DOUBLE_EQ(one.mean, 7.5);
  EXPECT_DOUBLE_EQ(one.stddev, 0.0);
  EXPECT_DOUBLE_EQ(one.ci_lo, 7.5);
  EXPECT_DOUBLE_EQ(one.ci_hi, 7.5);
  EXPECT_DOUBLE_EQ(one.min, 7.5);
  EXPECT_DOUBLE_EQ(one.max, 7.5);

  // Zero variance: CI collapses to the mean instead of dividing by zero.
  ensemble::Estimate flat = ensemble::summarize({2.0, 2.0, 2.0});
  EXPECT_DOUBLE_EQ(flat.mean, 2.0);
  EXPECT_DOUBLE_EQ(flat.stddev, 0.0);
  EXPECT_DOUBLE_EQ(flat.ci_lo, 2.0);
  EXPECT_DOUBLE_EQ(flat.ci_hi, 2.0);

  for (const ensemble::Estimate& e : {empty, one, flat}) {
    EXPECT_FALSE(std::isnan(e.mean));
    EXPECT_FALSE(std::isnan(e.stddev));
    EXPECT_FALSE(std::isnan(e.ci_lo));
    EXPECT_FALSE(std::isnan(e.ci_hi));
  }
}

TEST(EnsembleSummary, CiCoversKnownMeanAtRoughlyNominalRate) {
  // 400 ensembles of 5 draws from N(10, 2): the 95% t-interval should
  // contain the true mean ~95% of the time. The band is wide enough to
  // never flake (binomial sd at n=400 is ~1.1 points) but tight enough to
  // catch a broken critical value or a sd/sqrt(n) slip, which push
  // coverage below 0.90 or pin it at 1.0.
  sim::Rng rng(20260809);
  constexpr int kTrials = 400;
  constexpr int kReps = 5;
  int covered = 0;
  for (int t = 0; t < kTrials; ++t) {
    std::vector<double> reps;
    reps.reserve(kReps);
    for (int r = 0; r < kReps; ++r) reps.push_back(rng.normal(10.0, 2.0));
    ensemble::Estimate e = ensemble::summarize(reps);
    if (e.ci_lo <= 10.0 && 10.0 <= e.ci_hi) ++covered;
  }
  double coverage = static_cast<double>(covered) / kTrials;
  EXPECT_GE(coverage, 0.90) << "t-interval too narrow";
  EXPECT_LE(coverage, 0.99) << "t-interval too wide";
}

// ---------------------------------------------------------------------------
// EnsembleCampaign vs standalone sharded runs

std::string encode(const workload::FetchResult& r) {
  char a[48], b[48], c[48];
  std::snprintf(a, sizeof a, "%a", r.start_s);
  std::snprintf(b, sizeof b, "%a", r.ttfb_s);
  std::snprintf(c, sizeof c, "%a", r.complete_s);
  return r.target + "|" + a + "|" + b + "|" + c + "|" +
         std::to_string(r.expected_bytes) + "|" +
         std::to_string(r.received_bytes) + "|" + (r.success ? "ok" : "no");
}

std::vector<std::string> encode_files(const std::vector<FileSample>& samples) {
  std::vector<std::string> out;
  out.reserve(samples.size());
  for (const FileSample& s : samples)
    out.push_back(s.pt + "|" + std::to_string(s.size_bytes) + "|" +
                  std::to_string(s.rep) + "|" + encode(s.result));
  return out;
}

ShardedCampaignConfig small_base(std::uint64_t seed) {
  ShardedCampaignConfig cfg;
  cfg.scenario.seed = seed;
  cfg.scenario.tranco_sites = 2;
  cfg.scenario.cbl_sites = 0;
  cfg.campaign.file_reps = 2;
  cfg.campaign.file_timeout = sim::from_seconds(120);
  cfg.jobs = 2;
  return cfg;
}

std::vector<std::optional<PtId>> small_pts() {
  return {std::nullopt, PtId::kObfs4};
}

TEST(EnsembleCampaignTest, RepetitionsMatchStandaloneShardedRuns) {
  constexpr std::uint64_t kSeed = 4242;
  EnsembleCampaignConfig cfg{small_base(kSeed), 3};
  EnsembleCampaign engine(cfg);
  EnsembleRuns<FileSample> runs =
      engine.run_file_downloads(small_pts(), {1u << 20});
  ASSERT_EQ(runs.reps.size(), 3u);

  for (int r = 0; r < 3; ++r) {
    // --repeats 1 is a plain sharded run on the base seed.
    EnsembleCampaign standalone({small_base(repeat_seed(kSeed, r)), 1});
    EXPECT_EQ(encode_files(runs.reps[static_cast<std::size_t>(r)]),
              encode_files(standalone
                               .run_file_downloads(small_pts(), {1u << 20})
                               .first()))
        << "repetition " << r
        << " is not reproducible as a standalone sharded campaign";
  }

  // Repetitions really are different worlds, not copies of repetition 0.
  EXPECT_NE(encode_files(runs.reps[0]), encode_files(runs.reps[1]));
  EXPECT_NE(encode_files(runs.reps[1]), encode_files(runs.reps[2]));
}

TEST(EnsembleCampaignTest, AddingRepetitionsPreservesEarlierOnes) {
  constexpr std::uint64_t kSeed = 77;
  EnsembleCampaign two({small_base(kSeed), 2});
  EnsembleCampaign four({small_base(kSeed), 4});
  EnsembleRuns<FileSample> a = two.run_file_downloads(small_pts(), {1u << 20});
  EnsembleRuns<FileSample> b = four.run_file_downloads(small_pts(), {1u << 20});
  ASSERT_EQ(a.reps.size(), 2u);
  ASSERT_EQ(b.reps.size(), 4u);
  for (std::size_t r = 0; r < 2; ++r)
    EXPECT_EQ(encode_files(a.reps[r]), encode_files(b.reps[r]))
        << "raising --repeats rewrote repetition " << r;
}

TEST(EnsembleCampaignTest, JobsDoNotChangeAnyRepetition) {
  EnsembleCampaignConfig seq{small_base(99), 3};
  seq.base.jobs = 1;
  EnsembleCampaignConfig par{small_base(99), 3};
  par.base.jobs = 4;
  EnsembleRuns<FileSample> a =
      EnsembleCampaign(seq).run_file_downloads(small_pts(), {1u << 20});
  EnsembleRuns<FileSample> b =
      EnsembleCampaign(par).run_file_downloads(small_pts(), {1u << 20});
  ASSERT_EQ(a.reps.size(), b.reps.size());
  for (std::size_t r = 0; r < a.reps.size(); ++r)
    EXPECT_EQ(encode_files(a.reps[r]), encode_files(b.reps[r]))
        << "repetition " << r << " depends on --jobs";
}

// EnsembleCampaign is the only way to start a sharded campaign.
static_assert(!std::is_constructible_v<ShardedCampaign, ShardedCampaignConfig>);

/// fig8-like: a traced reliability campaign under the paper fault plan,
/// one size per shard.
EnsembleCampaignConfig traced_faulted(std::uint64_t seed, int repeats) {
  ShardedCampaignConfig base = small_base(seed);
  base.campaign.file_reps = 1;
  base.items_per_shard = 1;
  base.trace_categories = trace::kDefault;
  base.configure_scenario = [](Scenario& scenario) {
    scenario.install_fault_plan(fault::FaultPlan::paper_section_4_6());
  };
  return {base, repeats};
}

TEST(EnsembleCampaignTest, AccumulatorsFollowRepetitionAndPlanOrder) {
  constexpr std::uint64_t kSeed = 1;
  constexpr int kRepeats = 3;
  const std::vector<std::optional<PtId>> pts{std::nullopt, PtId::kObfs4,
                                             PtId::kMeek};
  const std::vector<std::size_t> sizes{1u << 20, 2u << 20};
  RetryPolicy retry;
  retry.max_retries = 1;
  const ShardPlan plan = ShardPlan::build(kSeed, pts, sizes.size(), 1);
  const std::size_t n = plan.size();

  EnsembleCampaign engine(traced_faulted(kSeed, kRepeats));
  engine.run_reliability(pts, sizes, retry);
  ASSERT_EQ(engine.timings().size(), kRepeats * n);

  std::uint64_t standalone_faults = 0;
  for (int r = 0; r < kRepeats; ++r) {
    EnsembleCampaign standalone(traced_faulted(repeat_seed(kSeed, r), 1));
    standalone.run_reliability(pts, sizes, retry);
    standalone_faults += standalone.total_injected_faults();
    // Repetition r's rows sit at [r * n, (r + 1) * n), in plan order, and
    // are the rows its standalone campaign reports.
    ASSERT_EQ(standalone.timings().size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      const ShardTiming& got =
          engine.timings()[static_cast<std::size_t>(r) * n + i];
      const ShardTiming& want = standalone.timings()[i];
      EXPECT_EQ(got.shard, i) << "repetition " << r;
      EXPECT_EQ(got.pt, plan.shards()[i].pt_name) << "repetition " << r;
      EXPECT_EQ(got.items, want.items) << "repetition " << r;
      EXPECT_EQ(got.virtual_seconds, want.virtual_seconds)
          << "repetition " << r << " shard " << i;
    }
    // The recorder observes repetition 0 only.
    if (r == 0) {
      EXPECT_EQ(trace::trace_jsonl(engine.traces()),
                trace::trace_jsonl(standalone.traces()));
    }
  }
  ASSERT_EQ(engine.traces().size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(engine.traces()[i].shard, i);
    EXPECT_EQ(engine.traces()[i].pt, plan.shards()[i].pt_name);
  }
  // Fault counters sum over every repetition.
  EXPECT_GT(standalone_faults, 0u) << "the fault plan injected nothing";
  EXPECT_EQ(engine.total_injected_faults(), standalone_faults);
}

// ---------------------------------------------------------------------------
// End-to-end through the fig5 bench binary (the acceptance-criteria checks)

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string strip_comments(const std::string& text) {
  std::istringstream in(text);
  std::string out, line;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] == '#') continue;
    out += line;
    out += '\n';
  }
  return out;
}

class TempDir {
 public:
  TempDir() {
    std::string tmpl = ::testing::TempDir() + "ensemble_XXXXXX";
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

/// Runs bench_fig5_file_download with the golden-suite base flags plus
/// `extra`, writing CSVs into `out`.
void run_fig5(const std::string& extra, const std::string& out) {
  std::string cmd = std::string(BENCH_DIR) +
                    "/bench_fig5_file_download --scale 0.05 --seed 1 " +
                    extra + " --out '" + out + "' > /dev/null 2>&1";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;
}

TEST(EnsembleGolden, ExplicitRepeatsOneMatchesBaseGolden) {
  // Passing --repeats 1 explicitly must be byte-identical to the pre-flag
  // behaviour captured in tests/golden/fig5_times.csv, and must not emit
  // any ensemble CSV at all.
  TempDir tmp;
  ASSERT_FALSE(tmp.path().empty());
  run_fig5("--jobs 2 --repeats 1", tmp.path());
  EXPECT_EQ(strip_comments(read_file(tmp.path() + "/fig5_times.csv")),
            strip_comments(read_file(std::string(GOLDEN_DIR) +
                                     "/fig5_times.csv")));
  std::ifstream ensemble_csv(tmp.path() + "/fig5_ensemble.csv");
  EXPECT_FALSE(ensemble_csv.good())
      << "--repeats 1 must not emit ensemble CSVs";
}

TEST(EnsembleGolden, RepeatsThreeMatchesEnsembleGoldens) {
  TempDir tmp;
  ASSERT_FALSE(tmp.path().empty());
  run_fig5("--jobs 2 --repeats 3", tmp.path());
  for (const char* csv : {"fig5_ensemble.csv", "fig5_ensemble_paired.csv"}) {
    std::string produced = strip_comments(read_file(tmp.path() + "/" + csv));
    std::string golden =
        strip_comments(read_file(std::string(GOLDEN_DIR) + "/" + csv));
    ASSERT_FALSE(produced.empty()) << csv << " is empty";
    EXPECT_EQ(produced, golden)
        << csv << " drifted from tests/golden/. If intended, regenerate "
        << "with tools/regen_golden.sh and commit the diff.";
  }
  // The single-run table must be untouched by extra repetitions:
  // repetition 0 is the base campaign.
  EXPECT_EQ(strip_comments(read_file(tmp.path() + "/fig5_times.csv")),
            strip_comments(read_file(std::string(GOLDEN_DIR) +
                                     "/fig5_times.csv")));
}

/// Runs an arbitrary figure bench with the golden-suite base flags plus
/// `extra`, writing CSVs into `out`.
void run_bench(const std::string& bench, const std::string& extra,
               const std::string& out) {
  std::string cmd = std::string(BENCH_DIR) + "/" + bench +
                    " --scale 0.05 --seed 1 " + extra + " --out '" + out +
                    "' > /dev/null 2>&1";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;
}

struct EnsembleFigure {
  const char* bench;
  const char* base_csv;
  const char* ensemble_csv;
  const char* paired_csv;
  const char* extra = "";  // per-figure flags (e.g. fig8's fault profile)
};

class EnsembleGoldenFigures
    : public ::testing::TestWithParam<EnsembleFigure> {};

TEST_P(EnsembleGoldenFigures, RepeatsThreeMatchesEnsembleGoldens) {
  const EnsembleFigure& fig = GetParam();
  TempDir tmp;
  ASSERT_FALSE(tmp.path().empty());
  run_bench(fig.bench, std::string("--jobs 2 --repeats 3 ") + fig.extra,
            tmp.path());
  for (const char* csv : {fig.ensemble_csv, fig.paired_csv}) {
    std::string produced = strip_comments(read_file(tmp.path() + "/" + csv));
    std::string golden =
        strip_comments(read_file(std::string(GOLDEN_DIR) + "/" + csv));
    ASSERT_FALSE(produced.empty()) << csv << " is empty";
    EXPECT_EQ(produced, golden)
        << csv << " drifted from tests/golden/. If intended, regenerate "
        << "with tools/regen_golden.sh and commit the diff.";
  }
  // Repetition 0 is the base campaign: the single-run table must be
  // untouched by extra repetitions.
  EXPECT_EQ(strip_comments(read_file(tmp.path() + "/" + fig.base_csv)),
            strip_comments(read_file(std::string(GOLDEN_DIR) + "/" +
                                     fig.base_csv)));
}

TEST_P(EnsembleGoldenFigures, RepeatsOneMatchesBaseGoldenAndEmitsNoEnsemble) {
  const EnsembleFigure& fig = GetParam();
  TempDir tmp;
  ASSERT_FALSE(tmp.path().empty());
  run_bench(fig.bench, std::string("--jobs 2 --repeats 1 ") + fig.extra,
            tmp.path());
  EXPECT_EQ(strip_comments(read_file(tmp.path() + "/" + fig.base_csv)),
            strip_comments(read_file(std::string(GOLDEN_DIR) + "/" +
                                     fig.base_csv)));
  std::ifstream ensemble_csv(tmp.path() + "/" + fig.ensemble_csv);
  EXPECT_FALSE(ensemble_csv.good())
      << "--repeats 1 must not emit ensemble CSVs";
}

INSTANTIATE_TEST_SUITE_P(
    GoldenFigures, EnsembleGoldenFigures,
    ::testing::Values(
        EnsembleFigure{"bench_fig2a_website_curl", "fig2a_boxes.csv",
                       "fig2a_ensemble.csv", "fig2a_ensemble_paired.csv"},
        EnsembleFigure{"bench_fig2b_website_selenium", "fig2b_boxes.csv",
                       "fig2b_ensemble.csv", "fig2b_ensemble_paired.csv"},
        EnsembleFigure{"bench_fig6_ttfb", "fig6_ttfb_ecdf.csv",
                       "fig6_ensemble.csv", "fig6_ensemble_paired.csv"},
        EnsembleFigure{"bench_fig8_reliability", "fig8a_outcomes.csv",
                       "fig8_ensemble.csv", "fig8_ensemble_paired.csv",
                       "--faults paper --retries 1"},
        EnsembleFigure{"bench_fig9_overhead", "fig9_overhead.csv",
                       "fig9_ensemble.csv", "fig9_ensemble_paired.csv"},
        EnsembleFigure{"bench_fig10_snowflake_load", "fig10b_boxes.csv",
                       "fig10_ensemble.csv", "fig10_ensemble_paired.csv"}),
    [](const ::testing::TestParamInfo<EnsembleFigure>& info) {
      return std::string(info.param.bench);
    });

TEST(EnsembleGolden, EnsembleCsvIsByteIdenticalAcrossJobCounts) {
  TempDir seq, par;
  ASSERT_FALSE(seq.path().empty());
  ASSERT_FALSE(par.path().empty());
  run_fig5("--jobs 1 --repeats 3", seq.path());
  run_fig5("--jobs 4 --repeats 3", par.path());
  for (const char* csv :
       {"fig5_times.csv", "fig5_ensemble.csv", "fig5_ensemble_paired.csv"}) {
    std::string a = strip_comments(read_file(seq.path() + "/" + csv));
    std::string b = strip_comments(read_file(par.path() + "/" + csv));
    ASSERT_FALSE(a.empty()) << csv << " is empty";
    EXPECT_EQ(a, b) << csv << " differs between --jobs 1 and --jobs 4";
  }
}

}  // namespace
}  // namespace ptperf
