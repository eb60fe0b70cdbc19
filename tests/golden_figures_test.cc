// Golden-figure regression suite: runs the figure and table benches at
// --scale 0.05 --seed 1 --jobs 2, once per binary (fig12 also at --seed 2,
// against its *_seed2.csv goldens), and byte-compares the CSVs the run
// wrote against checked-in golden copies (tests/golden/). The
// `#` comment lines (seed/jobs/wall_s/kernels) are stripped on both sides
// — wall-clock is outside the determinism contract; everything else is
// inside it. Any intentional change to sampling, statistics, or the
// simulation model shows up as a reviewable golden diff: regenerate with
// tools/regen_golden.sh and commit the result alongside the change that
// caused it. fig2b's and fig9's base CSVs and every ensemble CSV
// (--repeats 3) are pinned in tests/ensemble_test.cc.
//
// The bench binary directory and the golden directory are injected by
// tests/CMakeLists.txt (BENCH_DIR / GOLDEN_DIR).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

/// One bench run under regression: which binary, which extra flags, and
/// which of the CSVs it writes are golden artifacts. Flags here must match
/// tools/regen_golden.sh exactly.
struct GoldenCase {
  const char* bench;
  const char* extra_args;
  std::vector<const char*> csvs;
};

constexpr const char* kCommonArgs = "--scale 0.05 --seed 1 --jobs 2";

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Drops `#` comment lines; the remainder is compared byte-for-byte.
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
    std::string tmpl = ::testing::TempDir() + "golden_XXXXXX";
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

/// `golden_suffix` goes before ".csv" in each golden's name, for runs at
/// flags other than the common ones (fig12_weekly.csv at --seed 2 against
/// fig12_weekly_seed2.csv).
void check_golden(const GoldenCase& c, const std::string& golden_suffix = "") {
  TempDir tmp;
  ASSERT_FALSE(tmp.path().empty());
  std::string cmd = std::string(BENCH_DIR) + "/" + c.bench + " " +
                    kCommonArgs + " " + c.extra_args + " --out '" +
                    tmp.path() + "' > /dev/null 2>&1";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;

  for (const char* csv : c.csvs) {
    std::string produced = strip_comments(read_file(tmp.path() + "/" + csv));
    std::string stem(csv, std::strlen(csv) - 4);  // drops ".csv"
    std::string golden = strip_comments(read_file(
        std::string(GOLDEN_DIR) + "/" + stem + golden_suffix + ".csv"));
    ASSERT_FALSE(produced.empty()) << c.bench << " wrote an empty " << csv;
    EXPECT_EQ(produced, golden)
        << csv << " drifted from tests/golden/. If the change is intended, "
        << "regenerate with tools/regen_golden.sh and commit the diff.";
  }
}

TEST(GoldenFigures, Fig2aWebsiteCurl) {
  check_golden({"bench_fig2a_website_curl", "", {"fig2a_boxes.csv"}});
}

TEST(GoldenFigures, Fig5FileDownload) {
  check_golden({"bench_fig5_file_download", "", {"fig5_times.csv"}});
}

TEST(GoldenFigures, Fig6Ttfb) {
  check_golden({"bench_fig6_ttfb", "", {"fig6_ttfb_ecdf.csv"}});
}

TEST(GoldenFigures, Fig8Reliability) {
  check_golden({"bench_fig8_reliability", "--faults paper --retries 1",
                {"fig8a_outcomes.csv"}});
}

// fig10a's timeline is emitted by the population engine (weekly aggregates
// of the emergent Iran-surge trajectory, docs/POPULATION.md), not written
// as literals — this golden pins the model's output, anchors included.
TEST(GoldenFigures, Fig10aPopulationTimeline) {
  check_golden({"bench_fig10_snowflake_load", "", {"fig10a_timeline.csv"}});
}

// The fleet rides --seed: fig10 sets the population seed from it, and the
// config's own default equals the golden's seed, so only another seed can
// show the timeline follows it.
TEST(GoldenFigures, Fig10aTimelineFollowsTheSeed) {
  TempDir tmp;
  ASSERT_FALSE(tmp.path().empty());
  std::string cmd = std::string(BENCH_DIR) +
                    "/bench_fig10_snowflake_load --scale 0.05 --seed 2 "
                    "--jobs 2 --out '" +
                    tmp.path() + "' > /dev/null 2>&1";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;
  std::string produced =
      strip_comments(read_file(tmp.path() + "/fig10a_timeline.csv"));
  ASSERT_FALSE(produced.empty());
  EXPECT_NE(produced, strip_comments(read_file(std::string(GOLDEN_DIR) +
                                               "/fig10a_timeline.csv")));
}

// fig12's weekly boxes sample the same population trajectory at weekly
// windows; the golden pins the emergent utilization pathway end to end.
TEST(GoldenFigures, Fig12WeeklyBoxes) {
  check_golden({"bench_fig12_snowflake_monitor", "", {"fig12_weekly.csv"}});
}

// fig12 sets its fleet seed from --seed in both modes, and the fleet's
// default seed equals the goldens' seed 1, so only another seed pins the
// override: at seed 2, a fleet left on seed 1 shifts the windows'
// utilization and hence the measured access times.
TEST(GoldenFigures, Fig12WeeklyFollowsTheSeed) {
  check_golden(
      {"bench_fig12_snowflake_monitor", "--seed 2", {"fig12_weekly.csv"}},
      "_seed2");
}

TEST(GoldenFigures, Fig12MonitorFollowsTheSeed) {
  check_golden({"bench_fig12_snowflake_monitor", "--seed 2 --monitor",
                {"fig12_monitor.csv"}},
               "_seed2");
}

TEST(GoldenFigures, Fig3FixedCircuit) {
  check_golden({"bench_fig3_fixed_circuit", "",
                {"fig3a_boxes.csv", "fig3a_ttests.csv", "fig3b_ecdf.csv"}});
}

TEST(GoldenFigures, Fig4FixedGuard) {
  check_golden({"bench_fig4_fixed_guard", "",
                {"fig4_per_site.csv", "fig4_boxes.csv"}});
}

TEST(GoldenFigures, Fig7Location) {
  check_golden({"bench_fig7_location", "",
                {"fig7_location.csv", "fig7_summary.csv"}});
}

TEST(GoldenFigures, Fig11SpeedIndex) {
  check_golden({"bench_fig11_speed_index", "",
                {"fig11_speed_index.csv", "fig11_vs_load.csv",
                 "fig11_ttests.csv"}});
}

TEST(GoldenFigures, Table1Overview) {
  check_golden({"bench_table1_overview", "", {"table1_overview.csv"}});
}

TEST(GoldenFigures, Table2Inventory) {
  check_golden({"bench_table2_inventory", "", {"table2_inventory.csv"}});
}

TEST(GoldenFigures, Table10Categories) {
  check_golden({"bench_table10_categories", "",
                {"table10_means.csv", "table10_ttests.csv"}});
}

TEST(GoldenFigures, MediumChange) {
  check_golden({"bench_medium_change", "", {"medium_change.csv"}});
}

TEST(GoldenFigures, Ablations) {
  check_golden({"bench_ablations", "",
                {"ablation_guard_load.csv", "ablation_dnstt_cap.csv",
                 "ablation_camoufler_rate.csv",
                 "ablation_snowflake_churn.csv"}});
}

TEST(GoldenFigures, Streaming) {
  check_golden({"bench_streaming", "", {"streaming_quality.csv"}});
}

TEST(GoldenFigures, AppendixTing) {
  check_golden({"bench_appendix_ting", "",
                {"ting_relay_pairs.csv", "ting_pt_limitation.csv"}});
}

TEST(GoldenFigures, HopDecomposition) {
  check_golden({"bench_hop_decomposition", "", {"hop_decomposition.csv"}});
}

}  // namespace
