// Tests for tools/simlint against the tests/lint_fixtures corpus: every
// rule must fire on its trigger fixture, every suppression fixture must be
// silent, and the scanner's negative space (member access, pointer values,
// path scoping) must not false-positive. The binary and fixture paths are
// injected by tests/CMakeLists.txt.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "util/strings.h"

namespace {

struct LintRun {
  int exit_code = -1;
  std::string output;
};

LintRun run_simlint(const std::string& args) {
  std::string cmd = std::string(SIMLINT_BIN) + " " + args + " 2>&1";
  LintRun run;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (!pipe) return run;
  char buf[4096];
  std::size_t n = 0;
  while ((n = fread(buf, 1, sizeof(buf), pipe)) > 0) run.output.append(buf, n);
  int status = pclose(pipe);
  if (WIFEXITED(status)) run.exit_code = WEXITSTATUS(status);
  return run;
}

std::string fixture(const std::string& rel) {
  return std::string(SIMLINT_FIXTURES) + "/" + rel;
}

/// True if some output line reports `rule` against a file whose path
/// contains `file_part`.
bool has_finding(const std::string& output, const std::string& file_part,
                 const std::string& rule) {
  for (const std::string& line : ptperf::util::split(output, '\n')) {
    if (line.find(file_part) != std::string::npos &&
        line.find("[" + rule + "]") != std::string::npos)
      return true;
  }
  return false;
}

int count_findings(const std::string& output, const std::string& file_part) {
  int n = 0;
  for (const std::string& line : ptperf::util::split(output, '\n')) {
    if (line.find(file_part) != std::string::npos &&
        line.find(": [") != std::string::npos)
      ++n;
  }
  return n;
}

class SimlintCorpus : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { corpus_ = new LintRun(run_simlint(SIMLINT_FIXTURES)); }
  static void TearDownTestSuite() {
    delete corpus_;
    corpus_ = nullptr;
  }
  static const LintRun& corpus() { return *corpus_; }

 private:
  static LintRun* corpus_;
};

LintRun* SimlintCorpus::corpus_ = nullptr;

TEST_F(SimlintCorpus, FindingsFailTheRun) {
  EXPECT_EQ(corpus().exit_code, 1) << corpus().output;
}

TEST_F(SimlintCorpus, EveryRuleFiresOnItsTriggerFixture) {
  const auto& out = corpus().output;
  EXPECT_TRUE(has_finding(out, "graph/cycle/a.h", "include-cycle")) << out;
  EXPECT_TRUE(has_finding(out, "src/stats/float_eq_trigger.cc", "float-eq"))
      << out;
  EXPECT_TRUE(has_finding(out, "src/pt/switch_trigger.cc",
                          "switch-exhaustive"))
      << out;
  EXPECT_TRUE(has_finding(out, "src/workload/unordered_iter_trigger.cc",
                          "unordered-iteration"))
      << out;
  EXPECT_TRUE(has_finding(out, "unused_suppression_trigger.cc",
                          "unused-suppression"))
      << out;
  EXPECT_TRUE(has_finding(out, "banned_time_trigger.cc", "banned-time")) << out;
  EXPECT_TRUE(has_finding(out, "banned_rng_trigger.cc", "banned-rng")) << out;
  EXPECT_TRUE(has_finding(out, "banned_thread_trigger.cc", "banned-thread"))
      << out;
  EXPECT_TRUE(has_finding(out, "src/sim/hash_container_trigger.cc",
                          "hash-container"))
      << out;
  EXPECT_TRUE(has_finding(out, "src/tor/pointer_key_trigger.cc",
                          "pointer-keyed-map"))
      << out;
  EXPECT_TRUE(has_finding(out, "unsafe_c_trigger.cc", "unsafe-c")) << out;
  EXPECT_TRUE(has_finding(out, "src/crypto/hot_path_copy_trigger.cc",
                          "hot-path-copy"))
      << out;
  EXPECT_TRUE(has_finding(out, "src/net/raw_instrumentation_trigger.cc",
                          "raw-instrumentation"))
      << out;
  EXPECT_TRUE(has_finding(out, "src/ptperf/checkpoint_io_trigger.cc",
                          "checkpoint-io"))
      << out;
  EXPECT_TRUE(has_finding(out, "bench/transport_bypass_trigger.cc",
                          "transport-bypass"))
      << out;
  EXPECT_TRUE(has_finding(out, "bench/load_bypass_trigger.cc",
                          "load-bypass"))
      << out;
  EXPECT_TRUE(has_finding(out, "no_pragma_once.h", "pragma-once")) << out;
  EXPECT_TRUE(has_finding(out, "using_namespace_trigger.h",
                          "using-namespace-header"))
      << out;
  EXPECT_TRUE(has_finding(out, "bad_suppression.cc", "bad-suppression")) << out;
}

TEST_F(SimlintCorpus, TriggerFixturesReportExpectedCounts) {
  const auto& out = corpus().output;
  // system_clock + time(); mt19937 + rand() + the <random> include; atoi +
  // strcpy; both pointer-keyed declarations.
  EXPECT_EQ(count_findings(out, "banned_time_trigger.cc"), 2) << out;
  EXPECT_EQ(count_findings(out, "banned_rng_trigger.cc"), 3) << out;
  // <mutex> + <thread> includes, std::mutex, std::thread.
  EXPECT_EQ(count_findings(out, "banned_thread_trigger.cc"), 4) << out;
  EXPECT_EQ(count_findings(out, "unsafe_c_trigger.cc"), 2) << out;
  // Two owning Bytes constructions + take_copy() + rest().
  EXPECT_EQ(count_findings(out, "hot_path_copy_trigger.cc"), 4) << out;
  EXPECT_EQ(count_findings(out, "pointer_key_trigger.cc"), 2) << out;
  // <iostream> include, std::cerr, std::printf, fprintf — snprintf is legal.
  EXPECT_EQ(count_findings(out, "raw_instrumentation_trigger.cc"), 4) << out;
  EXPECT_EQ(count_findings(out, "transport_bypass_trigger.cc"), 1) << out;
  // <cstdio> + <fstream> includes, FILE, fopen(), fwrite(), ofstream.
  EXPECT_EQ(count_findings(out, "checkpoint_io_trigger.cc"), 6) << out;
  EXPECT_EQ(count_findings(out, "load_bypass_trigger.cc"), 2) << out;
  // One == and one != with floating operands.
  EXPECT_EQ(count_findings(out, "float_eq_trigger.cc"), 2) << out;
  // The range-for and the explicit .begin() walk.
  EXPECT_EQ(count_findings(out, "unordered_iter_trigger.cc"), 2) << out;
  // One cycle, reported once, anchored at the lexicographically first file
  // (the ":" keeps the match on the file:line prefix — the chain in the
  // message names both files).
  EXPECT_EQ(count_findings(out, "graph/cycle/a.h:"), 1) << out;
  EXPECT_EQ(count_findings(out, "graph/cycle/b.h:"), 0) << out;
  EXPECT_EQ(count_findings(out, "switch_trigger.cc"), 1) << out;
  EXPECT_EQ(count_findings(out, "unused_suppression_trigger.cc"), 1) << out;
}

TEST_F(SimlintCorpus, SuppressionFixturesAreSilent) {
  const auto& out = corpus().output;
  EXPECT_EQ(count_findings(out, "_allowed."), 0) << out;
}

TEST_F(SimlintCorpus, IneffectiveSuppressionSuppressesNothing) {
  // The reason-less suppression in bad_suppression.cc must not silence the
  // atoi() on the line it covers.
  EXPECT_TRUE(has_finding(corpus().output, "bad_suppression.cc", "unsafe-c"))
      << corpus().output;
}

TEST_F(SimlintCorpus, NoFalsePositivesOnNegativeSpaceFixtures) {
  const auto& out = corpus().output;
  EXPECT_EQ(count_findings(out, "clean.cc"), 0) << out;
  EXPECT_EQ(count_findings(out, "clean_header.h"), 0) << out;
  EXPECT_EQ(count_findings(out, "member_access_ok.cc"), 0) << out;
  EXPECT_EQ(count_findings(out, "pointer_key_value_ok.cc"), 0) << out;
  // Path-scoped rules must stay scoped to the deterministic core.
  EXPECT_EQ(count_findings(out, "hash_container_elsewhere.cc"), 0) << out;
  EXPECT_EQ(count_findings(out, "load_bypass_elsewhere.cc"), 0) << out;
  EXPECT_EQ(count_findings(out, "checkpoint_io_elsewhere.cc"), 0) << out;
  // Owning copies off the cell hot path, and views/references on it.
  EXPECT_EQ(count_findings(out, "hot_path_copy_elsewhere.cc"), 0) << out;
  EXPECT_EQ(count_findings(out, "hot_path_copy_views_ok.cc"), 0) << out;
  // Tolerance compares and renamed int equality never fire float-eq.
  EXPECT_EQ(count_findings(out, "float_eq_tolerance_ok.cc"), 0) << out;
  // Partial-with-default and fully exhaustive switches are fine.
  EXPECT_EQ(count_findings(out, "switch_default_ok.cc"), 0) << out;
  EXPECT_EQ(count_findings(out, "switch_exhaustive_ok.cc"), 0) << out;
  // Lookups on unordered containers and iteration without emission are fine.
  EXPECT_EQ(count_findings(out, "unordered_lookup_ok.cc"), 0) << out;
  EXPECT_EQ(count_findings(out, "unordered_noemit_ok.cc"), 0) << out;
  // Layer conformance is opt-in: no --layers, no layer-violation findings.
  EXPECT_FALSE(has_finding(out, "graph/src", "layer-violation")) << out;
}

TEST(SimlintLayers, UpwardIncludeAndUndeclaredModuleAreFlagged) {
  LintRun run = run_simlint("--layers " + fixture("graph/layers.conf") + " " +
                            fixture("graph/src"));
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_TRUE(has_finding(run.output, "util/uses_net.h", "layer-violation"))
      << run.output;
  EXPECT_TRUE(has_finding(run.output, "stray/lone.h", "layer-violation"))
      << run.output;
  // The conforming net -> util edge is silent (":" pins the match to the
  // file:line prefix; the violation message also names uses_util.h).
  EXPECT_EQ(count_findings(run.output, "uses_util.h:"), 0) << run.output;
  EXPECT_EQ(count_findings(run.output, "helper.h:"), 0) << run.output;
}

TEST(SimlintLayers, MalformedLayersConfigIsAUsageError) {
  LintRun run =
      run_simlint("--layers " + fixture("graph/src/util/helper.h") + " " +
                  fixture("graph/src"));
  EXPECT_EQ(run.exit_code, 2) << run.output;
}

TEST(SimlintBaseline, BaselineAbsorbsOldFindingsAndFlagsNewOnes) {
  // Baseline the trigger file, then lint it again: exit 0, everything
  // absorbed. Lint a second trigger with the same baseline: its findings
  // are new and must fail the run.
  std::string base = std::string(::testing::TempDir()) + "simlint_base.json";
  LintRun write = run_simlint("--write-baseline " + base + " " +
                              fixture("src/stats/float_eq_trigger.cc"));
  EXPECT_EQ(write.exit_code, 1) << write.output;

  LintRun clean = run_simlint("--baseline " + base + " " +
                              fixture("src/stats/float_eq_trigger.cc"));
  EXPECT_EQ(clean.exit_code, 0) << clean.output;
  EXPECT_NE(clean.output.find("2 baselined findings suppressed"),
            std::string::npos)
      << clean.output;

  LintRun dirty = run_simlint("--baseline " + base + " " +
                              fixture("src/stats/float_eq_trigger.cc") + " " +
                              fixture("unsafe_c_trigger.cc"));
  EXPECT_EQ(dirty.exit_code, 1) << dirty.output;
  EXPECT_TRUE(has_finding(dirty.output, "unsafe_c_trigger.cc", "unsafe-c"))
      << dirty.output;
  EXPECT_EQ(count_findings(dirty.output, "float_eq_trigger.cc"), 0)
      << dirty.output;
  std::remove(base.c_str());
}

TEST(SimlintBaseline, RetiredEntriesAreReportedForPruning) {
  std::string base = std::string(::testing::TempDir()) + "simlint_ret.json";
  LintRun write = run_simlint("--write-baseline " + base + " " +
                              fixture("src/stats/float_eq_trigger.cc"));
  EXPECT_EQ(write.exit_code, 1) << write.output;
  // Lint a clean file against that baseline: nothing matches, so the
  // baseline entry is retired (reported, but the run stays green).
  LintRun run = run_simlint("--baseline " + base + " " + fixture("clean.cc"));
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("no longer matches (prune it)"),
            std::string::npos)
      << run.output;
  std::remove(base.c_str());
}

TEST(SimlintBaseline, MalformedBaselineIsAUsageError) {
  LintRun run = run_simlint("--baseline " + fixture("clean.cc") + " " +
                            fixture("clean.cc"));
  EXPECT_EQ(run.exit_code, 2) << run.output;
}

TEST(SimlintSarif, SarifOnStdoutCarriesRuleAndLocation) {
  LintRun run =
      run_simlint("--sarif - " + fixture("src/stats/float_eq_trigger.cc"));
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("\"version\": \"2.1.0\""), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("sarif-2.1.0.json"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("\"ruleId\": \"float-eq\""), std::string::npos)
      << run.output;
  // Artifact URIs are invocation-stable baseline keys.
  EXPECT_NE(run.output.find(
                "\"uri\": \"src/stats/float_eq_trigger.cc\""),
            std::string::npos)
      << run.output;
}

TEST(Simlint, CleanFileExitsZeroWithNoOutput) {
  LintRun run = run_simlint(fixture("clean.cc"));
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_EQ(run.output, "");
}

TEST(Simlint, JsonOutputCarriesFileLineRule) {
  LintRun run = run_simlint("--json " + fixture("unsafe_c_trigger.cc"));
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("\"rule\": \"unsafe-c\""), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("\"count\": 2"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("unsafe_c_trigger.cc"), std::string::npos)
      << run.output;
}

TEST(Simlint, ListRulesNamesEveryRule) {
  LintRun run = run_simlint("--list-rules");
  EXPECT_EQ(run.exit_code, 0);
  for (const char* rule :
       {"banned-time", "banned-rng", "banned-thread", "hash-container",
        "pointer-keyed-map", "unsafe-c", "raw-instrumentation",
        "checkpoint-io", "transport-bypass", "load-bypass", "pragma-once",
        "using-namespace-header", "include-cycle", "layer-violation",
        "unordered-iteration", "float-eq", "switch-exhaustive",
        "hot-path-copy", "unused-suppression", "bad-suppression"}) {
    EXPECT_NE(run.output.find(rule), std::string::npos) << rule;
  }
}

TEST(Simlint, MissingPathIsAUsageError) {
  LintRun run = run_simlint(fixture("does_not_exist.cc"));
  EXPECT_EQ(run.exit_code, 2) << run.output;
}

}  // namespace
