// Campaign runner: drives the paper's measurement types (Table 1) against
// a PtStack inside a Scenario — website access via curl and selenium, bulk
// file downloads, TTFB capture, reliability classification. Within one
// Scenario, measurements run sequentially in that world's virtual time,
// each website over a fresh circuit (matching the paper's methodology),
// with think-time gaps so transport state (polling backoffs, windows)
// settles between measurements. Campaign is the per-shard worker of the
// sharded engine (src/ptperf/parallel.h): the engine replicates
// Scenario+PtStack+Campaign per shard and merges their samples in
// deterministic plan order, so whole campaigns scale across cores without
// this class ever seeing a second thread.
#pragma once

#include <cstdint>
#include <vector>

#include "ptperf/transports.h"
#include "workload/fetcher.h"

namespace ptperf {

struct WebsiteSample {
  std::string pt;
  std::string site;
  int rep = 0;
  workload::FetchResult result;
};

struct PageSample {
  std::string pt;
  std::string site;
  int rep = 0;
  workload::PageLoadResult result;
  double speed_index_s = -1;
};

struct FileSample {
  std::string pt;
  std::size_t size_bytes = 0;
  int rep = 0;
  workload::FetchResult result;
};

/// Reliability classes of §4.6 / Fig 8a.
enum class DownloadOutcome { kComplete, kPartial, kFailed };
DownloadOutcome classify(const workload::FetchResult& r);
std::string_view outcome_name(DownloadOutcome o);

/// Retry/timeout policy for reliability runs. The paper retried failed
/// bulk downloads from scratch; each retry gets a fresh circuit after a
/// fixed backoff.
struct RetryPolicy {
  /// Extra attempts after the first (0 = classify the first attempt).
  int max_retries = 0;
  sim::Duration backoff = sim::from_seconds(2);
};

/// One reliability measurement: the classified final attempt plus how
/// many attempts the retry policy consumed.
struct ReliabilitySample {
  std::string pt;
  std::size_t size_bytes = 0;
  int rep = 0;
  int attempts = 1;
  DownloadOutcome outcome = DownloadOutcome::kFailed;
  workload::FetchResult result;
};

struct OutcomeCounts {
  int complete = 0;
  int partial = 0;
  int failed = 0;
  int total() const { return complete + partial + failed; }
};
OutcomeCounts count_outcomes(const std::vector<ReliabilitySample>& xs);

/// One paired fixed-circuit measurement (fig9 / §5.2, measured by
/// EnsembleCampaign::run_overhead): the same site fetched over vanilla Tor
/// and over the PT on the same circuit in the same world, plus the PT's
/// per-layer wire-byte deltas for its share of the work (transport
/// connect, circuit build, fetch). The byte columns inherit the
/// StackAccounting invariant — wire_bytes == payload_bytes +
/// handshake_bytes + framing_bytes + carrier_bytes, exactly, per sample —
/// so any aggregation of them sums exactly too.
struct OverheadSample {
  std::string pt;
  std::string site;
  double tor_s = -1;  // vanilla fetch seconds; < 0 = failed
  double pt_s = -1;   // PT fetch seconds; < 0 = failed
  std::int64_t payload_bytes = 0;
  std::int64_t handshake_bytes = 0;
  std::int64_t framing_bytes = 0;
  std::int64_t carrier_bytes = 0;
  std::int64_t wire_bytes = 0;
  std::int64_t handshake_rtts = 0;

  bool ok() const { return tor_s >= 0 && pt_s >= 0; }
  double diff() const { return pt_s - tor_s; }
};

struct CampaignOptions {
  int website_reps = 5;   // paper: each website five times
  int file_reps = 10;     // paper: each file ten times
  sim::Duration website_timeout = sim::from_seconds(120);
  sim::Duration file_timeout = sim::from_seconds(1200);
  sim::Duration think_gap = sim::from_seconds(1);
  /// Re-sample the guard per site: the paper's measurements span a year
  /// of natural guard rotation, so per-site rotation recovers the
  /// population-average first hop for non-bridge transports (a stack
  /// whose entry is pinned never reads its guard).
  bool rotate_guard_per_site = true;
};

class Campaign {
 public:
  Campaign(Scenario& scenario, CampaignOptions opts = {});

  /// curl-style website access over each site x reps.
  std::vector<WebsiteSample> run_website_curl(
      PtStack& stack, const std::vector<const workload::Website*>& sites);

  /// selenium-style page loads (skipped for transports that cannot carry
  /// parallel streams — the campaign returns empty, as the paper excludes
  /// camoufler from selenium runs).
  std::vector<PageSample> run_website_selenium(
      PtStack& stack, const std::vector<const workload::Website*>& sites);

  /// Bulk downloads of the given sizes x reps from files.example: the
  /// samples of run_reliability with no retries, unclassified.
  std::vector<FileSample> run_file_downloads(
      PtStack& stack, const std::vector<std::size_t>& sizes);

  /// Bulk downloads of the given sizes x reps, each attempt over a fresh
  /// circuit and classified into the §4.6 taxonomy under a retry policy:
  /// a failed attempt is redone after the backoff, up to max_retries
  /// times; the final attempt is the sample.
  std::vector<ReliabilitySample> run_reliability(
      PtStack& stack, const std::vector<std::size_t>& sizes,
      RetryPolicy retry = {});

  /// First n sites of a corpus as measurement targets.
  static std::vector<const workload::Website*> take_sites(
      const workload::Corpus& corpus, std::size_t n);

  /// Merge of two corpora subsets (Tranco + CBL runs).
  static std::vector<const workload::Website*> merge(
      std::vector<const workload::Website*> a,
      const std::vector<const workload::Website*>& b);

  const CampaignOptions& options() const { return opts_; }

 private:
  Scenario* scenario_;
  CampaignOptions opts_;
};

/// Convenience extraction for the stats layer.
std::vector<double> elapsed_seconds(const std::vector<WebsiteSample>& xs);
std::vector<double> ttfb_seconds(const std::vector<WebsiteSample>& xs);
std::vector<double> load_seconds(const std::vector<PageSample>& xs);

/// Per-site average access time (the paper averages the five accesses of
/// each site before plotting/testing). Sites with no successful access are
/// dropped; `aligned_to` (optional) keeps only sites present in both.
std::vector<double> per_site_means(const std::vector<WebsiteSample>& xs);

}  // namespace ptperf
