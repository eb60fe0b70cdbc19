// Ensemble campaign layer: N independent repetitions of a sharded
// campaign, reduced to distribution summaries instead of single-seed point
// estimates. One seed per figure is exactly the methodological trap Jansen
// et al. ("Once is Never Enough", PAPERS.md) identify in Tor measurement:
// conclusions drawn from a single trial routinely invert under resampling.
// An EnsembleCampaign replays the whole sharded campaign `repeats` times,
// each repetition in an independently sampled world — network AND corpus
// seeds forked via Rng::fork("repeat/<r>") — so every repetition is itself
// jobs-independent and individually reproducible, and the ensemble is a
// pure function of (base seed, repeats, plan). Repetition 0 runs on the
// base seed unchanged, which makes --repeats 1 byte-identical to a plain
// sharded run. It is the only way to start a sharded campaign:
// ShardedCampaign (parallel.h) is its private per-repetition runner. See
// docs/STATISTICS.md for the seed-forking scheme, the estimator merge
// math, and how to read the CI / paired-power columns.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "ptperf/parallel.h"

namespace ptperf {

namespace ensemble {

/// Distribution of one per-repetition estimator across the ensemble.
struct Estimate {
  std::size_t repeats = 0;
  double mean = 0;
  double stddev = 0;  // sample stddev across repetitions; 0 for n < 2
  double ci_lo = 0;   // 95% Student-t interval for the mean
  double ci_hi = 0;   // (collapses to the point estimate for n < 2)
  double min = 0;
  double max = 0;
};

/// mean / stddev / 95% t-CI / min / max of the per-repetition values.
/// Defined for every n: n == 0 is all zeros, n == 1 collapses the interval
/// to the single observation. Never returns NaN.
Estimate summarize(const std::vector<double>& per_rep);

}  // namespace ensemble

/// Scenario seed of repetition `repeat`. Repetition 0 IS the base campaign
/// (seed unchanged — the --repeats 1 byte-identity contract); repetition
/// r >= 1 is an independent stream forked as Rng::fork("repeat/<r>") off
/// the base seed, namespaced so adding repetitions never perturbs earlier
/// ones and each repetition's shard seeds fork off its own stream.
std::uint64_t repeat_seed(std::uint64_t base_seed, int repeat);

/// Which sites a website campaign measures: the first `tranco` Tranco
/// sites merged with the first `cbl` CBL sites, resolved inside each
/// shard's own scenario (identical across shards via corpus_seed).
struct SiteSelection {
  std::size_t tranco = 0;
  std::size_t cbl = 0;
  std::size_t count() const { return tranco + cbl; }
};

/// Per-repetition sample vectors: reps[r] holds repetition r's samples,
/// merged in plan order (byte-identical at any --jobs, per repetition).
template <typename Sample>
struct EnsembleRuns {
  std::vector<std::vector<Sample>> reps;

  /// Repetition 0 — the base campaign every single-run figure table is
  /// built from (== the whole ensemble under --repeats 1).
  const std::vector<Sample>& first() const { return reps.at(0); }
};

struct EnsembleCampaignConfig {
  /// The replicated world recipe. base.scenario.seed is the ensemble's
  /// base seed; each repetition overrides it with repeat_seed(base, r).
  /// When base.scenario.corpus_seed is 0 (the default) the corpus follows
  /// the repetition seed, so every repetition also measures a freshly
  /// sampled synthetic web — repetitions resample the corpus, not just
  /// the network, exactly like independent real-world trials.
  ShardedCampaignConfig base;
  /// Independent repetitions; 1 = a plain sharded campaign on the base
  /// seed.
  int repeats = 1;
};

/// Front end over the sharded engine for the paper's campaign types: each
/// named method knows its kind's work items and per-shard body, and runs
/// it N times in independently seeded worlds, accumulating per-repetition
/// results. Timings and injected-fault counters aggregate over all
/// repetitions in repetition order; flight-recorder traces capture
/// repetition 0 only (the base campaign), so --trace output is unchanged
/// by --repeats.
class EnsembleCampaign {
 public:
  explicit EnsembleCampaign(EnsembleCampaignConfig cfg);

  EnsembleRuns<WebsiteSample> run_website_curl(
      const std::vector<std::optional<PtId>>& pts, const SiteSelection& sites);
  EnsembleRuns<PageSample> run_website_selenium(
      const std::vector<std::optional<PtId>>& pts, const SiteSelection& sites);
  EnsembleRuns<FileSample> run_file_downloads(
      const std::vector<std::optional<PtId>>& pts,
      const std::vector<std::size_t>& sizes);
  EnsembleRuns<ReliabilitySample> run_reliability(
      const std::vector<std::optional<PtId>>& pts,
      const std::vector<std::size_t>& sizes, RetryPolicy retry = {});
  /// Fig-9 paired campaign: every shard's world stands up vanilla Tor AND
  /// the shard's PT, pins both to the same fixed circuit per site, and
  /// measures back-to-back fetches plus the PT's per-layer byte ledger
  /// (`pts` lists PTs only — the vanilla baseline is built inside each
  /// shard, not as its own shard).
  EnsembleRuns<OverheadSample> run_overhead(const std::vector<PtId>& pts,
                                            const SiteSelection& sites);

  int repeats() const { return cfg_.repeats < 1 ? 1 : cfg_.repeats; }

  /// Per-shard timings over every repetition, in (repetition, plan) order.
  const std::vector<ShardTiming>& timings() const { return ledger_.timings; }

  /// Repetition 0's flight-recorder captures (empty unless
  /// base.trace_categories is nonzero).
  const std::vector<trace::ShardTrace>& traces() const {
    return ledger_.traces;
  }

  /// Injected-fault counters summed over every repetition's shards.
  std::uint64_t injected_faults(fault::FaultKind kind) const {
    return ledger_.faults[static_cast<std::size_t>(kind)];
  }
  std::uint64_t total_injected_faults() const;

 private:
  /// Runs `body` in every shard of every repetition, each repetition on a
  /// ShardedCampaign whose scenario seed is the repetition's fork, and
  /// returns the samples in repetition order.
  template <typename Sample>
  EnsembleRuns<Sample> run_sharded(
      const std::vector<std::optional<PtId>>& pts, std::size_t item_count,
      const ShardedCampaign::ShardBody<Sample>& body);

  EnsembleCampaignConfig cfg_;
  ShardedCampaign::Ledger ledger_;
};

}  // namespace ptperf
