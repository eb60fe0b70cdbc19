// The benchmark's workloads: each is one fixed-size figure campaign run as
// a closed batch through the public engine (EnsembleCampaign, one
// repetition). A run's inputs are a pure function of the workload and the
// seed; its output is summarised by a hash of the merged samples, which is
// what the output check compares against recorded references.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ptperf/ensemble.h"

namespace campaign_bench {

enum class Kind { kFiles, kWebsites, kReliability };

struct Workload {
  std::string name;
  std::string figure;  // the figure campaign it reproduces
  Kind kind = Kind::kFiles;
  int jobs = 1;        // engine pool threads
  std::vector<std::optional<ptperf::PtId>> pts;
  std::vector<std::size_t> sizes;  // kFiles, kReliability
  int file_reps = 1;
  ptperf::SiteSelection sites;     // kWebsites
  int website_reps = 3;
  bool faults = false;             // paper fault profile (kReliability)
  int retries = 0;

  std::size_t item_count() const {
    return kind == Kind::kWebsites ? sites.count() : sizes.size();
  }
};

const std::vector<Workload>& all_workloads();
const Workload* find_workload(std::string_view name);

/// The engine configuration the workload runs with at `seed`.
ptperf::EnsembleCampaignConfig campaign_config(const Workload& w,
                                               std::uint64_t seed,
                                               unsigned trace_categories);

/// The plan the engine builds for the workload at `seed`.
ptperf::ShardPlan shard_plan(const Workload& w, std::uint64_t seed);

/// Order-sensitive digest and outcome counts of a merged sample list. The
/// engine path and the per-shard replay feed the same samples in plan order
/// and must arrive at the same hash.
class Tally {
 public:
  void add(const ptperf::WebsiteSample& s);
  void add(const ptperf::FileSample& s);
  void add(const ptperf::ReliabilitySample& s);

  std::uint64_t hash() const { return hash_; }
  std::size_t samples() const { return samples_; }
  std::size_t attempts() const { return attempts_; }
  std::size_t failed() const { return failed_; }
  std::uint64_t received_bytes() const { return received_; }

 private:
  void mix(std::uint64_t v);
  void mix(double v);
  void mix(std::string_view s);
  void mix(const ptperf::workload::FetchResult& r);

  std::uint64_t hash_ = 14695981039346656037ull;  // FNV-1a offset basis
  std::size_t samples_ = 0;
  std::size_t attempts_ = 0;
  std::size_t failed_ = 0;
  std::uint64_t received_ = 0;
};

struct CampaignResult {
  Tally tally;
  double wall_s = 0;
  std::vector<ptperf::ShardTiming> timings;
  std::uint64_t injected_faults = 0;
  std::vector<ptperf::trace::ShardTrace> traces;
  /// Milliseconds per reduction of the samples to the figure's tables;
  /// measured only when requested.
  double reduce_ms = 0;
};

CampaignResult run_campaign(const Workload& w, std::uint64_t seed,
                            unsigned trace_categories,
                            bool time_reduce = false);

/// Monotonic wall clock in seconds.
double now_s();

}  // namespace campaign_bench
