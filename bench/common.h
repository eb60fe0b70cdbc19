// Shared plumbing for the figure/table reproduction binaries: CLI args
// (--seed, --scale, --sites, --reps, --jobs, --out), stack creation, and
// the table renderers every bench uses. Each bench prints the paper's rows
// to stdout and mirrors them to CSV files under --out (default: cwd).
// Campaign-driven benches run through the ensemble layer
// (ptperf/ensemble.h) on the sharded engine: --jobs N spreads shards over
// N threads with byte-identical output.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ptperf/campaign.h"
#include "ptperf/checkpoint.h"
#include "ptperf/ensemble.h"
#include "ptperf/parallel.h"
#include "stats/descriptive.h"
#include "stats/table.h"
#include "stats/ttest.h"
#include "util/strings.h"

namespace ptperf::bench {

struct BenchArgs {
  std::uint64_t seed = 1;
  /// Multiplies workload sizes (sites, reps). 1.0 = the fast defaults
  /// documented per bench; the paper's full scale is noted in each header.
  double scale = 1.0;
  std::string out_dir = ".";
  bool verbose = false;
  /// Fault-injection profile ("none" or "paper"); consumed by benches
  /// that support injected failures (fig8_reliability).
  std::string faults = "none";
  /// Retries per download in fault mode (RetryPolicy::max_retries).
  int retries = 0;
  /// Shard worker threads. 0 = hardware concurrency (the default);
  /// 1 = the legacy single-threaded path. Output is byte-identical for
  /// every value — the shard plan never depends on it.
  int jobs = 0;
  /// Independent campaign repetitions (--repeats). 1 = today's single-run
  /// figures, byte-identical to the pre-ensemble harness; N > 1 reruns the
  /// whole campaign in N independently seeded worlds and adds
  /// mean/stddev/ci95 ensemble CSVs next to the point-estimate tables.
  int repeats = 1;
  /// Flight-recorder output path (--trace). Empty = tracing off. A
  /// ".jsonl" suffix selects the line-oriented format; anything else gets
  /// Chrome trace_event JSON (load in chrome://tracing or Perfetto).
  std::string trace_out;
  /// Adds per-cell events (trace::kCells) to the capture (--trace-cells);
  /// high-volume, so off by default.
  bool trace_cells = false;
  /// Checkpoint directory (--checkpoint). Empty = checkpointing off.
  /// Engine figures snapshot completed shards there (atomically, every
  /// --checkpoint-every units) so a killed run can be resumed. Mutually
  /// exclusive with --trace (a resumed shard has no capture to replay).
  std::string checkpoint_dir;
  /// Snapshot write cadence in completed shard units (--checkpoint-every).
  int checkpoint_every = 1;
  /// Resume from the snapshot under --checkpoint (--resume). The snapshot
  /// fingerprint (figure, seed, scale, repeats, flags) must match this
  /// run exactly; completed shards/repetitions are skipped and the final
  /// CSVs are byte-identical to an uninterrupted run at any --jobs.
  bool resume = false;
  /// Continuous monitor mode (--monitor; fig12). Runs windowed campaigns
  /// on the sharded engine, appending one CSV row per completed window
  /// and checkpointing between windows.
  bool monitor = false;
  /// Virtual hours between monitor windows (--interval-hours).
  double interval_hours = 168;
  /// Monitor windows this invocation runs (--windows). A resumed monitor
  /// may raise this to extend the series — completed windows replay from
  /// the snapshot, new ones append.
  int windows = 6;

  /// Category mask for the recorder: kDefault, plus kCells on request;
  /// 0 when --trace was not given.
  unsigned trace_categories() const;
  /// Wall-clock start of the run (set by parse_args; used for the CSV
  /// header comment and the --verbose timing summary).
  std::int64_t start_wall_us = 0;

  /// `jobs` with the hardware default resolved.
  int effective_jobs() const;
};

BenchArgs parse_args(int argc, char** argv);

/// base * scale, at least `min_value`.
std::size_t scaled(std::size_t base, double scale, std::size_t min_value = 1);
int scaled_int(int base, double scale, int min_value = 1);

/// Prints a banner naming the artifact being reproduced.
void banner(const std::string& id, const std::string& what,
            const BenchArgs& args);

/// The campaign entry point every figure goes through (EnsembleCampaign is
/// the only way to start a sharded campaign): a base world recipe
/// prefilled from the CLI args (seed, jobs, trace categories) plus
/// --repeats, with the snapshot store for `figure` attached when
/// --checkpoint was given. Figures then tweak `.base` (site counts, fault
/// plans). Building the store validates any resumed snapshot against
/// run_fingerprint(args, figure); a mismatch prints the offending field
/// and exits 2.
EnsembleCampaignConfig ensemble_config(const BenchArgs& args,
                                       const std::string& figure);

/// The run identity a snapshot of `figure` is pinned to: figure id, seed,
/// scale, repeats, and the figure-visible flags (faults/retries, monitor
/// interval). `jobs` is recorded for provenance but not validated —
/// output is jobs-independent, so resuming at a different pool width is
/// supported (docs/CHECKPOINTING.md).
checkpoint::Fingerprint run_fingerprint(const BenchArgs& args,
                                        const std::string& figure);

/// The --checkpoint store for this run, or nullptr when --checkpoint was
/// not given. Exits 2 with a clear message when a resumed snapshot is
/// corrupt or fingerprint-mismatched.
std::shared_ptr<checkpoint::Store> checkpoint_store(const BenchArgs& args,
                                                    const std::string& figure);

/// Per-shard timing summary (shard id, PT, items, virtual seconds, wall
/// µs) — printed only under --verbose, so speedup and shard imbalance are
/// observable without touching default output.
void print_shard_timings(const std::vector<ShardTiming>& timings,
                         const BenchArgs& args);

/// Writes repetition 0's flight-recorder capture to args.trace_out (no-op
/// when --trace was not given). The file is a pure function of (seed,
/// plan): byte-identical at any --jobs, and --repeats never changes it.
void emit_trace(const EnsembleCampaign& engine, const BenchArgs& args);

/// One labelled estimator measured once per repetition (e.g. a PT's mean
/// access time in each of the N independently seeded worlds).
struct EnsembleSeries {
  std::string label;
  std::vector<double> per_rep;
};

/// Unit of an ensemble estimator; selects the deterministic integer cell
/// format (stats::us_cell / byte_cell / ppm_cell).
enum class EnsembleUnit { kSeconds, kBytes, kFraction };

/// Per-repetition estimator extraction: `estimator` reduces one
/// repetition's samples to labelled values (one per group, e.g. per PT);
/// series are keyed on repetition 0's label order, and a label absent from
/// a later repetition simply contributes no value to its series.
template <typename Sample>
std::vector<EnsembleSeries> ensemble_series(
    const EnsembleRuns<Sample>& runs,
    const std::function<std::vector<std::pair<std::string, double>>(
        const std::vector<Sample>&)>& estimator) {
  std::vector<EnsembleSeries> series;
  for (const std::vector<Sample>& rep : runs.reps) {
    for (const auto& [label, value] : estimator(rep)) {
      EnsembleSeries* s = nullptr;
      for (EnsembleSeries& existing : series)
        if (existing.label == label) s = &existing;
      if (!s) {
        if (&rep != &runs.reps.front()) continue;  // keyed on repetition 0
        series.push_back({label, {}});
        s = &series.back();
      }
      s->per_rep.push_back(value);
    }
  }
  return series;
}

/// Cross-repetition distribution table: one row per series, columns
/// repeats/mean/stddev/ci95_lo/ci95_hi/min/max rendered as integer cells
/// in the series' unit (µs, bytes, or ppm).
stats::Table ensemble_table(const std::vector<EnsembleSeries>& series,
                            const std::string& metric, EnsembleUnit unit);

/// Paired-difference tests of every series against `baseline` (paired by
/// repetition — both estimators saw the same world in repetition r), with
/// the achieved power at alpha = .05.
stats::Table ensemble_paired_table(const std::vector<EnsembleSeries>& series,
                                   const std::string& baseline,
                                   const std::string& metric,
                                   EnsembleUnit unit);

/// Emits <name>.csv (ensemble_table) and, when `baseline` names one of the
/// series, <name>_paired.csv (ensemble_paired_table). No-op when
/// --repeats 1: single-run output stays byte-identical to the
/// pre-ensemble harness.
void emit_ensemble(const std::vector<EnsembleSeries>& series,
                   const BenchArgs& args, const std::string& name,
                   const std::string& metric, EnsembleUnit unit,
                   const std::string& baseline = "");

/// "Tukey row" for one distribution.
std::vector<std::string> box_row(const std::string& label,
                                 const std::vector<double>& xs);
std::vector<std::string> box_header();

/// Runs paired t-tests between every pair of labelled samples (paired by
/// index; samples are truncated to the common length) and returns the
/// paper-style table (Tables 3-9 format).
stats::Table pairwise_t_tests(
    const std::vector<std::pair<std::string, std::vector<double>>>& groups);

/// ECDF evaluated at fixed probe points.
stats::Table ecdf_table(
    const std::vector<std::pair<std::string, std::vector<double>>>& groups,
    const std::vector<double>& probes, const std::string& value_name);

/// Writes table CSV to <out>/<name>.csv and reports on stdout. The CSV
/// carries a `#` header comment recording seed, jobs, the end-to-end wall
/// time so far and the SHA-256 and ChaCha20 kernels that produced it —
/// run metadata, deliberately outside the byte-identity contract (strip
/// `#` lines before diffing runs).
void emit(const stats::Table& table, const BenchArgs& args,
          const std::string& name, bool print_text = true);

/// The PT ids evaluated in most figures, paper order (category-grouped).
std::vector<PtId> figure_pt_order();

/// figure_pt_order() preceded by vanilla Tor — the shard-plan PT list
/// every full-sweep bench uses.
std::vector<std::optional<PtId>> sweep_pts();

/// Merged samples regrouped per PT: one (name, samples) entry per
/// sweep_pts() stack, in sweep order, each holding that stack's samples in
/// merge order ("tor" names vanilla Tor; a stack without samples gets an
/// empty group).
template <typename Sample>
std::vector<std::pair<std::string, std::vector<Sample>>> by_pt(
    const std::vector<Sample>& samples) {
  std::vector<std::pair<std::string, std::vector<Sample>>> groups;
  for (const std::optional<PtId>& pt : sweep_pts()) {
    std::string name = pt ? std::string(pt_id_name(*pt)) : "tor";
    std::vector<Sample> mine;
    for (const Sample& s : samples)
      if (s.pt == name) mine.push_back(s);
    groups.emplace_back(std::move(name), std::move(mine));
  }
  return groups;
}

}  // namespace ptperf::bench
