// Sharded campaign engine. A campaign is split into independent shards —
// one per (PT, work-item chunk) — and each shard gets a whole private
// world: its own Scenario (event loop, network, consensus, relays) and
// PtStack, seeded from Rng::fork("shard/<pt>/<chunk>") off the campaign's
// base seed. Shards run on a fixed-size thread pool and their samples are
// merged in plan order, so the output is a pure function of (base seed,
// plan) — byte-identical whether the shards run on one thread or sixteen,
// and whatever order they happen to finish in. The single-shard core stays
// thread-free by construction (simlint's banned-thread rule); all
// threading in src/ lives in src/ptperf/parallel*. See
// docs/PARALLEL_EXECUTION.md for the determinism argument.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ptperf/campaign.h"

namespace ptperf {

namespace checkpoint {
class Store;
}  // namespace checkpoint

/// One unit of independent work: a PT (nullopt = vanilla Tor) and a
/// half-open slice [item_begin, item_end) of the campaign's work-item list
/// (websites or file sizes), plus the derived seed of the shard's world.
struct ShardSpec {
  std::size_t index = 0;        // position in the plan == merge position
  std::optional<PtId> pt;       // nullopt => vanilla Tor
  std::string pt_name;          // "tor" or the PT's name
  std::size_t item_begin = 0;
  std::size_t item_end = 0;
  std::size_t chunk_index = 0;  // per-PT chunk ordinal
  std::uint64_t seed = 0;       // scenario seed for this shard's world
};

/// Scenario seed for one shard: an independent stream forked off the base
/// seed, namespaced by PT and chunk so adding PTs or re-chunking one PT
/// never perturbs another shard's world.
std::uint64_t shard_seed(std::uint64_t base_seed, std::string_view pt_name,
                         std::size_t chunk_index);

/// The full, jobs-independent decomposition of a campaign. Building the
/// plan never looks at thread count — the same (base seed, PT list, item
/// count, chunking) always yields the same shards with the same seeds,
/// which is what makes `--jobs 1` and `--jobs N` byte-identical.
class ShardPlan {
 public:
  ShardPlan() = default;

  /// One shard per PT x item-chunk. `items_per_shard` = 0 puts each PT's
  /// whole item list in a single shard (enough parallelism for the usual
  /// 13-stack sweep); smaller chunks trade scenario-construction overhead
  /// for balance.
  static ShardPlan build(std::uint64_t base_seed,
                         const std::vector<std::optional<PtId>>& pts,
                         std::size_t item_count,
                         std::size_t items_per_shard = 0);

  const std::vector<ShardSpec>& shards() const { return shards_; }
  std::size_t size() const { return shards_.size(); }

 private:
  std::vector<ShardSpec> shards_;
};

/// Where one shard's wall/virtual time went (imbalance + speedup
/// observability; printed by the bench harness under --verbose).
struct ShardTiming {
  std::size_t shard = 0;
  std::string pt;
  std::size_t items = 0;
  double virtual_seconds = 0;  // simulated time the shard's world advanced
  std::int64_t wall_us = 0;    // real time the shard occupied a pool thread
};

/// Fixed-size thread pool running index-addressed tasks. Tasks must only
/// touch state owned by their own index (the engine gives each shard its
/// own result slot); the pool itself imposes no ordering, which is safe
/// exactly because merging happens by index afterwards. jobs <= 1 runs
/// every task inline on the calling thread — the legacy thread-free path.
class ParallelExecutor {
 public:
  explicit ParallelExecutor(int jobs);

  int jobs() const { return jobs_; }

  /// Runs task(0..n-1) across the pool; returns when all completed. The
  /// first exception a task throws is rethrown here after the pool drains.
  void for_each(std::size_t n, const std::function<void(std::size_t)>& task);

  /// Hardware concurrency, at least 1 (the `--jobs` default).
  static int hardware_jobs();

 private:
  int jobs_ = 1;
};

/// The replicable world recipe of a sharded campaign: base ScenarioConfig
/// plus per-shard configure hooks.
struct ShardedCampaignConfig {
  /// Base world recipe. `scenario.seed` is the campaign's base seed; each
  /// shard overrides `seed` with its fork and pins `corpus_seed` to the
  /// base so all shards measure the same synthetic web.
  ScenarioConfig scenario;
  CampaignOptions campaign;
  TransportFactoryOptions factory;
  int jobs = 1;
  /// Work items (sites or file sizes) per shard; 0 = one chunk per PT.
  std::size_t items_per_shard = 0;
  /// Flight-recorder category mask (trace::Category bits). 0 = tracing
  /// off: no recorder is attached, every TRACE_* site is a no-op, and no
  /// per-shard trace data is collected. Nonzero masks never change the
  /// samples — the recorder is a pure observer (see src/trace/trace.h).
  unsigned trace_categories = 0;
  /// Per-shard world setup (e.g. install a fault plan). Must be a pure
  /// function of the Scenario it receives — it runs once in every shard.
  std::function<void(Scenario&)> configure_scenario;
  /// Per-shard stack setup (e.g. snowflake load regime).
  std::function<void(Scenario&, PtStack&)> configure_stack;
  /// Optional checkpoint store (src/ptperf/checkpoint.h). When set, every
  /// run registers its plan with the store, skips shards the snapshot
  /// already holds (decoding their recorded samples/timing/faults into the
  /// merge slots), and records each freshly-completed shard — so a killed
  /// run resumed from its snapshot merges to byte-identical output.
  /// Shared, not owned: the ensemble layer copies this config per
  /// repetition and every repetition must append to the same snapshot.
  std::shared_ptr<checkpoint::Store> checkpoint;
};

/// The sharded engine: one repetition of a campaign, and the private
/// runner of EnsembleCampaign (ensemble.h), which is the only way to start
/// one. It knows nothing about measurement kinds: run() takes a work-item
/// count and the body that measures one shard's slice (the paper's kinds
/// live in ensemble.cc), and the engine owns the world recipe, the pool,
/// the checkpoint store, and the plan-order merge. Samples are returned;
/// per-shard timings, traces and injected-fault counters go straight into
/// the owning ensemble's ledger.
class ShardedCampaign {
 public:
  /// The campaign's PT list as plan input: vanilla Tor first, then `pts`
  /// (the bench convention).
  static std::vector<std::optional<PtId>> with_vanilla(
      const std::vector<PtId>& pts);

 private:
  friend class EnsembleCampaign;

  /// What one shard measures: its slice [spec.item_begin, spec.item_end)
  /// of the campaign's work items, in the shard's private world (its own
  /// Scenario, the PtStack for spec.pt, and a Campaign over both).
  template <typename Sample>
  using ShardBody = std::function<std::vector<Sample>(
      const ShardSpec& spec, Scenario& scenario, Campaign& campaign,
      PtStack& stack)>;

  /// Everything a run reports besides its samples, appended in (run, plan)
  /// order. Traces are appended only when cfg.trace_categories is nonzero.
  struct Ledger {
    std::vector<ShardTiming> timings;
    std::vector<trace::ShardTrace> traces;
    std::array<std::uint64_t,
               static_cast<std::size_t>(fault::FaultKind::kCount_)>
        faults{};
  };

  ShardedCampaign(ShardedCampaignConfig cfg, Ledger& ledger);

  /// Plans one shard per PT x chunk of `item_count` work items, runs
  /// `body` in every shard across the pool, and merges the samples in plan
  /// order (timings, traces and fault counters into the ledger, likewise
  /// in plan order). Sample is any type with a shard-unit codec in
  /// checkpoint.h.
  template <typename Sample>
  std::vector<Sample> run(const std::vector<std::optional<PtId>>& pts,
                          std::size_t item_count,
                          const ShardBody<Sample>& body);

  ShardedCampaignConfig cfg_;
  Ledger& ledger_;
};

}  // namespace ptperf
