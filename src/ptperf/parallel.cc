#include "ptperf/parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

#include "ptperf/checkpoint.h"

namespace ptperf {

std::uint64_t shard_seed(std::uint64_t base_seed, std::string_view pt_name,
                         std::size_t chunk_index) {
  std::string label = "shard/";
  label += pt_name;
  label += "/";
  label += std::to_string(chunk_index);
  return sim::Rng(base_seed).fork(label).next_u64();
}

ShardPlan ShardPlan::build(std::uint64_t base_seed,
                           const std::vector<std::optional<PtId>>& pts,
                           std::size_t item_count,
                           std::size_t items_per_shard) {
  ShardPlan plan;
  std::size_t chunk = items_per_shard == 0 ? item_count : items_per_shard;
  for (const std::optional<PtId>& pt : pts) {
    std::string name = pt ? std::string(pt_id_name(*pt)) : "tor";
    std::size_t chunk_index = 0;
    std::size_t begin = 0;
    do {
      ShardSpec spec;
      spec.index = plan.shards_.size();
      spec.pt = pt;
      spec.pt_name = name;
      spec.item_begin = begin;
      spec.item_end = std::min(item_count, begin + chunk);
      spec.chunk_index = chunk_index;
      spec.seed = shard_seed(base_seed, name, chunk_index);
      plan.shards_.push_back(std::move(spec));
      ++chunk_index;
      begin += chunk;
    } while (begin < item_count);
  }
  return plan;
}

ParallelExecutor::ParallelExecutor(int jobs) : jobs_(jobs < 1 ? 1 : jobs) {}

int ParallelExecutor::hardware_jobs() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

void ParallelExecutor::for_each(std::size_t n,
                                const std::function<void(std::size_t)>& task) {
  if (n == 0) return;
  if (jobs_ <= 1 || n == 1) {
    for (std::size_t i = 0; i < n; ++i) task(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mu;
  auto worker = [&] {
    for (;;) {
      std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        task(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };

  std::size_t pool_size =
      std::min(n, static_cast<std::size_t>(jobs_));
  std::vector<std::thread> pool;
  pool.reserve(pool_size);
  for (std::size_t t = 0; t < pool_size; ++t) pool.emplace_back(worker);
  for (std::thread& th : pool) th.join();
  if (first_error) std::rethrow_exception(first_error);
}

ShardedCampaign::ShardedCampaign(ShardedCampaignConfig cfg, Ledger& ledger)
    : cfg_(std::move(cfg)), ledger_(ledger) {}

std::vector<std::optional<PtId>> ShardedCampaign::with_vanilla(
    const std::vector<PtId>& pts) {
  std::vector<std::optional<PtId>> out;
  out.reserve(pts.size() + 1);
  out.emplace_back(std::nullopt);
  for (PtId id : pts) out.emplace_back(id);
  return out;
}

/// Runs `body(spec, scenario, campaign, stack)` for every shard of the
/// plan across the pool, then merges per-shard samples, timings, traces
/// and fault counters strictly in plan order. Every mutable slot is
/// indexed by the shard's plan position and touched by exactly one task;
/// the pool join is the only synchronization the merge needs.
///
/// With a checkpoint store attached, shards the snapshot already holds are
/// decoded straight into their merge slots and never re-run; freshly
/// completed shards are recorded back. Because both paths fill the same
/// plan-position slots, a resumed run merges to byte-identical output.
template <typename Sample>
std::vector<Sample> ShardedCampaign::run(
    const std::vector<std::optional<PtId>>& pts, std::size_t item_count,
    const ShardBody<Sample>& body) {
  ShardPlan plan = ShardPlan::build(cfg_.scenario.seed, pts, item_count,
                                    cfg_.items_per_shard);
  const std::vector<ShardSpec>& shards = plan.shards();
  constexpr auto kFaultKinds =
      static_cast<std::size_t>(fault::FaultKind::kCount_);
  std::vector<std::vector<Sample>> per_shard(shards.size());
  std::vector<ShardTiming> timings(shards.size());
  std::vector<std::array<std::uint64_t, kFaultKinds>> faults(
      shards.size(), std::array<std::uint64_t, kFaultKinds>{});
  std::vector<trace::ShardTrace> traces(shards.size());

  checkpoint::Store* store = cfg_.checkpoint.get();
  int campaign_index =
      store ? store->begin_campaign(checkpoint::plan_hash(plan)) : -1;
  std::vector<std::size_t> pending;
  pending.reserve(shards.size());
  for (std::size_t i = 0; i < shards.size(); ++i) {
    if (store) {
      if (std::optional<util::Bytes> unit = store->completed(campaign_index, i)) {
        util::CodecReader r(*unit);
        checkpoint::decode_unit(r, per_shard[i], timings[i], faults[i]);
        continue;
      }
    }
    pending.push_back(i);
  }

  ParallelExecutor executor(cfg_.jobs);
  executor.for_each(pending.size(), [&](std::size_t slot) {
    std::size_t i = pending[slot];
    const ShardSpec& spec = shards[i];
    std::int64_t wall_start = sim::wall_now_us();

    ScenarioConfig sc = cfg_.scenario;
    if (sc.corpus_seed == 0) sc.corpus_seed = cfg_.scenario.seed;
    sc.seed = spec.seed;
    Scenario scenario(sc);
    if (cfg_.trace_categories != 0)
      scenario.enable_trace(cfg_.trace_categories);
    if (cfg_.configure_scenario) cfg_.configure_scenario(scenario);
    TransportFactory factory(scenario, cfg_.factory);
    PtStack stack =
        spec.pt ? factory.create(*spec.pt) : factory.create_vanilla();
    if (cfg_.configure_stack) cfg_.configure_stack(scenario, stack);
    Campaign campaign(scenario, cfg_.campaign);

    per_shard[i] = body(spec, scenario, campaign, stack);

    ShardTiming t;
    t.shard = spec.index;
    t.pt = spec.pt_name;
    t.items = spec.item_end - spec.item_begin;
    t.virtual_seconds = sim::seconds_since_start(scenario.loop().now());
    t.wall_us = sim::wall_now_us() - wall_start;
    timings[i] = std::move(t);

    if (fault::FaultInjector* injector = scenario.fault_injector()) {
      for (std::size_t k = 0; k < kFaultKinds; ++k)
        faults[i][k] = injector->injected(static_cast<fault::FaultKind>(k));
    }

    if (trace::Recorder* rec = scenario.trace_recorder()) {
      // Mirror injected-fault totals into the metrics registry so the
      // exported trace is self-contained.
      if (fault::FaultInjector* injector = scenario.fault_injector()) {
        for (std::size_t k = 0; k < kFaultKinds; ++k) {
          auto kind = static_cast<fault::FaultKind>(k);
          if (std::uint64_t c = injector->injected(kind); c > 0)
            rec->count(std::string("fault/") +
                           std::string(fault::fault_kind_name(kind)),
                       c);
        }
      }
      traces[i] = trace::ShardTrace{spec.index, spec.pt_name, rec->take()};
    }

    if (store) {
      util::CodecWriter w;
      checkpoint::encode_unit(w, per_shard[i], timings[i], faults[i]);
      store->record(campaign_index, i, w.take());
    }
  });

  std::vector<Sample> merged;
  std::size_t total = 0;
  for (const std::vector<Sample>& xs : per_shard) total += xs.size();
  merged.reserve(total);
  for (std::vector<Sample>& xs : per_shard) {
    for (Sample& s : xs) merged.push_back(std::move(s));
  }
  for (ShardTiming& t : timings) ledger_.timings.push_back(std::move(t));
  if (cfg_.trace_categories != 0) {
    for (trace::ShardTrace& tr : traces)
      ledger_.traces.push_back(std::move(tr));
  }
  for (const auto& shard_counts : faults) {
    for (std::size_t k = 0; k < kFaultKinds; ++k)
      ledger_.faults[k] += shard_counts[k];
  }
  return merged;
}

// The sample types a shard unit can be checkpointed as (checkpoint.h).
template std::vector<WebsiteSample> ShardedCampaign::run(
    const std::vector<std::optional<PtId>>&, std::size_t,
    const ShardBody<WebsiteSample>&);
template std::vector<PageSample> ShardedCampaign::run(
    const std::vector<std::optional<PtId>>&, std::size_t,
    const ShardBody<PageSample>&);
template std::vector<FileSample> ShardedCampaign::run(
    const std::vector<std::optional<PtId>>&, std::size_t,
    const ShardBody<FileSample>&);
template std::vector<ReliabilitySample> ShardedCampaign::run(
    const std::vector<std::optional<PtId>>&, std::size_t,
    const ShardBody<ReliabilitySample>&);
template std::vector<OverheadSample> ShardedCampaign::run(
    const std::vector<std::optional<PtId>>&, std::size_t,
    const ShardBody<OverheadSample>&);

}  // namespace ptperf
