#include "ptperf/ensemble.h"

#include <algorithm>
#include <cmath>

#include "sim/rng.h"
#include "stats/descriptive.h"
#include "stats/ttest.h"

namespace ptperf {

namespace ensemble {

Estimate summarize(const std::vector<double>& per_rep) {
  Estimate e;
  e.repeats = per_rep.size();
  if (per_rep.empty()) return e;
  stats::Welford w;
  e.min = per_rep.front();
  e.max = per_rep.front();
  for (double x : per_rep) {
    w.add(x);
    e.min = std::min(e.min, x);
    e.max = std::max(e.max, x);
  }
  e.mean = w.mean();
  e.stddev = w.stddev();
  e.ci_lo = e.ci_hi = e.mean;
  if (per_rep.size() >= 2 && e.stddev > 0) {
    double n = static_cast<double>(per_rep.size());
    double crit = stats::student_t_critical(n - 1, 0.95);
    double half = crit * e.stddev / std::sqrt(n);
    e.ci_lo = e.mean - half;
    e.ci_hi = e.mean + half;
  }
  return e;
}

}  // namespace ensemble

std::uint64_t repeat_seed(std::uint64_t base_seed, int repeat) {
  if (repeat <= 0) return base_seed;
  std::string label = "repeat/" + std::to_string(repeat);
  return sim::Rng(base_seed).fork(label).next_u64();
}

EnsembleCampaign::EnsembleCampaign(EnsembleCampaignConfig cfg)
    : cfg_(std::move(cfg)) {}

std::uint64_t EnsembleCampaign::total_injected_faults() const {
  std::uint64_t total = 0;
  for (std::uint64_t c : ledger_.faults) total += c;
  return total;
}

/// Repetitions execute in order; each one parallelizes internally over
/// base.jobs, so wall time scales like repeats x (single campaign) while
/// every repetition stays individually jobs-independent.
template <typename Sample>
EnsembleRuns<Sample> EnsembleCampaign::run_sharded(
    const std::vector<std::optional<PtId>>& pts, std::size_t item_count,
    const ShardedCampaign::ShardBody<Sample>& body) {
  EnsembleRuns<Sample> runs;
  int n = repeats();
  runs.reps.reserve(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    ShardedCampaignConfig sc = cfg_.base;
    sc.scenario.seed = repeat_seed(cfg_.base.scenario.seed, r);
    // The recorder observes the base campaign only: repetition 0's trace
    // is what --trace wrote before the ensemble layer existed, and extra
    // repetitions never grow (or reorder) the capture.
    if (r > 0) sc.trace_categories = 0;
    ShardedCampaign engine(std::move(sc), ledger_);
    runs.reps.push_back(engine.run<Sample>(pts, item_count, body));
  }
  return runs;
}

namespace {

/// The shard's view of the campaign's site list: selection resolved in the
/// shard's own world (identical across shards — corpus_seed is pinned),
/// then sliced to the shard's chunk.
std::vector<const workload::Website*> shard_sites(const ShardSpec& spec,
                                                  Scenario& scenario,
                                                  const SiteSelection& sel) {
  auto sites =
      Campaign::merge(Campaign::take_sites(scenario.tranco(), sel.tranco),
                      Campaign::take_sites(scenario.cbl(), sel.cbl));
  std::size_t end = std::min(spec.item_end, sites.size());
  std::size_t begin = std::min(spec.item_begin, end);
  return {sites.begin() + static_cast<std::ptrdiff_t>(begin),
          sites.begin() + static_cast<std::ptrdiff_t>(end)};
}

std::vector<std::size_t> shard_sizes(const ShardSpec& spec,
                                     const std::vector<std::size_t>& sizes) {
  std::size_t end = std::min(spec.item_end, sizes.size());
  std::size_t begin = std::min(spec.item_begin, end);
  return {sizes.begin() + static_cast<std::ptrdiff_t>(begin),
          sizes.begin() + static_cast<std::ptrdiff_t>(end)};
}

/// fig9's shard body: vanilla Tor and the shard's PT on the same fixed
/// circuit per site, fetched back to back, with the PT's per-layer byte
/// deltas over its share of the work.
std::vector<OverheadSample> measure_overhead(
    const std::vector<const workload::Website*>& sites, Scenario& scenario,
    PtStack& stack, const TransportFactoryOptions& factory_opts) {
  std::vector<OverheadSample> out;
  // The vanilla baseline lives in the shard's own world so both stacks see
  // identical relays, sites, and load.
  TransportFactory vanilla_factory(scenario, factory_opts);
  PtStack tor = vanilla_factory.create_vanilla();
  sim::EventLoop& loop = scenario.loop();
  tor::PathSelector sampler(scenario.consensus(),
                            scenario.fork_rng("fig9-sampler"));

  auto fetch_once = [&loop](PtStack& s, const std::string& host) {
    double t = -1;
    bool done = false;
    s.fetcher->fetch(host, "/", sim::from_seconds(120),
                     [&](workload::FetchResult r) {
                       if (r.success) t = r.elapsed();
                       done = true;
                     });
    loop.run_until_done([&] { return done; });
    return t;
  };

  const pt::layer::LayerStack* layers = stack.transport->layer_stack();
  const pt::layer::StackAccounting* acct =
      layers ? layers->accounting().get() : nullptr;

  for (const workload::Website* site : sites) {
    // Same circuit for Tor and the PT at this site: identical first hop
    // (the PT's bridge when it has one, else a sampled guard) and the same
    // middle/exit pair.
    tor::Path p = sampler.select({});
    tor::PathConstraints constraints;
    constraints.entry = stack.transport->fixed_entry()
                            ? stack.transport->fixed_entry()
                            : std::optional<tor::RelayIndex>(p.entry);
    constraints.middle = p.middle;
    constraints.exit = p.exit;
    tor.socks->set_constraints(constraints);
    stack.socks->set_constraints(constraints);

    // Snapshot before the PT warms so the delta covers the site's full PT
    // share: transport connect, circuit build, and fetch.
    pt::layer::StackAccounting before;
    if (acct) before = *acct;

    tor.socks->warm();
    stack.socks->warm();

    OverheadSample s;
    s.pt = stack.name();
    s.site = site->hostname;
    s.tor_s = fetch_once(tor, site->hostname);
    s.pt_s = fetch_once(stack, site->hostname);
    if (acct) {
      s.payload_bytes = acct->payload_bytes - before.payload_bytes;
      s.handshake_bytes = acct->handshake_bytes - before.handshake_bytes;
      s.framing_bytes = acct->framing_bytes - before.framing_bytes;
      s.carrier_bytes = acct->carrier_bytes - before.carrier_bytes;
      s.wire_bytes = acct->wire_bytes - before.wire_bytes;
      s.handshake_rtts = acct->handshake_rtts - before.handshake_rtts;
    }
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace

EnsembleRuns<WebsiteSample> EnsembleCampaign::run_website_curl(
    const std::vector<std::optional<PtId>>& pts, const SiteSelection& sites) {
  return run_sharded<WebsiteSample>(
      pts, sites.count(),
      [&sites](const ShardSpec& spec, Scenario& scenario, Campaign& campaign,
               PtStack& stack) {
        return campaign.run_website_curl(stack,
                                         shard_sites(spec, scenario, sites));
      });
}

EnsembleRuns<PageSample> EnsembleCampaign::run_website_selenium(
    const std::vector<std::optional<PtId>>& pts, const SiteSelection& sites) {
  return run_sharded<PageSample>(
      pts, sites.count(),
      [&sites](const ShardSpec& spec, Scenario& scenario, Campaign& campaign,
               PtStack& stack) {
        return campaign.run_website_selenium(
            stack, shard_sites(spec, scenario, sites));
      });
}

EnsembleRuns<FileSample> EnsembleCampaign::run_file_downloads(
    const std::vector<std::optional<PtId>>& pts,
    const std::vector<std::size_t>& sizes) {
  return run_sharded<FileSample>(
      pts, sizes.size(),
      [&sizes](const ShardSpec& spec, Scenario&, Campaign& campaign,
               PtStack& stack) {
        return campaign.run_file_downloads(stack, shard_sizes(spec, sizes));
      });
}

EnsembleRuns<ReliabilitySample> EnsembleCampaign::run_reliability(
    const std::vector<std::optional<PtId>>& pts,
    const std::vector<std::size_t>& sizes, RetryPolicy retry) {
  return run_sharded<ReliabilitySample>(
      pts, sizes.size(),
      [&sizes, retry](const ShardSpec& spec, Scenario&, Campaign& campaign,
                      PtStack& stack) {
        return campaign.run_reliability(stack, shard_sizes(spec, sizes),
                                        retry);
      });
}

EnsembleRuns<OverheadSample> EnsembleCampaign::run_overhead(
    const std::vector<PtId>& pts, const SiteSelection& sites) {
  return run_sharded<OverheadSample>(
      std::vector<std::optional<PtId>>(pts.begin(), pts.end()), sites.count(),
      [this, &sites](const ShardSpec& spec, Scenario& scenario, Campaign&,
                     PtStack& stack) {
        return measure_overhead(shard_sites(spec, scenario, sites), scenario,
                                stack, cfg_.base.factory);
      });
}

}  // namespace ptperf
