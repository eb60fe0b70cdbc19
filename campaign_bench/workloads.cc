#include "workloads.h"

#include <chrono>
#include <cstring>

#include "population/contention.h"
#include "stats/descriptive.h"
#include "stats/ttest.h"

namespace campaign_bench {

using namespace ptperf;

namespace {

std::vector<std::optional<PtId>> sweep_pts() {
  // The figures' sweep: vanilla Tor, then the 12 PTs in paper order.
  return ShardedCampaign::with_vanilla(
      {PtId::kMeek, PtId::kPsiphon, PtId::kConjure, PtId::kSnowflake,
       PtId::kCamoufler, PtId::kDnstt, PtId::kWebTunnel, PtId::kMarionette,
       PtId::kStegotorus, PtId::kCloak, PtId::kShadowsocks, PtId::kObfs4});
}

std::vector<Workload> make_workloads() {
  constexpr std::size_t kFiveMb = 5u << 20;
  std::vector<Workload> out;

  Workload bulk;
  bulk.name = "bulk_download";
  bulk.figure = "fig5";
  bulk.kind = Kind::kFiles;
  bulk.jobs = 1;
  bulk.pts = sweep_pts();
  bulk.sizes = {kFiveMb};
  bulk.file_reps = 1;
  out.push_back(bulk);

  Workload web;
  web.name = "web_curl";
  web.figure = "fig2a";
  web.kind = Kind::kWebsites;
  web.jobs = 2;
  web.pts = sweep_pts();
  web.sites = {8, 8};
  web.website_reps = 3;
  out.push_back(web);

  Workload faulted;
  faulted.name = "faulted_reliability";
  faulted.figure = "fig8";
  faulted.kind = Kind::kReliability;
  faulted.jobs = 1;
  faulted.pts = sweep_pts();
  faulted.sizes = {kFiveMb};
  faulted.file_reps = 2;
  faulted.faults = true;
  faulted.retries = 2;
  out.push_back(faulted);
  return out;
}

constexpr std::uint64_t kCorpusSeed = 1;

std::string pt_label(const std::optional<PtId>& pt) {
  return pt ? std::string(pt_id_name(*pt)) : "tor";
}

// --- the figures' reductions (what the bench binaries compute) ----------

void reduce(const Workload&, const std::vector<WebsiteSample>& xs) {
  std::vector<std::vector<double>> per_site;
  for (const auto& pt : sweep_pts()) {
    std::vector<WebsiteSample> mine;
    for (const WebsiteSample& s : xs)
      if (s.pt == pt_label(pt)) mine.push_back(s);
    per_site.push_back(per_site_means(mine));
    stats::box_stats(per_site.back());
  }
  for (std::size_t i = 0; i < per_site.size(); ++i)
    for (std::size_t j = i + 1; j < per_site.size(); ++j)
      stats::paired_t_test(per_site[i], per_site[j]);
}

void reduce(const Workload& w, const std::vector<FileSample>& xs) {
  const double timeout_s = sim::to_seconds(CampaignOptions{}.file_timeout);
  std::vector<std::vector<double>> pooled;
  for (const auto& pt : sweep_pts()) {
    std::vector<double> all;
    for (std::size_t size : w.sizes) {
      std::vector<double> ok;
      for (const FileSample& s : xs) {
        if (s.pt != pt_label(pt) || s.size_bytes != size) continue;
        if (s.result.success) ok.push_back(s.result.elapsed());
        all.push_back(s.result.success ? s.result.elapsed() : timeout_s);
      }
      if (ok.size() >= 2) stats::mean(ok);
    }
    pooled.push_back(std::move(all));
  }
  for (std::size_t i = 0; i < pooled.size(); ++i)
    for (std::size_t j = i + 1; j < pooled.size(); ++j)
      stats::paired_t_test(pooled[i], pooled[j]);
}

void reduce(const Workload&, const std::vector<ReliabilitySample>& xs) {
  for (const auto& pt : sweep_pts()) {
    std::vector<ReliabilitySample> mine;
    std::vector<double> fractions;
    for (const ReliabilitySample& s : xs) {
      if (s.pt != pt_label(pt)) continue;
      mine.push_back(s);
      fractions.push_back(s.result.fraction());
    }
    count_outcomes(mine);
    if (!fractions.empty()) {
      stats::Ecdf ecdf(fractions);
      for (double p : {0.1, 0.2, 0.4, 0.6, 0.8, 0.92, 0.96, 1.0}) ecdf(p);
    }
  }
}

/// Milliseconds per reduction, averaged over enough repetitions to span
/// about 50 ms.
template <typename Sample>
double time_reduction(const Workload& w, const std::vector<Sample>& xs) {
  int reps = 0;
  double start = now_s();
  double elapsed = 0;
  do {
    reduce(w, xs);
    ++reps;
    elapsed = now_s() - start;
  } while (elapsed < 0.05);
  return elapsed * 1e3 / reps;
}

template <typename Sample>
CampaignResult finish(const Workload& w, EnsembleCampaign& engine,
                      const std::vector<Sample>& samples, double start,
                      bool time_reduce) {
  CampaignResult r;
  r.wall_s = now_s() - start;
  for (const Sample& s : samples) r.tally.add(s);
  r.timings = engine.timings();
  r.injected_faults = engine.total_injected_faults();
  r.traces = engine.traces();
  if (time_reduce) r.reduce_ms = time_reduction(w, samples);
  return r;
}

}  // namespace

const std::vector<Workload>& all_workloads() {
  static const std::vector<Workload> kAll = make_workloads();
  return kAll;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : all_workloads())
    if (w.name == name) return &w;
  return nullptr;
}

EnsembleCampaignConfig campaign_config(const Workload& w, std::uint64_t seed,
                                       unsigned trace_categories) {
  EnsembleCampaignConfig ecfg;
  ecfg.repeats = 1;
  ShardedCampaignConfig& cfg = ecfg.base;
  cfg.scenario.seed = seed;
  cfg.jobs = w.jobs;
  cfg.trace_categories = trace_categories;
  if (w.kind == Kind::kWebsites) {
    // The site list is the workload's fixed input: a corpus drawn from the
    // seed would change the bytes fetched, and so the work, several-fold
    // between seeds (page sizes are heavy-tailed). The seed still draws
    // every shard's network, relays, paths and losses.
    cfg.scenario.corpus_seed = kCorpusSeed;
    cfg.scenario.tranco_sites = w.sites.tranco;
    cfg.scenario.cbl_sites = w.sites.cbl;
    cfg.campaign.website_reps = w.website_reps;
    return ecfg;
  }
  // The file campaigns' world: two corpus sites, files.example, and
  // snowflake in the surge regime the paper's downloads overlapped.
  cfg.scenario.tranco_sites = 2;
  cfg.scenario.cbl_sites = 0;
  cfg.campaign.file_reps = w.file_reps;
  cfg.configure_stack = [](Scenario&, PtStack& stack) {
    if (stack.snowflake) population::apply_regime(*stack.snowflake, true);
  };
  if (w.faults) {
    cfg.configure_scenario = [](Scenario& scenario) {
      scenario.install_fault_plan(fault::FaultPlan::paper_section_4_6());
    };
  }
  return ecfg;
}

ShardPlan shard_plan(const Workload& w, std::uint64_t seed) {
  return ShardPlan::build(seed, w.pts, w.item_count());
}

// --- Tally --------------------------------------------------------------

void Tally::mix(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (v >> (8 * i)) & 0xff;
    hash_ *= 1099511628211ull;  // FNV-1a prime
  }
}

void Tally::mix(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  mix(bits);
}

void Tally::mix(std::string_view s) {
  mix(static_cast<std::uint64_t>(s.size()));
  for (char c : s) {
    hash_ ^= static_cast<unsigned char>(c);
    hash_ *= 1099511628211ull;
  }
}

void Tally::mix(const workload::FetchResult& r) {
  mix(r.target);
  mix(r.start_s);
  mix(r.ttfb_s);
  mix(r.complete_s);
  mix(static_cast<std::uint64_t>(r.expected_bytes));
  mix(static_cast<std::uint64_t>(r.received_bytes));
  mix(static_cast<std::uint64_t>(r.success) |
      static_cast<std::uint64_t>(r.timed_out) << 1);
  mix(r.error);
  received_ += r.received_bytes;
}

void Tally::add(const WebsiteSample& s) {
  mix(s.pt);
  mix(s.site);
  mix(static_cast<std::uint64_t>(s.rep));
  mix(s.result);
  ++samples_;
  ++attempts_;
  if (!s.result.success) ++failed_;
}

void Tally::add(const FileSample& s) {
  mix(s.pt);
  mix(static_cast<std::uint64_t>(s.size_bytes));
  mix(static_cast<std::uint64_t>(s.rep));
  mix(s.result);
  ++samples_;
  ++attempts_;
  if (!s.result.success) ++failed_;
}

void Tally::add(const ReliabilitySample& s) {
  mix(s.pt);
  mix(static_cast<std::uint64_t>(s.size_bytes));
  mix(static_cast<std::uint64_t>(s.rep));
  mix(static_cast<std::uint64_t>(s.attempts));
  mix(static_cast<std::uint64_t>(s.outcome));
  mix(s.result);
  ++samples_;
  // Only failed attempts are retried (retry_on_partial is off), so every
  // attempt before the final one failed.
  attempts_ += static_cast<std::size_t>(s.attempts);
  failed_ += static_cast<std::size_t>(s.attempts - 1) +
             (s.result.success ? 0 : 1);
}

// --- running ------------------------------------------------------------

CampaignResult run_campaign(const Workload& w, std::uint64_t seed,
                            unsigned trace_categories, bool time_reduce) {
  double start = now_s();
  EnsembleCampaign engine(campaign_config(w, seed, trace_categories));
  switch (w.kind) {
    case Kind::kWebsites: {
      auto runs = engine.run_website_curl(w.pts, w.sites);
      return finish(w, engine, runs.first(), start, time_reduce);
    }
    case Kind::kFiles: {
      auto runs = engine.run_file_downloads(w.pts, w.sizes);
      return finish(w, engine, runs.first(), start, time_reduce);
    }
    case Kind::kReliability: {
      RetryPolicy retry;
      retry.max_retries = w.retries;
      auto runs = engine.run_reliability(w.pts, w.sizes, retry);
      return finish(w, engine, runs.first(), start, time_reduce);
    }
  }
  return {};
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace campaign_bench
