#include "ptperf/campaign.h"

#include <functional>
#include <map>
#include <optional>

namespace ptperf {

DownloadOutcome classify(const workload::FetchResult& r) {
  if (r.success) return DownloadOutcome::kComplete;
  if (r.received_bytes == 0) return DownloadOutcome::kFailed;
  return DownloadOutcome::kPartial;
}

std::string_view outcome_name(DownloadOutcome o) {
  switch (o) {
    case DownloadOutcome::kComplete: return "complete";
    case DownloadOutcome::kPartial: return "partial";
    case DownloadOutcome::kFailed: return "failed";
  }
  return "unknown";
}

namespace {

/// How one attempt ended: with the sample to record, after which the next
/// attempt starts a think gap later, or without one, after which the same
/// (item, rep) is attempted again `retry_after` later.
template <typename Sample>
struct AttemptEnd {
  std::optional<Sample> sample;
  sim::Duration retry_after{};
};

template <typename Sample>
using AttemptDone = std::function<void(AttemptEnd<Sample>)>;

/// Starts attempt number `attempt` (counted from 1) at (item, rep) and
/// calls `done` once it has ended.
template <typename Sample>
using Attempt = std::function<void(std::size_t item, int rep, int attempt,
                                   AttemptDone<Sample> done)>;

/// The measurement loop behind every Campaign::run_*: `items` x `reps`
/// samples, one attempt at a time in the world's virtual time, with
/// `think_gap` after each recorded sample so transport state settles.
template <typename Sample>
std::vector<Sample> run_attempts(sim::EventLoop& loop, sim::Duration think_gap,
                                 std::size_t items, int reps,
                                 const Attempt<Sample>& attempt) {
  std::vector<Sample> samples;
  std::size_t item = 0;
  int rep = 0;
  int tries = 0;
  bool running = false;
  bool finished = false;

  std::function<void()> start_next = [&]() {
    if (item >= items) {
      finished = true;
      return;
    }
    running = true;
    attempt(item, rep, ++tries, [&](AttemptEnd<Sample> end) {
      running = false;
      if (!end.sample) {
        loop.schedule(end.retry_after, [&] { start_next(); });
        return;
      }
      samples.push_back(std::move(*end.sample));
      tries = 0;
      if (++rep >= reps) {
        rep = 0;
        ++item;
      }
      loop.schedule(think_gap, [&] { start_next(); });
    });
  };

  start_next();
  loop.run_until_done([&] { return finished && !running; });
  return samples;
}

/// Circuit hygiene before an access: a re-sampled guard when the options
/// ask for one, and a fresh circuit.
void fresh_circuit(const CampaignOptions& opts, PtStack& stack) {
  if (opts.rotate_guard_per_site) stack.tor->path_selector().reset_guard();
  stack.socks->new_identity();
}

}  // namespace

Campaign::Campaign(Scenario& scenario, CampaignOptions opts)
    : scenario_(&scenario), opts_(opts) {}

std::vector<const workload::Website*> Campaign::take_sites(
    const workload::Corpus& corpus, std::size_t n) {
  std::vector<const workload::Website*> out;
  for (std::size_t i = 0; i < corpus.sites().size() && i < n; ++i)
    out.push_back(&corpus.sites()[i]);
  return out;
}

std::vector<const workload::Website*> Campaign::merge(
    std::vector<const workload::Website*> a,
    const std::vector<const workload::Website*>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

std::vector<WebsiteSample> Campaign::run_website_curl(
    PtStack& stack, const std::vector<const workload::Website*>& sites) {
  return run_attempts<WebsiteSample>(
      scenario_->loop(), opts_.think_gap, sites.size(), opts_.website_reps,
      [&](std::size_t item, int rep, int, AttemptDone<WebsiteSample> done) {
        if (rep == 0) fresh_circuit(opts_, stack);
        const workload::Website* site = sites[item];
        stack.fetcher->fetch(
            site->hostname, "/", opts_.website_timeout,
            [&, site, rep, done](workload::FetchResult r) {
              WebsiteSample s;
              s.pt = stack.name();
              s.site = site->hostname;
              s.rep = rep;
              s.result = std::move(r);
              done({std::move(s)});
            });
      });
}

std::vector<PageSample> Campaign::run_website_selenium(
    PtStack& stack, const std::vector<const workload::Website*>& sites) {
  if (!stack.supports_selenium()) return {};
  return run_attempts<PageSample>(
      scenario_->loop(), opts_.think_gap, sites.size(), opts_.website_reps,
      [&](std::size_t item, int rep, int, AttemptDone<PageSample> done) {
        if (rep == 0) fresh_circuit(opts_, stack);
        const workload::Website* site = sites[item];
        stack.fetcher->fetch_page(
            *site, [&, site, rep, done](workload::PageLoadResult r) {
              PageSample s;
              s.pt = stack.name();
              s.site = site->hostname;
              s.rep = rep;
              s.speed_index_s = workload::speed_index(*site, r);
              s.result = std::move(r);
              done({std::move(s)});
            });
      });
}

std::vector<FileSample> Campaign::run_file_downloads(
    PtStack& stack, const std::vector<std::size_t>& sizes) {
  // With no retry to fire, a reliability run schedules exactly the events
  // of a plain download run: the download is its unclassified view.
  std::vector<FileSample> samples;
  for (ReliabilitySample& s : run_reliability(stack, sizes, RetryPolicy{}))
    samples.push_back(
        {std::move(s.pt), s.size_bytes, s.rep, std::move(s.result)});
  return samples;
}

std::vector<ReliabilitySample> Campaign::run_reliability(
    PtStack& stack, const std::vector<std::size_t>& sizes, RetryPolicy retry) {
  return run_attempts<ReliabilitySample>(
      scenario_->loop(), opts_.think_gap, sizes.size(), opts_.file_reps,
      [&](std::size_t item, int rep, int attempt,
          AttemptDone<ReliabilitySample> done) {
        // Every attempt — first try or retry — runs over a fresh circuit:
        // bulk transfers regularly outlive tunnels, and the paper retried
        // from scratch.
        fresh_circuit(opts_, stack);
        std::size_t size = sizes[item];
        std::string target = "/";
        target += workload::file_target_name(size);
        stack.fetcher->fetch(
            "files.example", target, opts_.file_timeout,
            [&, size, rep, attempt, done](workload::FetchResult r) {
              DownloadOutcome outcome = classify(r);
              if (outcome == DownloadOutcome::kFailed &&
                  attempt <= retry.max_retries) {
                done({std::nullopt, retry.backoff});
                return;
              }
              ReliabilitySample s;
              s.pt = stack.name();
              s.size_bytes = size;
              s.rep = rep;
              s.attempts = attempt;
              s.outcome = outcome;
              s.result = std::move(r);
              done({std::move(s)});
            });
      });
}

OutcomeCounts count_outcomes(const std::vector<ReliabilitySample>& xs) {
  OutcomeCounts c;
  for (const ReliabilitySample& s : xs) {
    switch (s.outcome) {
      case DownloadOutcome::kComplete: ++c.complete; break;
      case DownloadOutcome::kPartial: ++c.partial; break;
      case DownloadOutcome::kFailed: ++c.failed; break;
    }
  }
  return c;
}

std::vector<double> elapsed_seconds(const std::vector<WebsiteSample>& xs) {
  std::vector<double> out;
  for (const auto& s : xs)
    if (s.result.success) out.push_back(s.result.elapsed());
  return out;
}

std::vector<double> ttfb_seconds(const std::vector<WebsiteSample>& xs) {
  std::vector<double> out;
  for (const auto& s : xs)
    if (s.result.ttfb() >= 0) out.push_back(s.result.ttfb());
  return out;
}

std::vector<double> load_seconds(const std::vector<PageSample>& xs) {
  std::vector<double> out;
  for (const auto& s : xs)
    if (s.result.success) out.push_back(s.result.load_time_s);
  return out;
}

std::vector<double> per_site_means(const std::vector<WebsiteSample>& xs) {
  std::map<std::string, std::pair<double, int>> acc;
  for (const auto& s : xs) {
    if (!s.result.success) continue;
    auto& slot = acc[s.site];
    slot.first += s.result.elapsed();
    slot.second += 1;
  }
  std::vector<double> out;
  out.reserve(acc.size());
  for (const auto& [site, slot] : acc)
    out.push_back(slot.first / slot.second);
  return out;
}

}  // namespace ptperf
