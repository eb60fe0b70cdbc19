// Campaign benchmark binary. One process runs one workload:
//
//   campaign_bench run   --workload W --seed N --seconds T   end-to-end
//   campaign_bench trace --workload W --seed N --seconds T   per-layer
//   campaign_bench hash  --workload W --seed N               output hash
//
// Every mode prints the run's generated inputs as '#' header lines, then
// one JSON object on the last line. run.py in this directory builds the
// binary, checks the hashes against reference.json and prints the result.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "layers.h"
#include "tor/cell.h"
#include "workloads.h"

namespace campaign_bench {
namespace {

using namespace ptperf;

double median(std::vector<double> xs) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  std::size_t n = xs.size();
  return n % 2 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

/// Metrics in print order, each with its unit.
class Metrics {
 public:
  void add(std::string name, double value, std::string unit) {
    rows_.push_back({std::move(name), value, std::move(unit)});
  }
  std::string json() const {
    std::string out = "{";
    for (const Row& r : rows_) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g", r.value);
      if (out.size() > 1) out += ", ";
      out += "\"" + r.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
             r.unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Row> rows_;
};

std::string json_bool(bool b) { return b ? "true" : "false"; }

void print_inputs(const Workload& w, std::uint64_t seed) {
  std::printf("# workload: %s (%s campaign, closed batch, 1 repetition)\n",
              w.name.c_str(), w.figure.c_str());
  std::printf("# seed: %" PRIu64 "\n", seed);
  std::printf("# threads: %d\n", w.jobs);
  std::string stacks;
  for (const auto& pt : w.pts)
    stacks += " " + (pt ? std::string(pt_id_name(*pt)) : std::string("tor"));
  std::printf("# stacks (one shard each):%s\n", stacks.c_str());
  if (w.kind == Kind::kWebsites) {
    ScenarioConfig sc = campaign_config(w, seed, 0).base.scenario;
    Scenario scenario(sc);
    auto sites =
        Campaign::merge(Campaign::take_sites(scenario.tranco(), w.sites.tranco),
                        Campaign::take_sites(scenario.cbl(), w.sites.cbl));
    std::printf("# sites (%zu tranco + %zu cbl from corpus seed %" PRIu64
                ", %d accesses each, fresh circuit and guard per site): "
                "host=page_bytes",
                w.sites.tranco, w.sites.cbl, sc.corpus_seed, w.website_reps);
    for (const workload::Website* s : sites)
      std::printf(" %s=%zu", s->hostname.c_str(), s->default_page_bytes);
    std::printf("\n");
  } else {
    std::string sizes;
    for (std::size_t s : w.sizes) sizes += " " + std::to_string(s);
    std::printf("# file sizes (bytes):%s; %d download(s) each; snowflake in "
                "the surge regime\n",
                sizes.c_str(), w.file_reps);
  }
  if (!w.faults) {
    std::printf("# fault plan: none\n");
    return;
  }
  fault::FaultPlan plan = fault::FaultPlan::paper_section_4_6();
  std::printf("# fault plan: paper section 4.6, retries %d:", w.retries);
  for (const fault::PipeFaultRule& r : plan.pipe_rules) {
    std::printf(" [service %s: reset p=%g after %" PRIu64 "..%" PRIu64
                " B; stall p=%g after %" PRIu64 "..%" PRIu64
                " B for %g s; drop p=%g; refuse p=%g; blackhole p=%g]",
                r.service.c_str(), r.reset_probability,
                r.reset_after_bytes_min, r.reset_after_bytes_max,
                r.stall_probability, r.stall_after_bytes_min,
                r.stall_after_bytes_max, sim::to_seconds(r.stall_duration),
                r.drop_probability, r.refuse_probability,
                r.blackhole_probability);
  }
  std::printf(" tls_reject p=%g; broker_503 p=%g; dns_truncation p=%g; "
              "cdn_error p=%g; circuit_build_failure p=%g\n",
              plan.tls_handshake_reject_probability,
              plan.broker_unavailable_probability,
              plan.dns_truncation_probability, plan.cdn_error_probability,
              plan.circuit_build_failure_probability);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct ShardStats {
  double summed_s = 0;
  double p50_s = 0;
  double max_s = 0;
  double mean_s = 0;
  double virtual_s = 0;
};

ShardStats shard_stats(const std::vector<ShardTiming>& timings) {
  ShardStats s;
  std::vector<double> walls;
  for (const ShardTiming& t : timings) {
    walls.push_back(static_cast<double>(t.wall_us) / 1e6);
    s.summed_s += walls.back();
    s.virtual_s += t.virtual_seconds;
  }
  s.p50_s = median(walls);
  s.max_s = walls.empty() ? 0 : *std::max_element(walls.begin(), walls.end());
  s.mean_s = walls.empty() ? 0 : s.summed_s / static_cast<double>(walls.size());
  return s;
}

/// Builds the plan's worlds for `slice` wall seconds (at least 5 builds)
/// and appends each build's wall seconds to `xs`.
void time_setup(const Workload& w, std::uint64_t seed, double slice,
                std::vector<double>& xs) {
  const double start = now_s();
  for (int n = 0; n < 5 || now_s() - start < slice; ++n)
    xs.push_back(build_worlds(w, seed));
}

int threads_used(const Workload& w) {
  return std::min<int>(w.jobs, static_cast<int>(w.pts.size()));
}

int run_mode(const Workload& w, std::uint64_t seed, double seconds) {
  // Set-up is timed in a slice before every campaign, so its builds span
  // the whole run like the campaigns do. Peak memory is read after the
  // first campaign, before repeated campaigns leave the heap in a
  // timing-dependent state.
  constexpr double kSetupSlice = 0.25;
  std::vector<double> setup;
  const double start = now_s();
  time_setup(w, seed, kSetupSlice, setup);
  CampaignResult r = run_campaign(w, seed, 0);
  const double rss_mb = peak_rss_mb();
  const Tally first = r.tally;

  std::vector<double> wall, fetches, mb, p50, mx, vpw;
  bool hashes_agree = true;
  for (;;) {
    if (r.tally.hash() != first.hash()) hashes_agree = false;
    ShardStats s = shard_stats(r.timings);
    wall.push_back(r.wall_s);
    fetches.push_back(static_cast<double>(r.tally.attempts()) / r.wall_s);
    mb.push_back(static_cast<double>(r.tally.received_bytes()) / 1e6 /
                 r.wall_s);
    p50.push_back(s.p50_s);
    mx.push_back(s.max_s);
    vpw.push_back(s.virtual_s / r.wall_s);
    if (wall.size() >= 3 && now_s() - start >= seconds) break;
    time_setup(w, seed, kSetupSlice, setup);
    r = run_campaign(w, seed, 0);
  }

  const double fail_frac = static_cast<double>(first.failed()) /
                           static_cast<double>(first.attempts());
  std::printf("# campaigns: %zu; samples %zu; attempts %zu (failed %zu); "
              "received %" PRIu64 " B; shards %zu\n",
              wall.size(), first.samples(), first.attempts(), first.failed(),
              first.received_bytes(), w.pts.size());
  std::printf("# campaign walls (s):");
  for (double x : wall) std::printf(" %.4f", x);
  std::printf("\n");
  // On a shared host the same build reads fast or slow by phase (README.md,
  // Steadiness); noise only adds time, so the fastest build is the steady
  // figure.
  const double setup_s = *std::min_element(setup.begin(), setup.end());
  std::printf("# set-up builds: %zu; fastest %.4f ms, median %.4f ms\n",
              setup.size(), setup_s * 1e3, median(setup) * 1e3);

  Metrics m;
  m.add("wall_s", median(wall), "s");
  m.add("setup_s", setup_s, "s");
  m.add("fetches_per_s", median(fetches), "1/s");
  m.add("payload_mb_per_s", median(mb), "MB/s");
  m.add("shard_p50_s", median(p50), "s");
  m.add("shard_max_s", median(mx), "s");
  m.add("virtual_per_wall", median(vpw), "ratio");
  m.add("peak_rss_mb", rss_mb, "MB");
  m.add("fail_frac", fail_frac, "ratio");
  std::printf("{\"mode\": \"run\", \"hash\": \"%s\", \"hashes_agree\": %s, "
              "\"campaigns\": %zu, \"samples\": %zu, \"attempts\": %zu, "
              "\"failed_attempts\": %zu, \"shards\": %zu, \"metrics\": %s}\n",
              hex(first.hash()).c_str(), json_bool(hashes_agree).c_str(),
              wall.size(), first.samples(), first.attempts(), first.failed(),
              w.pts.size(), m.json().c_str());
  return 0;
}

/// What the flight recorder saw over a traced campaign.
struct TraceCounts {
  std::map<std::string, std::uint64_t> counters;
  std::uint64_t circuits = 0;
  std::uint64_t circuits_failed = 0;
};

TraceCounts trace_counts(const std::vector<trace::ShardTrace>& traces) {
  TraceCounts c;
  for (const trace::ShardTrace& t : traces) {
    for (const auto& [name, v] : t.data.counters) c.counters[name] += v;
    for (const trace::SpanEvent& s : t.data.spans) {
      if (s.name != "circuit_build") continue;
      ++c.circuits;
      bool ok = std::any_of(s.args.begin(), s.args.end(), [](const auto& a) {
        return a.first == "ok";
      });
      if (!ok) ++c.circuits_failed;
    }
  }
  return c;
}

int trace_mode(const Workload& w, std::uint64_t seed, double seconds) {
  // Untraced and traced campaigns alternate; the first of each kind also
  // supplies the reduction timing and the recorder's counts.
  std::vector<double> plain_wall, traced_wall, overhead, eff, imbalance;
  std::uint64_t plain_hash = 0, traced_hash = 0;
  bool hashes_agree = true;
  Tally tally;
  double reduce_ms = 0;
  std::uint64_t injected = 0;
  TraceCounts counts;
  const int threads = threads_used(w);
  const double start = now_s();
  do {
    CampaignResult plain = run_campaign(w, seed, 0, plain_wall.empty());
    CampaignResult traced = run_campaign(w, seed, trace::kAll);
    if (plain_wall.empty()) {
      tally = plain.tally;
      plain_hash = plain.tally.hash();
      traced_hash = traced.tally.hash();
      reduce_ms = plain.reduce_ms;
      injected = plain.injected_faults;
      counts = trace_counts(traced.traces);
    } else if (plain.tally.hash() != plain_hash ||
               traced.tally.hash() != traced_hash) {
      hashes_agree = false;
    }
    ShardStats s = shard_stats(plain.timings);
    plain_wall.push_back(plain.wall_s);
    traced_wall.push_back(traced.wall_s);
    overhead.push_back(plain.wall_s - s.summed_s / threads);
    eff.push_back(s.summed_s / (threads * plain.wall_s));
    imbalance.push_back(s.max_s / s.mean_s);
  } while (plain_wall.size() < 2 || now_s() - start < seconds);

  ReplayResult rp = replay(w, seed);
  OpCosts ops = measure_op_costs();

  auto counter = [&counts](const char* name) {
    auto it = counts.counters.find(name);
    return it == counts.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  const double cells = counter("tor/cells_relayed");
  const double data_cells = counter("tor/data_cells");
  const double fetches = counter("workload/fetches");
  const double http_bytes = counter("workload/http_bytes");
  const double attempts = static_cast<double>(tally.attempts());

  // Cost model: counts x per-op cost, as a share of the replay's summed
  // Campaign::run_* wall time (README.md gives the mapping).
  const double cell_s =
      (cells * (ops.onion_ns_per_cell + ops.cell_codec_ns) +
       data_cells * (3 * ops.onion_ns_per_cell + ops.digest_ns_per_cell) +
       static_cast<double>(rp.payload_bytes) / tor::kCellSize *
           ops.aead_ns_per_cell) /
      1e9;
  const double handshake_s =
      (static_cast<double>(counts.circuits) * 3 * ops.ntor_us +
       static_cast<double>(rp.handshake_rtts) * ops.x25519_us) /
      1e6;
  const double event_s = static_cast<double>(rp.events) * ops.event_ns / 1e9;
  const double campaign_s = rp.campaign_s;

  // Outputs the three paths must agree on.
  const bool fetches_match = fetches == attempts;
  // http_bytes also counts each response head; received_bytes only bodies.
  const bool http_bytes_match =
      http_bytes >= static_cast<double>(tally.received_bytes()) &&
      http_bytes - static_cast<double>(tally.received_bytes()) <=
          1024 * fetches;
  const bool faults_match = rp.injected_faults == injected;
  const bool replay_counts_match = rp.tally.attempts() == tally.attempts() &&
                                   rp.tally.failed() == tally.failed() &&
                                   rp.seeds_match;

  std::printf("# traced campaigns: %zu pairs; samples %zu; attempts %zu "
              "(failed %zu)\n",
              plain_wall.size(), tally.samples(), tally.attempts(),
              tally.failed());
  std::printf("# replay phases (s): shard_seed %.6f scenario %.6f configure "
              "%.6f factory %.6f campaign %.6f\n",
              rp.seed_s, rp.scenario_s, rp.configure_s, rp.factory_s,
              rp.campaign_s);

  Metrics m;
  m.add("ptperf.world_build_ms", rp.scenario_s * 1e3, "ms");
  m.add("ptperf.campaign_s", campaign_s, "s");
  m.add("ptperf.engine_overhead_s", median(overhead), "s");
  m.add("ptperf.parallel_eff", median(eff), "ratio");
  m.add("ptperf.shard_imbalance", median(imbalance), "ratio");
  m.add("pt.stack_build_ms", (rp.factory_s + rp.configure_s) * 1e3, "ms");
  m.add("pt.handshake_rtts", static_cast<double>(rp.handshake_rtts), "count");
  m.add("pt.wire_per_payload",
        rp.payload_bytes > 0 ? static_cast<double>(rp.wire_bytes) /
                                   static_cast<double>(rp.payload_bytes)
                             : 0.0,
        "ratio");
  m.add("tor.cells_relayed", cells, "count");
  m.add("tor.data_cells", data_cells, "count");
  m.add("tor.digest_ns_per_cell", ops.digest_ns_per_cell, "ns");
  m.add("tor.onion_ns_per_cell", ops.onion_ns_per_cell, "ns");
  m.add("tor.cell_codec_ns", ops.cell_codec_ns, "ns");
  m.add("tor.circuits", static_cast<double>(counts.circuits), "count");
  m.add("tor.circuit_fail_frac",
        counts.circuits ? static_cast<double>(counts.circuits_failed) /
                              static_cast<double>(counts.circuits)
                        : 0.0,
        "ratio");
  m.add("tor.ntor_us", ops.ntor_us, "us");
  m.add("crypto.sha256_ns_per_block", ops.sha256_ns_per_block, "ns");
  m.add("crypto.chacha20_ns_per_block", ops.chacha20_ns_per_block, "ns");
  m.add("crypto.poly1305_ns_per_block", ops.poly1305_ns_per_block, "ns");
  m.add("crypto.aead_ns_per_cell", ops.aead_ns_per_cell, "ns");
  m.add("crypto.x25519_us", ops.x25519_us, "us");
  m.add("sim.events", static_cast<double>(rp.events), "count");
  m.add("sim.events_per_fetch", static_cast<double>(rp.events) / attempts,
        "ratio");
  m.add("sim.event_ns", ops.event_ns, "ns");
  m.add("sim.event_cancel_ns", ops.event_cancel_ns, "ns");
  m.add("sim.virtual_s", rp.virtual_s, "s");
  m.add("util.pool_leases", static_cast<double>(rp.pool_leases), "count");
  m.add("util.pool_fallback_frac",
        rp.pool_leases ? static_cast<double>(rp.pool_fallbacks) /
                             static_cast<double>(rp.pool_leases)
                       : 0.0,
        "ratio");
  m.add("util.pool_high_water", static_cast<double>(rp.pool_high_water),
        "count");
  m.add("workload.fetches", fetches, "count");
  m.add("workload.http_mb", http_bytes / 1e6, "MB");
  m.add("fault.injected", static_cast<double>(injected), "count");
  m.add("fault.attempts_per_sample",
        attempts / static_cast<double>(tally.samples()), "ratio");
  m.add("stats.reduce_ms", reduce_ms, "ms");
  m.add("trace.overhead_frac",
        median(traced_wall) / median(plain_wall) - 1.0, "ratio");
  m.add("model.cell_frac", cell_s / campaign_s, "ratio");
  m.add("model.handshake_frac", handshake_s / campaign_s, "ratio");
  m.add("model.event_frac", event_s / campaign_s, "ratio");
  m.add("model.unexplained_frac",
        1.0 - (cell_s + handshake_s + event_s) / campaign_s, "ratio");

  std::printf(
      "{\"mode\": \"trace\", \"hash\": \"%s\", \"traced_hash\": \"%s\", "
      "\"replay_hash\": \"%s\", \"hashes_agree\": %s, \"checks\": "
      "{\"fetches_match\": %s, \"http_bytes_match\": %s, \"faults_match\": "
      "%s, \"replay_counts_match\": %s}, \"campaigns\": %zu, \"samples\": "
      "%zu, \"attempts\": %zu, \"failed_attempts\": %zu, \"shards\": %zu, "
      "\"metrics\": %s}\n",
      hex(plain_hash).c_str(), hex(traced_hash).c_str(),
      hex(rp.tally.hash()).c_str(), json_bool(hashes_agree).c_str(),
      json_bool(fetches_match).c_str(), json_bool(http_bytes_match).c_str(),
      json_bool(faults_match).c_str(), json_bool(replay_counts_match).c_str(),
      plain_wall.size() * 2, tally.samples(), tally.attempts(),
      tally.failed(), w.pts.size(), m.json().c_str());
  return 0;
}

int hash_mode(const Workload& w, std::uint64_t seed) {
  CampaignResult r = run_campaign(w, seed, 0);
  std::printf("{\"mode\": \"hash\", \"hash\": \"%s\", \"samples\": %zu, "
              "\"attempts\": %zu, \"failed_attempts\": %zu, \"wall_s\": "
              "%.6f}\n",
              hex(r.tally.hash()).c_str(), r.tally.samples(),
              r.tally.attempts(), r.tally.failed(), r.wall_s);
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: campaign_bench run|trace|hash --workload NAME "
               "--seed N [--seconds T]\nworkloads:");
  for (const Workload& w : all_workloads())
    std::fprintf(stderr, " %s", w.name.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace campaign_bench

int main(int argc, char** argv) {
  using namespace campaign_bench;
  if (argc < 2) return usage();
  std::string mode = argv[1];
  std::string name;
  std::uint64_t seed = 1;
  double seconds = 10;
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    if (flag == "--workload") {
      name = argv[i + 1];
    } else if (flag == "--seed") {
      seed = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(argv[i + 1], nullptr);
    } else {
      return usage();
    }
  }
  const Workload* w = find_workload(name);
  if (w == nullptr) return usage();
  print_inputs(*w, seed);
  std::fflush(stdout);
  if (mode == "run") return run_mode(*w, seed, seconds);
  if (mode == "trace") return trace_mode(*w, seed, seconds);
  if (mode == "hash") return hash_mode(*w, seed);
  return usage();
}
