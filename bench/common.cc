#include "common.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "crypto/chacha20.h"
#include "crypto/sha256.h"
#include "trace/export.h"
#include "util/strings.h"

namespace ptperf::bench {

int BenchArgs::effective_jobs() const {
  return jobs <= 0 ? ParallelExecutor::hardware_jobs() : jobs;
}

unsigned BenchArgs::trace_categories() const {
  if (trace_out.empty()) return 0;
  return trace_cells ? trace::kAll : trace::kDefault;
}

BenchArgs parse_args(int argc, char** argv) {
  BenchArgs args;
  args.start_wall_us = sim::wall_now_us();
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (a == "--seed") {
      args.seed = std::strtoull(next().c_str(), nullptr, 10);
    } else if (a == "--scale") {
      args.scale = std::strtod(next().c_str(), nullptr);
    } else if (a == "--out") {
      args.out_dir = next();
    } else if (a == "--faults") {
      args.faults = next();
    } else if (a == "--retries") {
      args.retries = static_cast<int>(std::strtol(next().c_str(), nullptr, 10));
    } else if (a == "--jobs" || a == "-j") {
      args.jobs = static_cast<int>(std::strtol(next().c_str(), nullptr, 10));
    } else if (a == "--repeats") {
      args.repeats =
          static_cast<int>(std::strtol(next().c_str(), nullptr, 10));
    } else if (a == "--trace") {
      args.trace_out = next();
    } else if (a == "--trace-cells") {
      args.trace_cells = true;
    } else if (a == "--checkpoint") {
      args.checkpoint_dir = next();
    } else if (a == "--checkpoint-every") {
      args.checkpoint_every =
          static_cast<int>(std::strtol(next().c_str(), nullptr, 10));
    } else if (a == "--resume") {
      args.resume = true;
    } else if (a == "--monitor") {
      args.monitor = true;
    } else if (a == "--interval-hours") {
      args.interval_hours = std::strtod(next().c_str(), nullptr);
    } else if (a == "--windows") {
      args.windows = static_cast<int>(std::strtol(next().c_str(), nullptr, 10));
    } else if (a == "--verbose" || a == "-v") {
      args.verbose = true;
    } else if (a == "--help" || a == "-h") {
      std::printf(
          "options: --seed N  --scale X (workload multiplier)  --out DIR\n"
          "         --jobs N (shard threads; default: hardware concurrency,\n"
          "                   1 = single-threaded; output is identical)\n"
          "         --repeats N (independent campaign repetitions; N > 1\n"
          "                   adds mean/stddev/ci95 ensemble CSVs; 1 is\n"
          "                   byte-identical to the single-run harness)\n"
          "         --faults none|paper (injected failures, fig8 only)\n"
          "         --retries N (retry budget per download in fault mode)\n"
          "         --trace PATH (flight-recorder capture: Chrome\n"
          "                   trace_event JSON, or JSONL if PATH ends in\n"
          "                   .jsonl; never changes the measured samples)\n"
          "         --trace-cells (add per-cell relay events to --trace)\n"
          "         --checkpoint DIR (snapshot completed shards to\n"
          "                   DIR/snapshot.ptck; engine figures only)\n"
          "         --checkpoint-every N (snapshot write cadence in\n"
          "                   completed shards; default 1)\n"
          "         --resume (continue from the --checkpoint snapshot;\n"
          "                   fingerprint-validated, byte-identical output)\n"
          "         --monitor (fig12: continuous windowed monitor mode)\n"
          "         --interval-hours H (virtual hours between monitor\n"
          "                   windows; default 168)\n"
          "         --windows N (monitor windows to run; a resumed run\n"
          "                   may raise this to extend the series)\n");
      std::exit(0);
    }
  }
  if (args.scale <= 0) args.scale = 1.0;
  if (args.repeats < 1) args.repeats = 1;
  if (args.checkpoint_every < 1) args.checkpoint_every = 1;
  if (args.windows < 1) args.windows = 1;
  if (args.resume && args.checkpoint_dir.empty()) {
    std::fprintf(stderr, "error: --resume requires --checkpoint DIR\n");
    std::exit(2);
  }
  if (!args.checkpoint_dir.empty() && !args.trace_out.empty()) {
    // A resumed shard replays recorded samples, not a recorded capture, so
    // a checkpointed run cannot promise a complete trace. Refuse up front
    // rather than emit a silently partial file.
    std::fprintf(stderr, "error: --checkpoint and --trace are mutually "
                         "exclusive\n");
    std::exit(2);
  }
  return args;
}

std::size_t scaled(std::size_t base, double scale, std::size_t min_value) {
  auto v = static_cast<std::size_t>(static_cast<double>(base) * scale);
  return std::max(v, min_value);
}

int scaled_int(int base, double scale, int min_value) {
  return std::max(static_cast<int>(base * scale), min_value);
}

void banner(const std::string& id, const std::string& what,
            const BenchArgs& args) {
  std::printf("== PTPerf reproduction: %s — %s ==\n", id.c_str(),
              what.c_str());
  std::printf("   seed=%llu scale=%.2f jobs=%d\n",
              static_cast<unsigned long long>(args.seed), args.scale,
              args.effective_jobs());
  if (args.repeats > 1)
    std::printf("   repeats=%d (independent worlds; seeds fork as "
                "repeat/<r>)\n",
                args.repeats);
  std::printf("\n");
}

void emit_trace(const EnsembleCampaign& engine, const BenchArgs& args) {
  if (args.trace_out.empty()) return;
  if (!trace::write_trace_file(args.trace_out, engine.traces())) {
    std::fprintf(stderr, "warning: could not write %s\n",
                 args.trace_out.c_str());
  } else if (args.verbose) {
    std::printf("wrote %s\n", args.trace_out.c_str());
  }
}

checkpoint::Fingerprint run_fingerprint(const BenchArgs& args,
                                        const std::string& figure) {
  checkpoint::Fingerprint fp;
  fp.figure = figure;
  fp.seed = args.seed;
  fp.scale = args.scale;
  fp.jobs = args.effective_jobs();
  fp.repeats = args.repeats;
  fp.flags = "faults=" + args.faults + ";retries=" + std::to_string(args.retries);
  if (args.monitor) {
    // --windows is deliberately absent: a resumed monitor may extend the
    // series, but changing the interval would rewrite completed windows'
    // timestamps.
    fp.flags += ";monitor;interval_hours=" +
                util::fmt_double(args.interval_hours, 3);
  }
  return fp;
}

std::shared_ptr<checkpoint::Store> checkpoint_store(const BenchArgs& args,
                                                    const std::string& figure) {
  if (args.checkpoint_dir.empty()) return nullptr;
  checkpoint::Options opts;
  opts.dir = args.checkpoint_dir;
  opts.every = static_cast<std::size_t>(args.checkpoint_every);
  opts.resume = args.resume;
  try {
    auto store =
        std::make_shared<checkpoint::Store>(opts, run_fingerprint(args, figure));
    if (args.verbose && store->resumed()) {
      std::printf("resuming from %s (%zu completed shards)\n",
                  store->path().c_str(), store->unit_count());
    }
    return store;
  } catch (const checkpoint::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    std::exit(2);
  }
}

EnsembleCampaignConfig ensemble_config(const BenchArgs& args,
                                       const std::string& figure) {
  EnsembleCampaignConfig cfg;
  cfg.base.scenario.seed = args.seed;
  cfg.base.jobs = args.effective_jobs();
  cfg.base.trace_categories = args.trace_categories();
  cfg.base.checkpoint = checkpoint_store(args, figure);
  cfg.repeats = args.repeats;
  return cfg;
}

void print_shard_timings(const std::vector<ShardTiming>& timings,
                         const BenchArgs& args) {
  if (!args.verbose || timings.empty()) return;
  stats::Table t({"shard", "pt", "items", "virtual_s", "wall_us"});
  std::int64_t wall_total = 0;
  for (const ShardTiming& s : timings) {
    t.add_row({std::to_string(s.shard), s.pt, std::to_string(s.items),
               util::fmt_double(s.virtual_seconds, 1),
               std::to_string(s.wall_us)});
    wall_total += s.wall_us;
  }
  std::printf("-- shard timings (%zu shards, jobs=%d) --\n%s", timings.size(),
              args.effective_jobs(), t.to_text().c_str());
  std::printf("   cumulative shard wall %.2fs, end-to-end wall %.2fs\n\n",
              static_cast<double>(wall_total) / 1e6,
              static_cast<double>(sim::wall_now_us() - args.start_wall_us) /
                  1e6);
}

std::vector<std::string> box_header() {
  return {"pt", "n", "mean", "min", "q1", "median", "q3", "max", "whisk_hi"};
}

std::vector<std::string> box_row(const std::string& label,
                                 const std::vector<double>& xs) {
  stats::BoxStats b = stats::box_stats(xs);
  auto f = [](double v) { return util::fmt_double(v, 2); };
  return {label,      std::to_string(b.n), f(b.mean), f(b.min), f(b.q1),
          f(b.median), f(b.q3),            f(b.max),  f(b.whisker_high)};
}

stats::Table pairwise_t_tests(
    const std::vector<std::pair<std::string, std::vector<double>>>& groups) {
  stats::Table t({"pair", "ci_lower", "ci_upper", "t_value", "p_value",
                  "mean_diff", "n"});
  for (std::size_t i = 0; i < groups.size(); ++i) {
    for (std::size_t j = i + 1; j < groups.size(); ++j) {
      std::size_t n = std::min(groups[i].second.size(), groups[j].second.size());
      if (n < 2) continue;
      std::vector<double> x(groups[i].second.begin(),
                            groups[i].second.begin() + static_cast<long>(n));
      std::vector<double> y(groups[j].second.begin(),
                            groups[j].second.begin() + static_cast<long>(n));
      stats::PairedTTest r = stats::paired_t_test(x, y);
      std::string p = r.p_two_sided < 0.001
                          ? "<.001"
                          : util::fmt_double(r.p_two_sided, 3);
      t.add_row({groups[i].first + "-" + groups[j].first,
                 util::fmt_double(r.ci_low, 3), util::fmt_double(r.ci_high, 3),
                 util::fmt_double(r.t, 3), p, util::fmt_double(r.mean_diff, 3),
                 std::to_string(r.n)});
    }
  }
  return t;
}

stats::Table ecdf_table(
    const std::vector<std::pair<std::string, std::vector<double>>>& groups,
    const std::vector<double>& probes, const std::string& value_name) {
  std::vector<std::string> headers{"pt"};
  for (double p : probes)
    headers.push_back("P[" + value_name + "<=" + util::fmt_double(p, 1) + "]");
  stats::Table t(headers);
  for (const auto& [label, xs] : groups) {
    if (xs.empty()) continue;
    stats::Ecdf ecdf(xs);
    std::vector<std::string> row{label};
    for (double p : probes) row.push_back(util::fmt_double(ecdf(p), 3));
    t.add_row(std::move(row));
  }
  return t;
}

void emit(const stats::Table& table, const BenchArgs& args,
          const std::string& name, bool print_text) {
  if (print_text) std::printf("%s\n", table.to_text().c_str());
  stats::Table annotated = table;
  if (annotated.comment().empty()) {
    double wall_s =
        static_cast<double>(sim::wall_now_us() - args.start_wall_us) / 1e6;
    annotated.set_comment(
        "seed=" + std::to_string(args.seed) +
        " jobs=" + std::to_string(args.effective_jobs()) +
        " wall_s=" + util::fmt_double(wall_s, 2) +
        " sha256=" + crypto::Sha256::kernel() +
        " chacha20=" + crypto::ChaCha20::kernel());
  }
  std::string path = args.out_dir + "/" + name + ".csv";
  if (!annotated.write_csv(path)) {
    std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
  } else if (args.verbose) {
    std::printf("wrote %s\n", path.c_str());
  }
}

namespace {

std::string unit_cell(double value, EnsembleUnit unit) {
  switch (unit) {
    case EnsembleUnit::kSeconds: return stats::us_cell(value);
    case EnsembleUnit::kBytes: return stats::byte_cell(value);
    case EnsembleUnit::kFraction: return stats::ppm_cell(value);
  }
  return stats::us_cell(value);
}

std::string unit_name(EnsembleUnit unit) {
  switch (unit) {
    case EnsembleUnit::kSeconds: return "us";
    case EnsembleUnit::kBytes: return "bytes";
    case EnsembleUnit::kFraction: return "ppm";
  }
  return "us";
}

}  // namespace

stats::Table ensemble_table(const std::vector<EnsembleSeries>& series,
                            const std::string& metric, EnsembleUnit unit) {
  stats::Table t({"pt", "metric", "unit", "repeats", "mean", "stddev",
                  "ci95_lo", "ci95_hi", "min", "max"});
  for (const EnsembleSeries& s : series) {
    if (s.per_rep.empty()) continue;
    ensemble::Estimate e = ensemble::summarize(s.per_rep);
    t.add_row({s.label, metric, unit_name(unit), std::to_string(e.repeats),
               unit_cell(e.mean, unit), unit_cell(e.stddev, unit),
               unit_cell(e.ci_lo, unit), unit_cell(e.ci_hi, unit),
               unit_cell(e.min, unit), unit_cell(e.max, unit)});
  }
  return t;
}

stats::Table ensemble_paired_table(const std::vector<EnsembleSeries>& series,
                                   const std::string& baseline,
                                   const std::string& metric,
                                   EnsembleUnit unit) {
  stats::Table t({"pair", "metric", "unit", "repeats", "mean_diff",
                  "ci95_lo", "ci95_hi", "t_value", "p_value", "power"});
  const EnsembleSeries* base = nullptr;
  for (const EnsembleSeries& s : series)
    if (s.label == baseline) base = &s;
  if (!base) return t;
  for (const EnsembleSeries& s : series) {
    if (&s == base || s.per_rep.empty()) continue;
    // Paired by repetition: both estimators measured the same forked
    // world in repetition r (paired_t_test pairs the common prefix).
    stats::PairedTTest r = stats::paired_t_test(s.per_rep, base->per_rep);
    if (r.n == 0) continue;
    std::string p = r.p_two_sided < 0.001 ? "<.001"
                                          : util::fmt_double(r.p_two_sided, 3);
    t.add_row({s.label + "-" + base->label, metric, unit_name(unit),
               std::to_string(r.n), unit_cell(r.mean_diff, unit),
               unit_cell(r.ci_low, unit), unit_cell(r.ci_high, unit),
               util::fmt_double(r.t, 3), p,
               util::fmt_double(stats::paired_power(r), 3)});
  }
  return t;
}

void emit_ensemble(const std::vector<EnsembleSeries>& series,
                   const BenchArgs& args, const std::string& name,
                   const std::string& metric, EnsembleUnit unit,
                   const std::string& baseline) {
  if (args.repeats <= 1) return;
  std::printf("-- ensemble (%d repetitions): %s --\n", args.repeats,
              metric.c_str());
  emit(ensemble_table(series, metric, unit), args, name);
  if (!baseline.empty()) {
    stats::Table paired =
        ensemble_paired_table(series, baseline, metric, unit);
    if (paired.rows() > 0) {
      std::printf("-- ensemble paired differences vs %s (power at "
                  "alpha=.05) --\n",
                  baseline.c_str());
      emit(paired, args, name + "_paired", args.verbose);
    }
  }
}

std::vector<PtId> figure_pt_order() {
  // Paper ordering: proxy-layer, tunneling, mimicry, fully encrypted.
  return {PtId::kMeek,      PtId::kPsiphon,    PtId::kConjure,
          PtId::kSnowflake, PtId::kCamoufler,  PtId::kDnstt,
          PtId::kWebTunnel, PtId::kMarionette, PtId::kStegotorus,
          PtId::kCloak,     PtId::kShadowsocks, PtId::kObfs4};
}

std::vector<std::optional<PtId>> sweep_pts() {
  return ShardedCampaign::with_vanilla(figure_pt_order());
}

}  // namespace ptperf::bench
