// Extension bench (paper §A.4 future work): audio-stream playback quality
// over each transport — startup delay, rebuffer events, stall ratio for a
// 256 kbps / 60 s stream. Expected from the Fig 5/8 structure: the
// fully-encrypted/proxy cluster streams cleanly; dnstt sits near its
// ~45 KB/s resolver ceiling (fine at 256 kbps, resolver cut-offs bite on
// long streams); snowflake's overload-era churn kills minute-long
// sessions; marionette cannot sustain the bitrate at all.
#include "workload/streaming.h"

#include "population/contention.h"

#include "common.h"

namespace ptperf::bench {
namespace {

int run(const BenchArgs& args) {
  banner("Extension (§A.4)", "audio streaming quality per transport", args);

  ScenarioConfig cfg;
  cfg.seed = args.seed;
  cfg.tranco_sites = 2;
  cfg.cbl_sites = 0;
  Scenario scenario(cfg);
  TransportFactory factory(scenario);

  workload::StreamingSpec spec;
  spec.bitrate_kbps = 256;
  spec.duration = sim::from_seconds(60. * std::max(args.scale, 0.25));

  stats::Table t({"pt", "started", "completed", "startup_s", "rebuffers",
                  "stall_ratio", "goodput_kbps"});
  int reps = scaled_int(3, 1.0, 2);

  auto measure = [&](PtStack stack) {
    if (stack.snowflake) population::apply_regime(*stack.snowflake, true);
    int started = 0, completed = 0, rebuffers = 0;
    double startup_sum = 0, stall_sum = 0, goodput_sum = 0;
    int startup_n = 0;
    for (int i = 0; i < reps; ++i) {
      stack.socks->new_identity();
      stack.tor->path_selector().reset_guard();
      workload::StreamingResult result;
      bool done = false;
      workload::StreamingClient sc(scenario.loop(), stack.dialer);
      sc.play(spec, sim::from_seconds(sim::to_seconds(spec.duration) * 5 + 60),
              [&](workload::StreamingResult r) {
                result = std::move(r);
                done = true;
              });
      scenario.loop().run_until_done([&] { return done; });
      if (result.started) ++started;
      if (result.completed) ++completed;
      rebuffers += result.rebuffer_events;
      if (result.startup_delay_s >= 0) {
        startup_sum += result.startup_delay_s;
        ++startup_n;
      }
      stall_sum += result.stall_ratio(spec);
      goodput_sum += result.goodput_kbps;
    }
    t.add_row({stack.name(), std::to_string(started),
               std::to_string(completed),
               startup_n ? util::fmt_double(startup_sum / startup_n, 2) : "-",
               std::to_string(rebuffers),
               util::fmt_double(stall_sum / reps, 3),
               util::fmt_double(goodput_sum / reps, 0)});
    std::printf("  measured %s\n", stack.name().c_str());
    std::fflush(stdout);
  };

  measure(factory.create_vanilla());
  for (PtId id : figure_pt_order()) measure(factory.create(id));

  std::printf("\n-- streaming quality (256 kbps, %ds) --\n",
              static_cast<int>(sim::to_seconds(spec.duration)));
  emit(t, args, "streaming_quality");
  return 0;
}

}  // namespace
}  // namespace ptperf::bench

int main(int argc, char** argv) {
  return ptperf::bench::run(ptperf::bench::parse_args(argc, argv));
}
