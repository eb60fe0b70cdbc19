// Flight-recorder properties. Unit half: the Recorder's span lifecycle,
// category gating, and exporter escaping on a bare event loop. Campaign
// half: over a real sharded campaign with tracing at kAll, every recorded
// span must be well-formed (closed, ordered, nested inside its parent),
// the TTFB phase decomposition must sum exactly to the raw-span TTFB, each
// completed circuit build must carry one ntor_hop per path hop, trace
// output must be byte-identical at any --jobs, and — the core observer
// contract — attaching a recorder must not change a single sample.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "ptperf/ensemble.h"
#include "trace/decompose.h"
#include "trace/export.h"
#include "trace/trace.h"

namespace ptperf {
namespace {

using trace::Recorder;
using trace::SpanEvent;
using trace::SpanId;
using trace::TraceData;

// ---------------------------------------------------------------------------
// Unit: Recorder on a bare event loop.

TEST(TraceRecorder, SpansCarryVirtualTimeAndNesting) {
  sim::EventLoop loop;
  Recorder rec(loop, trace::kAll);
  EXPECT_EQ(loop.recorder(), &rec);

  SpanId outer = 0, inner = 0;
  loop.schedule(sim::Duration{0},
                [&] { outer = rec.begin_span(trace::kTor, "outer"); });
  loop.schedule(sim::from_seconds(1), [&] {
    inner = rec.begin_span(trace::kTor, "inner", outer, {{"k", "v"}});
  });
  loop.schedule(sim::from_seconds(2), [&] { rec.end_span(inner); });
  loop.schedule(sim::from_seconds(3),
                [&] { rec.end_span(outer, {{"ok", "1"}}); });
  loop.run();

  ASSERT_EQ(rec.spans().size(), 2u);
  const SpanEvent& o = rec.spans()[0];
  const SpanEvent& i = rec.spans()[1];
  EXPECT_EQ(o.id, 1u);  // ids dense from 1
  EXPECT_EQ(i.id, 2u);
  EXPECT_EQ(i.parent, o.id);
  EXPECT_EQ(o.start_ns, 0);
  EXPECT_EQ(o.end_ns, sim::from_seconds(3).count());
  EXPECT_EQ(i.start_ns, sim::from_seconds(1).count());
  EXPECT_EQ(i.end_ns, sim::from_seconds(2).count());
  ASSERT_EQ(i.args.size(), 1u);
  EXPECT_EQ(i.args[0].first, "k");
  ASSERT_EQ(o.args.size(), 1u);  // end_span appended the outcome
  EXPECT_EQ(o.args[0].first, "ok");
}

TEST(TraceRecorder, CategoryMaskGatesSpansButNotMetrics) {
  sim::EventLoop loop;
  Recorder rec(loop, trace::kTor);
  EXPECT_TRUE(rec.wants(trace::kTor));
  EXPECT_FALSE(rec.wants(trace::kDownload));

  EXPECT_EQ(rec.begin_span(trace::kDownload, "download"), 0u);
  EXPECT_EQ(rec.instant(trace::kCells, "cell_fwd"), 0u);
  EXPECT_TRUE(rec.spans().empty());

  // Metrics bypass the mask: only a null recorder switches them off.
  rec.count("tor/data_cells", 3);
  rec.count("tor/data_cells");
  rec.observe("ttfb_s", 1.5);
  EXPECT_EQ(rec.data().counters.at("tor/data_cells"), 4u);
  ASSERT_EQ(rec.data().histograms.at("ttfb_s").size(), 1u);
}

TEST(TraceRecorder, EndSpanIgnoresZeroUnknownAndAlreadyClosed) {
  sim::EventLoop loop;
  Recorder rec(loop, trace::kAll);
  SpanId id = rec.begin_span(trace::kTor, "s");
  rec.end_span(0);
  rec.end_span(12345);
  rec.end_span(id);
  std::int64_t closed_at = rec.spans()[0].end_ns;
  rec.end_span(id);  // double close: no effect
  ASSERT_EQ(rec.spans().size(), 1u);
  EXPECT_EQ(rec.spans()[0].end_ns, closed_at);
}

TEST(TraceRecorder, TakeClosesOpenSpansAndResetsIds) {
  sim::EventLoop loop;
  Recorder rec(loop, trace::kAll);
  loop.schedule(sim::Duration{0},
                [&] { (void)rec.begin_span(trace::kTor, "left_open"); });
  loop.schedule(sim::from_seconds(5), [] {});
  loop.run();

  TraceData data = rec.take();
  ASSERT_EQ(data.spans.size(), 1u);
  EXPECT_TRUE(data.spans[0].closed());  // closed at take() time, not lost
  EXPECT_EQ(data.spans[0].end_ns, sim::from_seconds(5).count());
  EXPECT_TRUE(rec.data().empty());
  // Ids restart dense from 1 so successive takes stay self-contained.
  EXPECT_EQ(rec.begin_span(trace::kTor, "next"), 1u);
}

TEST(TraceRecorder, MacrosAreNullSafe) {
  Recorder* rec = nullptr;
  SpanId id = TRACE_SPAN_BEGIN(rec, trace::kTor, "s");
  EXPECT_EQ(id, 0u);
  TRACE_SPAN_END(rec, id);
  TRACE_SPAN_END_ARGS(rec, id, {{"ok", "1"}});
  TRACE_INSTANT(rec, trace::kTor, "i");
  TRACE_COUNT(rec, "c", 1);
  TRACE_OBSERVE(rec, "h", 1.0);
}

TEST(TraceData, MergeAppendsSpansAddsCountersConcatenatesHistograms) {
  TraceData a, b;
  a.spans.push_back({1, 0, trace::kTor, "x", 0, 1, {}});
  a.counters["c"] = 2;
  a.histograms["h"] = {1.0};
  b.spans.push_back({1, 0, trace::kPt, "y", 5, 6, {}});
  b.counters["c"] = 3;
  b.counters["d"] = 1;
  b.histograms["h"] = {2.0};

  a.merge(std::move(b));
  ASSERT_EQ(a.spans.size(), 2u);
  EXPECT_EQ(a.spans[1].name, "y");
  EXPECT_EQ(a.counters["c"], 5u);
  EXPECT_EQ(a.counters["d"], 1u);
  ASSERT_EQ(a.histograms["h"].size(), 2u);
}

TEST(TraceExport, JsonEscapeHandlesQuotesBackslashesAndControls) {
  EXPECT_EQ(trace::json_escape("plain"), "plain");
  EXPECT_EQ(trace::json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(trace::json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(trace::json_escape("a\nb"), "a\\nb");
  EXPECT_EQ(trace::json_escape(std::string("a\x01") + "b"), "a\\u0001b");
}

// ---------------------------------------------------------------------------
// Campaign-level properties over a real sharded run.

std::string hex(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

std::string encode(const workload::FetchResult& r) {
  return r.target + "|" + hex(r.start_s) + "|" + hex(r.ttfb_s) + "|" +
         hex(r.complete_s) + "|" + std::to_string(r.received_bytes) + "|" +
         (r.success ? "ok" : "no") + "|" + r.error;
}

std::vector<std::optional<PtId>> traced_pts() {
  // Vanilla + a framing PT + the PT with the most handshake structure.
  return {std::nullopt, PtId::kObfs4, PtId::kMeek};
}

struct TracedRun {
  std::vector<std::string> samples;
  std::vector<trace::ShardTrace> traces;
};

TracedRun run_traced(std::uint64_t seed, int jobs, unsigned categories) {
  ShardedCampaignConfig cfg;
  cfg.scenario.seed = seed;
  cfg.scenario.tranco_sites = 2;
  cfg.scenario.cbl_sites = 1;
  cfg.campaign.website_reps = 2;
  cfg.jobs = jobs;
  cfg.trace_categories = categories;
  EnsembleCampaign engine({cfg, 1});
  auto runs = engine.run_website_curl(traced_pts(), SiteSelection{2, 1});
  TracedRun run;
  for (const WebsiteSample& s : runs.first()) {
    run.samples.push_back(s.pt + "|" + s.site + "|" + std::to_string(s.rep) +
                          "|" + encode(s.result));
  }
  run.traces = engine.traces();
  return run;
}

const SpanEvent* find_span(const TraceData& data, SpanId id) {
  for (const SpanEvent& ev : data.spans)
    if (ev.id == id) return &ev;
  return nullptr;
}

TEST(TraceCampaign, SpansAreWellFormedAndNestInsideTheirParents) {
  TracedRun run = run_traced(4242, 1, trace::kAll);
  ASSERT_FALSE(run.traces.empty());
  std::size_t spans_seen = 0;
  for (const trace::ShardTrace& shard : run.traces) {
    for (const SpanEvent& ev : shard.data.spans) {
      ++spans_seen;
      ASSERT_TRUE(ev.closed()) << shard.pt << " span " << ev.name;
      EXPECT_LE(ev.start_ns, ev.end_ns) << ev.name;
      EXPECT_GE(ev.start_ns, 0) << ev.name;
      if (ev.parent == 0) continue;
      const SpanEvent* parent = find_span(shard.data, ev.parent);
      ASSERT_NE(parent, nullptr) << ev.name << " has a dangling parent id";
      EXPECT_GE(ev.start_ns, parent->start_ns) << ev.name;
      EXPECT_LE(ev.end_ns, parent->end_ns)
          << ev.name << " escapes its parent " << parent->name;
    }
  }
  EXPECT_GT(spans_seen, 0u);
}

TEST(TraceCampaign, TtfbPhasesSumExactlyToTheRawSpanTtfb) {
  TracedRun run = run_traced(4242, 1, trace::kAll);
  std::size_t downloads = 0;
  for (const trace::ShardTrace& shard : run.traces) {
    for (const trace::DownloadPhases& p :
         trace::decompose_downloads(shard.data)) {
      ++downloads;
      EXPECT_GE(p.socks_ns, 0);
      EXPECT_GE(p.pt_handshake_ns, 0);
      EXPECT_GE(p.circuit_build_ns, 0);
      EXPECT_GE(p.first_byte_ns, 0);
      // Cross-check the decomposition against the raw spans: the phases
      // must rebuild first_byte.end - download.start to the nanosecond.
      const SpanEvent* dl = find_span(shard.data, p.download);
      ASSERT_NE(dl, nullptr);
      const SpanEvent* first_byte = nullptr;
      for (const SpanEvent& ev : shard.data.spans)
        if (ev.parent == dl->id && ev.name == "first_byte") first_byte = &ev;
      ASSERT_NE(first_byte, nullptr);
      EXPECT_EQ(p.ttfb_ns, first_byte->end_ns - dl->start_ns)
          << shard.pt << " download " << p.target;
    }
  }
  EXPECT_GT(downloads, 0u);
}

TEST(TraceCampaign, CompletedCircuitBuildsCarryOneNtorHopPerPathHop) {
  TracedRun run = run_traced(4242, 1, trace::kAll);
  std::size_t completed = 0;
  for (const trace::ShardTrace& shard : run.traces) {
    for (const SpanEvent& cb : shard.data.spans) {
      if (cb.name != "circuit_build") continue;
      bool ok = false;
      std::size_t declared_hops = 0;
      for (const auto& [k, v] : cb.args) {
        if (k == "ok" && v == "1") ok = true;
        if (k == "hops") declared_hops = std::stoul(v);
      }
      if (!ok) continue;
      ++completed;
      std::size_t ntor = 0;
      for (const SpanEvent& ev : shard.data.spans)
        if (ev.parent == cb.id && ev.name == "ntor_hop") ++ntor;
      EXPECT_EQ(ntor, declared_hops) << shard.pt << " circuit " << cb.id;
    }
  }
  EXPECT_GT(completed, 0u);
}

TEST(TraceCampaign, TraceOutputIsByteIdenticalAcrossJobCounts) {
  TracedRun sequential = run_traced(7, 1, trace::kDefault);
  TracedRun parallel = run_traced(7, 4, trace::kDefault);
  ASSERT_FALSE(sequential.traces.empty());
  EXPECT_EQ(trace::trace_jsonl(sequential.traces),
            trace::trace_jsonl(parallel.traces));
  EXPECT_EQ(trace::chrome_trace_json(sequential.traces),
            trace::chrome_trace_json(parallel.traces));
}

TEST(TraceCampaign, RecorderIsAPureObserverOfSamples) {
  // The observer contract behind the CSV byte-identity acceptance
  // criterion: tracing at the widest mask changes no sample.
  TracedRun off = run_traced(99, 2, 0);
  TracedRun on = run_traced(99, 2, trace::kAll);
  ASSERT_FALSE(off.samples.empty());
  EXPECT_TRUE(off.traces.empty());
  EXPECT_FALSE(on.traces.empty());
  EXPECT_EQ(off.samples, on.samples);
}

}  // namespace
}  // namespace ptperf
