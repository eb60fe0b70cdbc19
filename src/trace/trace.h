// Flight recorder: span-based traces on sim-time plus a metrics registry
// (counters and value histograms), designed to be a pure *observer* of the
// simulation — recording never draws randomness, never schedules events,
// and never branches simulation logic, so enabling a trace cannot change
// any measured sample (the CSV byte-identity contract).
//
// One Recorder belongs to one world (Scenario); the sharded campaign
// engine collects each shard's recorder and concatenates them in plan
// order, exactly like samples, so trace output is byte-identical at any
// --jobs. Components reach the recorder through their EventLoop
// (loop.recorder(), nullptr when tracing is off); the TRACE_* macros below
// null-check and category-check before recording anything. The macros are
// the sanctioned instrumentation path in src/ — simlint's raw-instrumentation
// rule bans ad-hoc printf/std::cerr telemetry outside src/trace and
// src/util (see docs/TRACING.md).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_loop.h"

namespace ptperf::trace {

/// Span/event categories, a bitmask so callers pay only for what they ask
/// for. kCells is high-volume (one event per relayed cell) and therefore
/// not part of kDefault.
enum Category : unsigned {
  kDownload = 1u << 0,  // fetcher-level download + phase spans
  kTor = 1u << 1,       // circuit builds, per-hop ntor, stream opens
  kPt = 1u << 2,        // PT handshake phases, polls, rendezvous
  kCells = 1u << 3,     // per-hop cell forward/queue events in tor::Relay
  kDefault = kDownload | kTor | kPt,
  kAll = kDownload | kTor | kPt | kCells,
};

const char* category_name(Category c);

/// Ids are per-recorder, dense from 1; 0 means "no span" everywhere.
using SpanId = std::uint64_t;

using SpanArgs = std::vector<std::pair<std::string, std::string>>;

/// One interval on the world's virtual timeline. Instants are spans with
/// end_ns == start_ns. A span whose parent is nonzero is guaranteed (and
/// property-tested) to lie inside its parent's interval.
struct SpanEvent {
  SpanId id = 0;
  SpanId parent = 0;
  Category category = kDownload;
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = -1;  // -1 while still open
  SpanArgs args;

  std::int64_t duration_ns() const { return end_ns < 0 ? 0 : end_ns - start_ns; }
  bool closed() const { return end_ns >= 0; }
};

/// Everything one world recorded, detached from the Recorder so shards can
/// hand their data to the merge step by value.
struct TraceData {
  std::vector<SpanEvent> spans;  // in record (== sim event) order
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::vector<double>> histograms;

  bool empty() const {
    return spans.empty() && counters.empty() && histograms.empty();
  }
  /// Folds `other` in: spans append, counters add, histogram values
  /// append. Deterministic given a deterministic fold order (the engine
  /// folds in plan order).
  void merge(TraceData&& other);
};

/// One shard's trace plus its plan position — the unit the exporters
/// consume. `shard` doubles as the Chrome trace pid.
struct ShardTrace {
  std::size_t shard = 0;
  std::string pt;
  TraceData data;
};

class Recorder {
 public:
  /// `loop` supplies timestamps; the recorder registers itself as
  /// loop.recorder() for its lifetime.
  Recorder(sim::EventLoop& loop, unsigned categories);
  ~Recorder();

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  bool wants(Category c) const { return (categories_ & c) != 0; }
  unsigned categories() const { return categories_; }

  /// Opens a span starting now. Returns 0 (and records nothing) when the
  /// category is disabled, so callers can hold ids unconditionally.
  SpanId begin_span(Category c, std::string name, SpanId parent = 0,
                    SpanArgs args = {});
  /// Closes an open span at now(). Ignores id 0 and unknown ids.
  void end_span(SpanId id);
  /// Closes an open span and appends args first (outcome annotations).
  void end_span(SpanId id, SpanArgs extra_args);
  /// Zero-duration event.
  SpanId instant(Category c, std::string name, SpanId parent = 0,
                 SpanArgs args = {});

  /// Metrics registry: counters add, histograms collect values. Metrics
  /// are recorded regardless of the category mask (they are cheap and the
  /// mask only gates event volume); a null recorder is the off switch.
  void count(std::string_view name, std::uint64_t delta = 1);
  void observe(std::string_view name, double value);

  std::int64_t now_ns() const { return loop_->now().ns; }

  const std::vector<SpanEvent>& spans() const { return data_.spans; }
  const TraceData& data() const { return data_; }
  /// Moves the recorded data out (closing still-open spans at now()),
  /// leaving the recorder empty but still attached.
  TraceData take();

 private:
  SpanEvent* find_open(SpanId id);

  sim::EventLoop* loop_;
  unsigned categories_;
  SpanId next_id_ = 1;
  TraceData data_;
};

// ---------------------------------------------------------------------------
// Instrumentation macros: the sanctioned path. `rec` is a
// `trace::Recorder*` (usually `loop.recorder()`), may be null. Nothing is
// recorded unless the recorder is attached and the category is enabled.

namespace detail {
inline SpanId begin(Recorder* rec, Category c, std::string name, SpanId parent,
                    SpanArgs args) {
  return rec ? rec->begin_span(c, std::move(name), parent, std::move(args)) : 0;
}
inline void end(Recorder* rec, SpanId id) {
  if (rec && id) rec->end_span(id);
}
inline void end(Recorder* rec, SpanId id, SpanArgs extra) {
  if (rec && id) rec->end_span(id, std::move(extra));
}
inline SpanId mark(Recorder* rec, Category c, std::string name, SpanId parent,
                   SpanArgs args) {
  return rec ? rec->instant(c, std::move(name), parent, std::move(args)) : 0;
}
inline void count(Recorder* rec, std::string_view name, std::uint64_t delta) {
  if (rec) rec->count(name, delta);
}
inline void observe(Recorder* rec, std::string_view name, double value) {
  if (rec) rec->observe(name, value);
}
}  // namespace detail

/// Manual begin/end for spans crossing callbacks. BEGIN yields a SpanId.
#define TRACE_SPAN_BEGIN(rec, category, name) \
  ::ptperf::trace::detail::begin((rec), (category), (name), 0, {})
#define TRACE_SPAN_BEGIN_UNDER(rec, category, name, parent) \
  ::ptperf::trace::detail::begin((rec), (category), (name), (parent), {})
#define TRACE_SPAN_BEGIN_ARGS(rec, category, name, parent, ...) \
  ::ptperf::trace::detail::begin((rec), (category), (name), (parent), __VA_ARGS__)
#define TRACE_SPAN_END(rec, id) ::ptperf::trace::detail::end((rec), (id))
#define TRACE_SPAN_END_ARGS(rec, id, ...) \
  ::ptperf::trace::detail::end((rec), (id), __VA_ARGS__)

/// Zero-duration event.
#define TRACE_INSTANT(rec, category, name) \
  ((void)::ptperf::trace::detail::mark((rec), (category), (name), 0, {}))
#define TRACE_INSTANT_ARGS(rec, category, name, ...) \
  ((void)::ptperf::trace::detail::mark((rec), (category), (name), 0, __VA_ARGS__))

/// Metrics registry.
#define TRACE_COUNT(rec, name, delta) \
  ::ptperf::trace::detail::count((rec), (name), (delta))
#define TRACE_OBSERVE(rec, name, value) \
  ::ptperf::trace::detail::observe((rec), (name), (value))


}  // namespace ptperf::trace
