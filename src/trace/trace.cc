#include "trace/trace.h"

#include <algorithm>

namespace ptperf::trace {

const char* category_name(Category c) {
  switch (c) {
    case kDownload: return "download";
    case kTor: return "tor";
    case kPt: return "pt";
    case kCells: return "cells";
    default: return "trace";
  }
}

void TraceData::merge(TraceData&& other) {
  spans.reserve(spans.size() + other.spans.size());
  for (SpanEvent& s : other.spans) spans.push_back(std::move(s));
  for (auto& [name, delta] : other.counters) counters[name] += delta;
  for (auto& [name, values] : other.histograms) {
    auto& mine = histograms[name];
    mine.insert(mine.end(), values.begin(), values.end());
  }
  other = TraceData{};
}

Recorder::Recorder(sim::EventLoop& loop, unsigned categories)
    : loop_(&loop), categories_(categories) {
  loop_->set_recorder(this);
}

Recorder::~Recorder() {
  if (loop_->recorder() == this) loop_->set_recorder(nullptr);
}

SpanId Recorder::begin_span(Category c, std::string name, SpanId parent,
                            SpanArgs args) {
  if (!wants(c)) return 0;
  SpanEvent ev;
  ev.id = next_id_++;
  ev.parent = parent;
  ev.category = c;
  ev.name = std::move(name);
  ev.start_ns = now_ns();
  ev.args = std::move(args);
  data_.spans.push_back(std::move(ev));
  return data_.spans.back().id;
}

SpanEvent* Recorder::find_open(SpanId id) {
  // Open spans cluster at the tail (spans close in roughly LIFO order), so
  // a backward scan is effectively O(1) for the instrumentation we ship.
  for (auto it = data_.spans.rbegin(); it != data_.spans.rend(); ++it) {
    if (it->id == id) return &*it;
  }
  return nullptr;
}

void Recorder::end_span(SpanId id) {
  if (id == 0) return;
  if (SpanEvent* ev = find_open(id); ev && !ev->closed())
    ev->end_ns = now_ns();
}

void Recorder::end_span(SpanId id, SpanArgs extra_args) {
  if (id == 0) return;
  if (SpanEvent* ev = find_open(id); ev && !ev->closed()) {
    for (auto& kv : extra_args) ev->args.push_back(std::move(kv));
    ev->end_ns = now_ns();
  }
}

SpanId Recorder::instant(Category c, std::string name, SpanId parent,
                         SpanArgs args) {
  SpanId id = begin_span(c, std::move(name), parent, std::move(args));
  end_span(id);
  return id;
}

void Recorder::count(std::string_view name, std::uint64_t delta) {
  data_.counters[std::string(name)] += delta;
}

void Recorder::observe(std::string_view name, double value) {
  data_.histograms[std::string(name)].push_back(value);
}

TraceData Recorder::take() {
  // A world being torn down mid-span (failed fetch, killed circuit) must
  // still export well-formed intervals.
  for (SpanEvent& ev : data_.spans) {
    if (!ev.closed()) ev.end_ns = now_ns();
  }
  TraceData out = std::move(data_);
  data_ = TraceData{};
  next_id_ = 1;
  return out;
}

}  // namespace ptperf::trace
