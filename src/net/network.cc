#include "net/network.h"

#include <algorithm>
#include <stdexcept>

#include "net/resource.h"

namespace ptperf::net {
namespace {

constexpr double kMbpsToBytesPerSec = 1e6 / 8.0;

double effective_rate(double mbps, double background_load) {
  double load = std::clamp(background_load, 0.0, 0.97);
  return mbps * kMbpsToBytesPerSec * (1.0 - load);
}

}  // namespace

// ---------------------------------------------------------------- Pipe --

bool Pipe::open() const { return state_ && !state_->closed; }

void Pipe::send(util::Buf payload) {
  if (!open()) return;  // sends on a closed pipe are silently dropped (RST)
  state_->net->do_send(state_, side_, std::move(payload));
}

void Pipe::on_receive(Receiver fn) {
  if (!state_) return;
  state_->receiver[side_] = std::move(fn);
  // Deliver anything that arrived before the receiver existed.
  while (!state_->pending[side_].empty() && state_->receiver[side_]) {
    util::Buf msg = std::move(state_->pending[side_].front());
    state_->pending[side_].erase(state_->pending[side_].begin());
    auto handler = state_->receiver[side_];
    handler(std::move(msg));
  }
}

void Pipe::on_close(CloseHandler fn) {
  if (state_) state_->close_handler[side_] = std::move(fn);
}

void Pipe::close() {
  if (open()) state_->net->do_close(state_, side_);
}

sim::Duration Pipe::base_rtt() const {
  if (!state_) return sim::Duration::zero();
  return 2 * (state_->one_way + state_->options.extra_one_way);
}

// ------------------------------------------------------------- Network --

Network::Network(sim::EventLoop& loop, sim::Rng rng, Topology topology)
    : loop_(&loop), rng_(std::move(rng)), topo_(topology) {}

HostId Network::add_host(std::string name, Region region, HostTraits traits) {
  hosts_.push_back(HostState{std::move(name), region, traits, {}, {}});
  return static_cast<HostId>(hosts_.size() - 1);
}

Region Network::region_of(HostId h) const { return hosts_.at(h).region; }

const std::string& Network::name_of(HostId h) const {
  return hosts_.at(h).name;
}

void Network::set_background_load(HostId h, double load) {
  hosts_.at(h).traits.background_load = load;
}

double Network::background_load(HostId h) const {
  return hosts_.at(h).traits.background_load;
}

void Network::listen(HostId host, const std::string& service,
                     AcceptHandler fn) {
  acceptors_[{host, service}] = std::move(fn);
}

void Network::unlisten(HostId host, const std::string& service) {
  acceptors_.erase({host, service});
}

void Network::connect(HostId from, HostId to, const std::string& service,
                      OpenHandler on_open, ErrorHandler on_error,
                      ConnectOptions options) {
  auto it = acceptors_.find({to, service});
  if (it == acceptors_.end()) {
    if (on_error) {
      std::string msg = "connection refused: " + name_of(to) + "/" + service;
      loop_->schedule(sim::Duration::zero(),
                      [on_error, msg] { on_error(msg); });
    }
    return;
  }

  fault::PipeFaultProfile profile;
  if (fault_ && fault_->enabled()) profile = fault_->plan_pipe(service);
  if (profile.refuse) {
    fault_->record(fault::FaultKind::kRefuse);
    if (on_error) {
      std::string msg =
          "connection refused (injected fault): " + name_of(to) + "/" + service;
      // The refusal (RST to the SYN) arrives after a full RTT, like a
      // real remote reset would.
      sim::Duration owd = ((from == to)
                               ? sim::Duration(std::chrono::microseconds(25))
                               : topo_.one_way(region_of(from), region_of(to))) +
                          options.extra_one_way;
      loop_->schedule(2 * owd, [on_error, msg] { on_error(msg); });
    }
    return;
  }

  auto state = std::make_shared<Pipe::ConnState>();
  state->net = this;
  state->host[0] = from;
  state->host[1] = to;
  state->fault = profile;
  // Loopback connections (app -> local Tor client) skip the topology.
  state->one_way = (from == to)
                       ? sim::Duration(std::chrono::microseconds(25))
                       : topo_.one_way(region_of(from), region_of(to));
  state->options = options;

  sim::Duration owd = state->one_way + options.extra_one_way;
  AcceptHandler accept = it->second;
  // SYN reaches the acceptor after one OWD; the initiator's handshake
  // completes after a full RTT.
  loop_->schedule(owd, [accept, state] { accept(Pipe(state, 1)); });
  loop_->schedule(2 * owd,
                  [on_open, state] { on_open(Pipe(state, 0)); });
}

sim::Duration Network::queue_delay(const HostState& h,
                                   sim::Duration service_time) {
  double load = std::clamp(h.traits.background_load, 0.0, 0.97);
  if (load <= 0.0) return sim::Duration::zero();
  // M/M/1 waiting-time flavour: E[W] = rho/(1-rho) * E[S].
  double mean =
      load / (1.0 - load) * (sim::to_seconds(service_time) + 0.8e-3);
  return sim::from_seconds(rng_.exponential(mean));
}

void Network::do_send(const std::shared_ptr<Pipe::ConnState>& state,
                      int from_side, util::Buf payload) {
  HostState& snd = hosts_.at(state->host[from_side]);
  HostState& rcv = hosts_.at(state->host[1 - from_side]);
  detail::DirState& dir = state->dir[from_side];
  const ConnectOptions& opt = state->options;
  const auto bytes = static_cast<double>(std::max<std::size_t>(payload.size(), 1));
  total_bytes_ += payload.size();

  // Injected pipe faults. Thresholds count payload bytes over both
  // directions, so a download triggers a "reset after N bytes" hazard
  // even though the request itself was tiny.
  sim::Duration fault_extra = sim::Duration::zero();
  if (state->fault.any()) {
    state->fault_bytes += payload.size();
    const fault::PipeFaultProfile& fp = state->fault;
    if (fp.blackhole_after_bytes > 0 &&
        state->fault_bytes >= fp.blackhole_after_bytes) {
      // The pipe stays nominally open but nothing arrives anymore — the
      // sender only notices via its own timeout.
      if (fault_) fault_->record(fault::FaultKind::kBlackhole);
      return;
    }
    if (fp.reset_after_bytes > 0 &&
        state->fault_bytes >= fp.reset_after_bytes) {
      if (fault_) fault_->record(fault::FaultKind::kReset);
      do_reset(state);
      return;
    }
    if (fault_ && fault_->should_drop(fp)) return;
    if (fp.stall_after_bytes > 0 && !state->fault_stalled &&
        state->fault_bytes >= fp.stall_after_bytes) {
      state->fault_stalled = true;
      if (fault_) fault_->record(fault::FaultKind::kStall);
      // One-shot stall: this message is held for the stall duration, and
      // the per-direction FIFO keeps everything behind it waiting too.
      fault_extra = fp.stall_duration;
    }
  }

  sim::TimePoint now = loop_->now();

  // 1. Sender access-link serialization (shared across all of the host's
  //    connections — this is where a loaded relay slows everyone down).
  double up_rate = effective_rate(snd.traits.up_mbps, snd.traits.background_load);
  sim::TimePoint tx_start = std::max(now, snd.up_busy);
  sim::Duration tx = sim::from_seconds(bytes / up_rate);
  snd.up_busy = tx_start + tx;

  // 2. Slow-start pacing: until the ramp opens up, throughput is limited
  //    to (window / RTT) where the window starts at initial_window and
  //    grows with every byte already sent on this pipe direction.
  sim::Duration pace = sim::Duration::zero();
  if (!opt.no_ramp) {
    double rtt_s = sim::to_seconds(2 * (state->one_way + opt.extra_one_way));
    rtt_s = std::max(rtt_s, 1e-4);
    double window = opt.initial_window_bytes + dir.bytes_sent;
    double ramp_rate = window / rtt_s;
    double pace_s = bytes / ramp_rate;
    double tx_s = sim::to_seconds(tx);
    if (pace_s > tx_s) pace = sim::from_seconds(pace_s - tx_s);
  }
  dir.bytes_sent += bytes;

  // 3. Service-side rate cap (meek bridge, IM APIs): a dedicated
  //    serializer at the capped rate.
  sim::Duration cap_wait = sim::Duration::zero();
  if (opt.rate_cap_bytes_per_sec > 0) {
    sim::TimePoint cap_start = std::max(now, dir.cap_busy);
    sim::Duration cap_tx =
        sim::from_seconds(bytes / opt.rate_cap_bytes_per_sec);
    dir.cap_busy = cap_start + cap_tx;
    cap_wait = (cap_start + cap_tx) - now;
  }

  // 4. Propagation + jitter.
  sim::Duration owd = state->one_way + opt.extra_one_way;
  sim::Duration jitter =
      sim::from_seconds(rng_.exponential(snd.traits.jitter_ms * 1e-3 / 2 +
                                         rcv.traits.jitter_ms * 1e-3 / 2));

  // 5. Receiver ingress serialization + load queueing.
  double down_rate =
      effective_rate(rcv.traits.down_mbps, rcv.traits.background_load);
  sim::Duration rx = sim::from_seconds(bytes / down_rate);
  sim::TimePoint arrival = tx_start + tx + pace + owd + jitter;
  if (cap_wait > (arrival - now)) arrival = now + cap_wait + owd;
  sim::TimePoint rx_start = std::max(arrival, rcv.down_busy);
  rcv.down_busy = rx_start + rx;
  sim::TimePoint deliver = rx_start + rx + queue_delay(rcv, rx) +
                           sim::from_millis(rcv.traits.proc_ms) + fault_extra;

  // 6. FIFO per direction.
  deliver = std::max(deliver, dir.last_delivery);
  dir.last_delivery = deliver;

  int to_side = 1 - from_side;
  // shared_ptr wrapper because std::function closures must be copyable;
  // the buffer itself still moves end to end without a byte copied.
  auto shared_payload = std::make_shared<util::Buf>(std::move(payload));
  loop_->schedule_at(deliver, [state, to_side, shared_payload] {
    if (state->closed) return;
    // Copy the handler first: receivers may install a replacement from
    // inside the callback (handshake -> session transition), which would
    // otherwise destroy the closure mid-execution.
    auto fn = state->receiver[to_side];
    if (fn) {
      fn(std::move(*shared_payload));
    } else {
      // No receiver yet: buffer like a kernel socket would.
      state->pending[to_side].push_back(std::move(*shared_payload));
    }
  });
}

void Network::do_reset(const std::shared_ptr<Pipe::ConnState>& state) {
  state->closed = true;
  auto fn0 = state->close_handler[0];
  auto fn1 = state->close_handler[1];
  // Same cycle-breaking discipline as do_close: drop every stored closure
  // before the handlers run.
  state->receiver[0] = nullptr;
  state->receiver[1] = nullptr;
  state->close_handler[0] = nullptr;
  state->close_handler[1] = nullptr;
  // Handlers fire from the event queue, not inline from do_send: the
  // sender's send() call must return before its pipe dies under it.
  if (fn0) loop_->schedule(sim::Duration::zero(), fn0);
  if (fn1) loop_->schedule(sim::Duration::zero(), fn1);
}

void Network::do_close(const std::shared_ptr<Pipe::ConnState>& state,
                       int from_side) {
  // Deliver the FIN after all queued data in that direction.
  sim::TimePoint fin_at =
      std::max(loop_->now() + state->one_way + state->options.extra_one_way,
               state->dir[from_side].last_delivery);
  int to_side = 1 - from_side;
  loop_->schedule_at(fin_at, [state, to_side] {
    if (state->closed) return;
    state->closed = true;
    auto fn = state->close_handler[to_side];
    // Drop every stored closure: handler closures routinely capture the
    // protocol objects that own this pipe, and leaving them in place would
    // keep whole tunnel/circuit graphs alive forever (reference cycles).
    state->receiver[0] = nullptr;
    state->receiver[1] = nullptr;
    state->close_handler[0] = nullptr;
    state->close_handler[1] = nullptr;
    if (fn) fn();
  });
}

}  // namespace ptperf::net
