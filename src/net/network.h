// Flow-level network simulation: hosts with access-link serializers and
// background load, duplex message pipes with propagation delay, jitter,
// slow-start ramping and optional rate caps.
//
// The model deliberately encodes the causal structures PTPerf's findings
// rest on:
//   * per-host shared serializers => a loaded guard relay delays every
//     circuit through it (the paper's §4.2.1 first-hop effect);
//   * M/M/1-flavoured queueing delay grows super-linearly in background
//     load (snowflake under the Iran surge, §5.3);
//   * slow-start ramp => short website fetches never reach link rate,
//     bulk downloads do (Fig 2 vs Fig 5 regimes);
//   * per-pipe rate caps => rate-limited primitives (meek bridge,
//     camoufler IM APIs) cap bulk throughput without affecting RTT.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fault/fault_injector.h"
#include "net/topology.h"
#include "sim/event_loop.h"
#include "sim/rng.h"
#include "util/buf.h"
#include "util/bytes.h"

namespace ptperf::net {

using HostId = std::uint32_t;

/// Static description of a host's access link and congestion state.
struct HostTraits {
  double up_mbps = 500.0;
  double down_mbps = 500.0;
  /// Fraction of capacity consumed by traffic outside this simulation
  /// (other Tor clients on a volunteer relay, other CDN tenants, ...).
  /// Effective rate scales by (1 - background_load) and queueing delay
  /// grows as load/(1-load).
  double background_load = 0.0;
  /// Per-message latency jitter scale (exponential, milliseconds).
  double jitter_ms = 1.0;
  /// Fixed ingress processing per message, milliseconds (cell scheduling /
  /// crypto / queue hop inside relay daemons). Pipelined: adds latency,
  /// not a throughput cap.
  double proc_ms = 0.0;
};

struct ConnectOptions {
  /// Additional one-way latency on top of topology propagation (e.g. a
  /// CDN front detour or a WebRTC relayed path).
  sim::Duration extra_one_way{0};
  /// Cap on sustained throughput of this pipe, bytes/second per direction
  /// (0 = uncapped). Models service-side rate limits.
  double rate_cap_bytes_per_sec = 0.0;
  /// Initial congestion window in bytes for the slow-start ramp.
  double initial_window_bytes = 14600.0;
  /// Disables the slow-start ramp (loopback / pre-warmed sessions).
  bool no_ramp = false;
};

class Network;
class ContendedResource;
struct ContendedResourceSpec;

namespace detail {
/// Per-direction transmission bookkeeping for one connection.
struct DirState {
  sim::TimePoint last_delivery{};
  sim::TimePoint cap_busy{};
  double bytes_sent = 0.0;
};
}  // namespace detail

/// One endpoint of an established duplex connection. Move-only handle;
/// both endpoints share state inside the Network.
class Pipe {
 public:
  using Receiver = std::function<void(util::Buf)>;
  using CloseHandler = std::function<void()>;

  Pipe() = default;

  bool valid() const { return state_ != nullptr; }
  bool open() const;

  /// Queues a buffer to the peer; the receiver callback fires at delivery
  /// time with the same buffer (move-only handoff — no copy in transit).
  /// util::Bytes rvalues convert implicitly, so `send(writer.take())`
  /// works; sending an lvalue Bytes (a hidden copy) fails to compile.
  void send(util::Buf payload);

  /// Registers the receive callback for this endpoint.
  void on_receive(Receiver fn);
  void on_close(CloseHandler fn);

  /// Closes both directions after in-flight deliveries; peer's close
  /// handler fires one propagation delay later.
  void close();

  /// Base round-trip time of this pipe (propagation only).
  sim::Duration base_rtt() const;

 private:
  friend class Network;
  struct ConnState;
  Pipe(std::shared_ptr<ConnState> state, int side)
      : state_(std::move(state)), side_(side) {}

  std::shared_ptr<ConnState> state_;
  int side_ = 0;  // 0 = initiator, 1 = acceptor
};

class Network {
 public:
  using AcceptHandler = std::function<void(Pipe)>;
  using OpenHandler = std::function<void(Pipe)>;
  using ErrorHandler = std::function<void(std::string)>;

  Network(sim::EventLoop& loop, sim::Rng rng, Topology topology = Topology());
  ~Network();

  HostId add_host(std::string name, Region region, HostTraits traits = {});

  Region region_of(HostId h) const;
  const std::string& name_of(HostId h) const;

  /// Adjusts background load at runtime. This is the population engine's
  /// private sink: demand lands here through a registered
  /// ContendedResource (net/resource.h), driven from src/population.
  /// Direct pokes from benches or scenario code are banned by simlint's
  /// load-bypass rule — hand-set load is exactly the unmodeled-contention
  /// trap the population engine retires.
  void set_background_load(HostId h, double load);
  double background_load(HostId h) const;

  /// Registers a shared pool (volunteer proxies, CDN front, bridge link)
  /// for demand-driven utilization. Registration is inert — no host trait
  /// changes until the resource is driven. The reference stays valid for
  /// the Network's lifetime.
  ContendedResource& add_resource(ContendedResourceSpec spec);
  ContendedResource* find_resource(std::string_view name);
  const std::vector<std::unique_ptr<ContendedResource>>& resources() const;

  /// Registers a service acceptor on a host. One acceptor per
  /// (host, service).
  void listen(HostId host, const std::string& service, AcceptHandler fn);
  void unlisten(HostId host, const std::string& service);

  /// Opens a connection; on success calls on_open after one handshake RTT
  /// with the initiator-side pipe. The acceptor receives its pipe half an
  /// RTT earlier. on_error fires if nothing listens.
  void connect(HostId from, HostId to, const std::string& service,
               OpenHandler on_open, ErrorHandler on_error = nullptr,
               ConnectOptions options = {});

  sim::EventLoop& loop() { return *loop_; }
  const Topology& topology() const { return topo_; }

  /// Total payload bytes accepted for transmission (both directions,
  /// all pipes) — used by overhead accounting in benches.
  std::uint64_t total_bytes_sent() const { return total_bytes_; }

  /// Attaches a fault injector (owned by the Scenario, must outlive the
  /// network). Null (the default) or an injector with an empty plan keeps
  /// the network's behavior byte-identical to the fault-free model — not
  /// a single extra RNG draw happens.
  void set_fault_injector(fault::FaultInjector* injector) {
    fault_ = injector;
  }
  fault::FaultInjector* fault_injector() const { return fault_; }

 private:
  friend class Pipe;

  struct HostState {
    std::string name;
    Region region;
    HostTraits traits;
    sim::TimePoint up_busy{};
    sim::TimePoint down_busy{};
  };

  void do_send(const std::shared_ptr<Pipe::ConnState>& state, int from_side,
               util::Buf payload);
  void do_close(const std::shared_ptr<Pipe::ConnState>& state, int from_side);
  /// Injected RST: closes immediately and fires BOTH close handlers (a
  /// reset, unlike a FIN, is an error on each end).
  void do_reset(const std::shared_ptr<Pipe::ConnState>& state);
  sim::Duration queue_delay(const HostState& h, sim::Duration service_time);

  sim::EventLoop* loop_;
  sim::Rng rng_;
  Topology topo_;
  std::vector<HostState> hosts_;
  std::vector<std::unique_ptr<ContendedResource>> resources_;
  std::map<std::pair<HostId, std::string>, AcceptHandler> acceptors_;
  std::uint64_t total_bytes_ = 0;
  fault::FaultInjector* fault_ = nullptr;
};

/// Shared state of one connection; lives in Network but defined here so
/// Pipe methods can be inline-friendly.
struct Pipe::ConnState {
  Network* net = nullptr;
  HostId host[2] = {0, 0};
  sim::Duration one_way{};
  ConnectOptions options;
  bool closed = false;
  Receiver receiver[2];
  CloseHandler close_handler[2];
  /// Messages that arrived before the side installed a receiver — the
  /// kernel-socket-buffer analogue. Drained on on_receive().
  std::vector<util::Buf> pending[2];
  detail::DirState dir[2];  // dir[i] = traffic sent *by* side i
  /// Hazards rolled for this pipe at dial time (empty when no injector or
  /// no matching rule). Thresholds count bytes over both directions.
  fault::PipeFaultProfile fault;
  std::uint64_t fault_bytes = 0;
  bool fault_stalled = false;
};

}  // namespace ptperf::net
