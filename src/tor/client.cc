#include "tor/client.h"

#include <deque>

#include "fault/fault_injector.h"
#include "trace/trace.h"

namespace ptperf::tor {

// ---------------------------------------------------------------- state --

/// Client-side bookkeeping for one attached stream.
struct StreamState {
  net::Channel::Receiver receiver;
  net::Channel::CloseHandler close_handler;
  TorClient::StreamCallback open_cb;  // pending until CONNECTED/END
  int deliver_window = kStreamWindowInit;
  int cells_since_sendme = 0;
  bool connected = false;
  bool closed = false;
  trace::SpanId open_span = 0;  // BEGIN -> CONNECTED/END round trip
};

struct TorCircuit::Impl {
  TorClient* client = nullptr;
  std::shared_ptr<TorClient> client_keepalive;
  net::ChannelPtr link;
  CircId circ_id = 0;
  Path path;
  std::vector<RelayLayer> layers;
  std::vector<RelayIndex> hops;

  // Build state.
  bool building = true;
  std::optional<NtorClientState> pending_handshake;
  TorClient::CircuitCallback build_cb;
  sim::EventHandle build_timer;

  bool alive = true;
  std::function<void()> death_handler;

  // Flight-recorder spans: "circuit_build" covers CREATE2 through the last
  // EXTENDED2; "first_hop" (its child) is the PT/TCP connect to the entry;
  // "ntor_hop" children time each handshake round trip. kill_circuit closes
  // whichever are still open so failed builds leave well-formed traces.
  trace::SpanId build_span = 0;
  trace::SpanId first_hop_span = 0;
  trace::SpanId hop_span = 0;

  int circuit_cells_since_sendme = 0;
  StreamId next_stream_id = 1;
  std::map<StreamId, StreamState> streams;
};

struct TorStream::Impl {
  std::shared_ptr<TorCircuit::Impl> circ;
  StreamId stream_id = 0;
};

// ------------------------------------------------------------ TorStream --

void TorStream::send(util::Buf payload) {
  auto& circ = impl_->circ;
  if (!circ->alive) return;
  auto it = circ->streams.find(impl_->stream_id);
  if (it == circ->streams.end() || it->second.closed) return;
  // Chop into DATA cells addressed to the exit hop.
  util::BytesView view = payload.view();
  std::size_t off = 0;
  do {
    std::size_t n = std::min(view.size() - off, kRelayDataMax);
    circ->client->send_relay(circ, circ->layers.size() - 1,
                             RelayCommand::kData, impl_->stream_id,
                             view.subspan(off, n));
    off += n;
  } while (off < view.size());
}

void TorStream::set_receiver(Receiver fn) {
  auto it = impl_->circ->streams.find(impl_->stream_id);
  if (it != impl_->circ->streams.end()) it->second.receiver = std::move(fn);
}

void TorStream::set_close_handler(CloseHandler fn) {
  auto it = impl_->circ->streams.find(impl_->stream_id);
  if (it != impl_->circ->streams.end())
    it->second.close_handler = std::move(fn);
}

void TorStream::close() {
  auto& circ = impl_->circ;
  auto it = circ->streams.find(impl_->stream_id);
  if (it == circ->streams.end() || it->second.closed) return;
  it->second.closed = true;
  if (circ->alive) {
    circ->client->send_relay(circ, circ->layers.size() - 1,
                             RelayCommand::kEnd, impl_->stream_id, {});
  }
  circ->streams.erase(impl_->stream_id);
}

sim::Duration TorStream::base_rtt() const {
  const auto& circ = impl_->circ;
  if (!circ->link) return sim::Duration::zero();
  return circ->link->base_rtt() * 3;  // rough circuit-length estimate
}

// ----------------------------------------------------------- TorCircuit --

bool TorCircuit::alive() const { return impl_->alive; }
const Path& TorCircuit::path() const { return impl_->path; }
void TorCircuit::on_death(std::function<void()> fn) {
  impl_->death_handler = std::move(fn);
}
void TorCircuit::close() const {
  if (impl_->client) impl_->client->kill_circuit(impl_, "closed by client");
}

// ------------------------------------------------------------ TorClient --

TorClient::TorClient(net::Network& net, net::HostId host,
                     const Consensus& consensus, sim::Rng rng, TorClientOptions opts)
    : net_(&net),
      host_(host),
      consensus_(&consensus),
      rng_(std::move(rng)),
      opts_(std::move(opts)),
      selector_(consensus, rng_.fork("path-selection")) {
  // Default first hop: plain TCP link to the relay host (vanilla Tor).
  first_hop_ = [this](RelayIndex entry,
                      std::function<void(net::ChannelPtr)> on_open,
                      std::function<void(std::string)> on_error) {
    const RelayDescriptor& d = consensus_->at(entry);
    net_->connect(
        host_, d.host, opts_.tor_service,
        [on_open](net::Pipe pipe) { on_open(net::wrap_pipe(std::move(pipe))); },
        [on_error](std::string err) {
          if (on_error) on_error(std::move(err));
        });
  };
}

void TorClient::set_first_hop_connector(FirstHopConnector fn) {
  first_hop_ = std::move(fn);
}

void TorClient::build_circuit(const PathConstraints& constraints,
                              CircuitCallback cb) {
  Path path = selector_.select(constraints);
  build_circuit_path(path.hops(), std::move(cb));
}

void TorClient::build_circuit_path(const std::vector<RelayIndex>& hops,
                                   CircuitCallback cb) {
  if (hops.empty()) {
    cb(std::nullopt, "empty circuit path");
    return;
  }
  auto circ = std::make_shared<TorCircuit::Impl>();
  circ->client = this;
  circ->client_keepalive = shared_from_this();
  circ->circ_id = next_circ_id_++;
  circ->path.entry = hops.front();
  circ->path.middle = hops.size() > 1 ? hops[1] : hops.front();
  circ->path.exit = hops.back();
  circ->hops = hops;
  circ->build_cb = std::move(cb);

  circ->build_timer = net_->loop().schedule(opts_.build_timeout, [circ, this] {
    if (circ->building) kill_circuit(circ, "circuit build timeout");
  });

  trace::Recorder* rec = net_->loop().recorder();
  circ->build_span = TRACE_SPAN_BEGIN_ARGS(
      rec, trace::kTor, "circuit_build", 0,
      {{"circ", std::to_string(circ->circ_id)},
       {"hops", std::to_string(hops.size())}});

  auto self = shared_from_this();

  // Injected circuit-build failure: the build makes partial progress and
  // then dies, delivered asynchronously like a DESTROY from a relay.
  if (fault::FaultInjector* injector = net_->fault_injector();
      injector && injector->fire(fault::FaultKind::kCircuitBuildFailure)) {
    net_->loop().schedule(sim::from_millis(120), [self, circ] {
      if (circ->building)
        self->kill_circuit(circ, "injected: circuit build failure");
    });
    return;
  }


  circ->first_hop_span = TRACE_SPAN_BEGIN_UNDER(rec, trace::kTor, "first_hop",
                                                circ->build_span);
  first_hop_(
      hops.front(),
      [self, circ](net::ChannelPtr ch) {
        trace::Recorder* rec = self->net_->loop().recorder();
        TRACE_SPAN_END(rec, circ->first_hop_span);
        circ->first_hop_span = 0;
        circ->link = std::move(ch);
        circ->link->set_receiver([self, circ](util::Buf wire) {
          self->on_link_message(circ, std::move(wire));
        });
        circ->link->set_close_handler(
            [self, circ] { self->kill_circuit(circ, "link closed"); });
        // CREATE2 to the entry.
        circ->pending_handshake = ntor_client_start(
            self->rng_, self->consensus_->handshake_mode);
        circ->hop_span = TRACE_SPAN_BEGIN_ARGS(rec, trace::kTor, "ntor_hop",
                                               circ->build_span,
                                               {{"hop", "0"}});
        util::Buf create = util::local_pool().acquire(kCellSize);
        encode_cell_into(create.span(), circ->circ_id, CellCommand::kCreate2,
                         ntor_client_message(*circ->pending_handshake));
        circ->link->send(std::move(create));
      },
      [self, circ](std::string err) {
        self->kill_circuit(circ, "first hop: " + err);
      });
}

void TorClient::on_link_message(const std::shared_ptr<TorCircuit::Impl>& circ,
                                util::Buf wire) {
  if (!circ->alive) return;
  auto cell = parse_cell(wire);
  if (!cell || cell->circ_id != circ->circ_id) return;

  if (cell->command == CellCommand::kCreated2) {
    if (!circ->pending_handshake || !circ->layers.empty()) return;
    TRACE_SPAN_END(net_->loop().recorder(), circ->hop_span);
    circ->hop_span = 0;
    util::BytesView reply = cell->payload.first(48);
    auto keys = ntor_client_finish(
        *circ->pending_handshake, consensus_->identity_of(circ->hops[0]),
        reply);
    if (!keys) {
      kill_circuit(circ, "entry handshake failed");
      return;
    }
    circ->layers.emplace_back(*keys);
    circ->pending_handshake.reset();
    continue_build(circ);
    return;
  }

  if (cell->command == CellCommand::kDestroy) {
    kill_circuit(circ, "destroyed by entry");
    return;
  }

  if (cell->command != CellCommand::kRelay) return;

  // Peel backward layers in place until some hop's digest recognizes the
  // cell — the payload never leaves the delivered wire buffer.
  auto payload = wire.span().subspan(kCellHeaderSize);
  for (std::size_t i = 0; i < circ->layers.size(); ++i) {
    circ->layers[i].process_backward(payload);
    auto rc =
        parse_relay_cell(util::BytesView(payload.data(), payload.size()));
    if (rc && rc->recognized == 0) {
      bool ours = false;
      {
        ScopedDigestZero zeroed(payload);
        ours = circ->layers[i].check_backward_digest(zeroed.zeroed(),
                                                     rc->digest);
      }
      if (ours) {
        handle_backward(circ, i, *rc, std::move(wire));
        return;
      }
    }
  }
  // No layer recognized the cell: corrupted circuit state.
  kill_circuit(circ, "unrecognized backward cell");
}

void TorClient::continue_build(const std::shared_ptr<TorCircuit::Impl>& circ) {
  trace::Recorder* rec = net_->loop().recorder();
  std::size_t have = circ->layers.size();
  if (have >= circ->hops.size()) {
    circ->building = false;
    circ->build_timer.cancel();
    TRACE_SPAN_END_ARGS(rec, circ->build_span, {{"ok", "1"}});
    circ->build_span = 0;
    if (circ->build_cb) {
      auto cb = std::move(circ->build_cb);
      circ->build_cb = nullptr;
      cb(TorCircuit(circ), "");
    }
    return;
  }
  // EXTEND2 to the next hop, addressed to the current last hop.
  circ->pending_handshake =
      ntor_client_start(rng_, consensus_->handshake_mode);
  circ->hop_span = TRACE_SPAN_BEGIN_ARGS(rec, trace::kTor, "ntor_hop",
                                         circ->build_span,
                                         {{"hop", std::to_string(have)}});
  Extend2 ext;
  ext.target_relay = circ->hops[have];
  ext.handshake = ntor_client_message(*circ->pending_handshake);
  util::Bytes body = ext.encode();
  send_relay(circ, have - 1, RelayCommand::kExtend2, 0, body);
}

void TorClient::handle_backward(const std::shared_ptr<TorCircuit::Impl>& circ,
                                std::size_t layer_index,
                                const RelayCellView& rc, util::Buf wire) {
  switch (rc.command) {
    case RelayCommand::kExtended2: {
      if (!circ->pending_handshake) return;
      if (layer_index + 1 != circ->layers.size()) return;
      TRACE_SPAN_END(net_->loop().recorder(), circ->hop_span);
      circ->hop_span = 0;
      std::size_t next_hop = circ->layers.size();
      util::BytesView reply = rc.data.first(48);
      auto keys = ntor_client_finish(
          *circ->pending_handshake,
          consensus_->identity_of(circ->hops[next_hop]), reply);
      if (!keys) {
        kill_circuit(circ, "extend handshake failed");
        return;
      }
      circ->layers.emplace_back(*keys);
      circ->pending_handshake.reset();
      continue_build(circ);
      break;
    }
    case RelayCommand::kConnected: {
      auto it = circ->streams.find(rc.stream_id);
      if (it == circ->streams.end()) return;
      it->second.connected = true;
      TRACE_SPAN_END(net_->loop().recorder(), it->second.open_span);
      it->second.open_span = 0;
      if (it->second.open_cb) {
        auto cb = std::move(it->second.open_cb);
        it->second.open_cb = nullptr;
        auto impl = std::make_shared<TorStream::Impl>();
        impl->circ = circ;
        impl->stream_id = rc.stream_id;
        cb(std::make_shared<TorStream>(impl), "");
      }
      break;
    }
    case RelayCommand::kData: {
      auto it = circ->streams.find(rc.stream_id);
      if (it == circ->streams.end()) return;
      StreamState& st = it->second;
      TRACE_COUNT(net_->loop().recorder(), "tor/data_cells", 1);

      // Flow control: emit SENDMEs as data is consumed.
      st.cells_since_sendme++;
      circ->circuit_cells_since_sendme++;
      if (st.cells_since_sendme >= kStreamSendmeIncrement) {
        st.cells_since_sendme = 0;
        send_relay(circ, circ->layers.size() - 1, RelayCommand::kSendmeStream,
                   rc.stream_id, {});
      }
      if (circ->circuit_cells_since_sendme >= kCircuitSendmeIncrement) {
        circ->circuit_cells_since_sendme = 0;
        send_relay(circ, circ->layers.size() - 1, RelayCommand::kSendmeCircuit,
                   0, {});
      }
      if (st.receiver) {
        auto fn = st.receiver;
        // Zero-copy delivery: shrink the wire buffer's window to the DATA
        // bytes and hand the same storage up to the stream consumer.
        std::size_t len = rc.data.size();
        wire.drop_front(kCellHeaderSize + kRelayHeaderSize);
        wire.resize(len);
        fn(std::move(wire));
      }
      break;
    }
    case RelayCommand::kEnd: {
      auto it = circ->streams.find(rc.stream_id);
      if (it == circ->streams.end()) return;
      TRACE_SPAN_END_ARGS(net_->loop().recorder(), it->second.open_span,
                          {{"refused", "1"}});
      it->second.open_span = 0;
      if (it->second.open_cb) {
        auto cb = std::move(it->second.open_cb);
        cb(nullptr, "stream refused: " + util::to_string(rc.data));
      } else if (it->second.close_handler) {
        auto fn = it->second.close_handler;
        fn();
      }
      circ->streams.erase(it);
      break;
    }
    case RelayCommand::kTruncated: {
      kill_circuit(circ, "circuit truncated");
      break;
    }
    default:
      break;
  }
}

void TorClient::open_stream(const TorCircuit& circuit,
                            const std::string& target, StreamCallback cb) {
  auto circ = circuit.impl();
  if (!circ->alive) {
    cb(nullptr, "circuit dead");
    return;
  }
  StreamId sid = circ->next_stream_id++;
  StreamState st;
  st.open_cb = std::move(cb);
  st.open_span = TRACE_SPAN_BEGIN_ARGS(net_->loop().recorder(), trace::kTor,
                                       "stream_open", 0,
                                       {{"stream", std::to_string(sid)}});
  circ->streams.emplace(sid, std::move(st));

  send_relay(circ, circ->layers.size() - 1, RelayCommand::kBegin, sid,
             util::to_bytes(target));
}

void TorClient::send_relay(const std::shared_ptr<TorCircuit::Impl>& circ,
                           std::size_t hop, RelayCommand command,
                           StreamId stream_id, util::BytesView data) {
  if (!circ->alive || hop >= circ->layers.size()) return;
  // Encode straight into a pooled wire buffer with a zero digest, stamp
  // the real digest, then layer the onion crypto over it in place.
  util::Buf wire = util::local_pool().acquire(kCellSize);
  encode_cell_into(wire.span(), circ->circ_id, CellCommand::kRelay, {});
  auto payload = wire.span().subspan(kCellHeaderSize);
  encode_relay_cell_into(payload, command, stream_id, 0, data);
  std::uint32_t digest = circ->layers[hop].commit_forward_digest(
      util::BytesView(payload.data(), payload.size()));
  patch_relay_digest(payload, digest);
  // Apply layers inside-out: the destination hop first, the entry last,
  // so each relay strips exactly one layer.
  for (std::size_t i = hop + 1; i-- > 0;) {
    circ->layers[i].process_forward(payload);
  }
  circ->link->send(std::move(wire));
}

void TorClient::kill_circuit(const std::shared_ptr<TorCircuit::Impl>& circ,
                             const std::string& reason) {
  if (!circ->alive) return;
  circ->alive = false;
  circ->build_timer.cancel();
  trace::Recorder* rec = net_->loop().recorder();
  TRACE_SPAN_END(rec, circ->hop_span);
  TRACE_SPAN_END(rec, circ->first_hop_span);
  TRACE_SPAN_END_ARGS(rec, circ->build_span, {{"error", reason}});
  circ->hop_span = circ->first_hop_span = circ->build_span = 0;
  if (circ->build_cb) {
    auto cb = std::move(circ->build_cb);
    circ->build_cb = nullptr;
    cb(std::nullopt, reason);
  }
  // Notify streams.
  for (auto& [sid, st] : circ->streams) {
    TRACE_SPAN_END_ARGS(rec, st.open_span, {{"error", reason}});
    st.open_span = 0;
    if (st.open_cb) {
      st.open_cb(nullptr, reason);
    } else if (st.close_handler) {
      st.close_handler();
    }
  }
  circ->streams.clear();
  if (circ->link) circ->link->close();
  if (circ->death_handler) circ->death_handler();
}

}  // namespace ptperf::tor
