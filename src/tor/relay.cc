#include "tor/relay.h"

#include "trace/trace.h"
#include "util/strings.h"

namespace ptperf::tor {

Relay::Relay(net::Network& net, const Consensus& consensus, RelayIndex index,
             crypto::X25519Key onion_private, sim::Rng rng, RelayOptions opts)
    : net_(&net),
      consensus_(&consensus),
      index_(index),
      onion_private_(onion_private),
      rng_(std::move(rng)),
      opts_(std::move(opts)),
      host_(consensus.at(index).host) {}

void Relay::start() {
  auto self = shared_from_this();
  net_->listen(host_, opts_.tor_service, [self](net::Pipe pipe) {
    self->accept_channel(net::wrap_pipe(std::move(pipe)));
  });
}

void Relay::stop() {
  net_->unlisten(host_, opts_.tor_service);
  std::vector<CircuitPtr> doomed;
  doomed.reserve(circuits_.size());
  for (auto& [key, circ] : circuits_) doomed.push_back(circ);
  for (auto& circ : doomed) {
    if (circ->prev) circ->prev->close();
    destroy_circuit(circ, /*notify_client=*/false);
  }
}

void Relay::accept_channel(net::ChannelPtr ch) {
  auto self = shared_from_this();
  net::ChannelPtr ch_copy = ch;
  ch->set_receiver([self, ch_copy](util::Buf wire) {
    self->on_link_message(ch_copy, std::move(wire));
  });
  ch->set_close_handler([self, ch_copy] { self->on_link_closed(ch_copy); });
}

void Relay::on_link_message(const net::ChannelPtr& ch, util::Buf wire) {
  auto cell = parse_cell(wire);
  if (!cell) return;  // garbage on the link; a real relay would hang up

  if (cell->command == CellCommand::kCreate2) {
    handle_create2(ch, *cell);
    return;
  }

  auto it = circuits_.find({ch->serial(), cell->circ_id});
  if (it == circuits_.end()) return;
  CircuitPtr circ = it->second;

  switch (cell->command) {
    case CellCommand::kRelay:
      handle_relay_forward(circ, std::move(wire));
      break;
    case CellCommand::kDestroy:
      destroy_circuit(circ, /*notify_client=*/false);
      break;
    default:
      break;
  }
}

void Relay::on_link_closed(const net::ChannelPtr& ch) {
  // Tear down every circuit on this link.
  std::vector<CircuitPtr> doomed;
  for (auto& [key, circ] : circuits_) {
    if (key.first == ch->serial()) doomed.push_back(circ);
  }
  for (auto& circ : doomed) destroy_circuit(circ, /*notify_client=*/false);
}

void Relay::handle_create2(const net::ChannelPtr& ch, const CellView& cell) {
  // Handshake bytes: first 32 of the payload (the payload is padded).
  if (cell.payload.size() < 32) return;
  util::BytesView hs = cell.payload.first(32);
  auto result =
      ntor_server_respond(hs, consensus_->identity_of(index_), onion_private_,
                          rng_, consensus_->handshake_mode);
  if (!result) return;

  auto circ = std::make_shared<Circuit>();
  circ->prev = ch;
  circ->prev_id = cell.circ_id;
  circ->layer.emplace(result->keys);
  circuits_[{ch->serial(), cell.circ_id}] = circ;

  util::Buf reply = util::local_pool().acquire(kCellSize);
  encode_cell_into(reply.span(), cell.circ_id, CellCommand::kCreated2,
                   result->reply);
  ch->send(std::move(reply));
}

void Relay::handle_relay_forward(const CircuitPtr& circ, util::Buf wire) {
  if (circ->destroyed) return;
  ++cells_relayed_;
  trace::Recorder* rec = net_->loop().recorder();
  TRACE_COUNT(rec, "tor/cells_relayed", 1);
  TRACE_INSTANT_ARGS(rec, trace::kCells, "cell_fwd",
                     {{"relay", std::to_string(index_)}});
  // Strip this hop's onion layer in place inside the wire buffer.
  auto payload = wire.span().subspan(kCellHeaderSize);
  circ->layer->process_forward(payload);

  auto rc = parse_relay_cell(util::BytesView(payload.data(), payload.size()));
  if (rc && rc->recognized == 0) {
    bool ours = false;
    {
      ScopedDigestZero zeroed(payload);
      ours = circ->layer->check_forward_digest(zeroed.zeroed(), rc->digest);
    }
    if (ours) {
      handle_recognized(circ, *rc, std::move(wire));
      return;
    }
  }
  // Not ours: forward the same buffer one hop closer to the exit.
  if (circ->next) {
    patch_circ_id(wire.span(), circ->next_id);
    circ->next->send(std::move(wire));
  } else {
    // Unrecognized cell at the last hop: protocol violation.
    destroy_circuit(circ, /*notify_client=*/true);
  }
}

void Relay::handle_recognized(const CircuitPtr& circ, const RelayCellView& rc,
                              util::Buf wire) {
  switch (rc.command) {
    case RelayCommand::kExtend2:
      handle_extend2(circ, rc);
      break;
    case RelayCommand::kBegin:
      handle_begin(circ, rc);
      break;
    case RelayCommand::kData:
      handle_stream_data(circ, rc, std::move(wire));
      break;
    case RelayCommand::kSendmeStream:
    case RelayCommand::kSendmeCircuit:
      handle_sendme(circ, rc);
      break;
    case RelayCommand::kEnd:
      handle_end(circ, rc);
      break;
    default:
      break;
  }
}

void Relay::handle_extend2(const CircuitPtr& circ, const RelayCellView& rc) {
  auto ext = Extend2::decode(rc.data);
  if (!ext || circ->next) {
    destroy_circuit(circ, true);
    return;
  }
  if (ext->target_relay >= consensus_->relays.size()) {
    destroy_circuit(circ, true);
    return;
  }
  const RelayDescriptor& target = consensus_->at(ext->target_relay);

  auto self = shared_from_this();
  // simlint: allow(hot-path-copy) -- handshake body outlives the wire cell
  util::Bytes handshake = ext->handshake;
  net_->connect(
      host_, target.host, opts_.tor_service,
      [self, circ, handshake](net::Pipe pipe) {
        if (circ->destroyed) return;
        circ->next = net::wrap_pipe(std::move(pipe));
        circ->next_id = 1;  // one circuit per inter-relay link
        circ->next->set_receiver([self, circ](util::Buf wire) {
          self->on_next_message(circ, std::move(wire));
        });
        circ->next->set_close_handler(
            [self, circ] { self->destroy_circuit(circ, true); });
        util::Buf create = util::local_pool().acquire(kCellSize);
        encode_cell_into(create.span(), circ->next_id, CellCommand::kCreate2,
                         handshake);
        circ->next->send(std::move(create));
      },
      [self, circ](std::string) { self->destroy_circuit(circ, true); });
}

void Relay::on_next_message(const CircuitPtr& circ, util::Buf wire) {
  if (circ->destroyed) return;
  auto cell = parse_cell(wire);
  if (!cell) return;
  ++cells_relayed_;
  TRACE_COUNT(net_->loop().recorder(), "tor/cells_relayed", 1);

  if (cell->command == CellCommand::kCreated2) {
    // CREATED2 replies are 48 bytes; the padded payload must be trimmed so
    // the EXTENDED2 body fits the relay data limit exactly.
    send_backward(circ, RelayCommand::kExtended2, 0, cell->payload.first(48));
    return;
  }
  if (cell->command == CellCommand::kDestroy) {
    destroy_circuit(circ, true);
    return;
  }
  if (cell->command == CellCommand::kRelay) {
    // Add our backward layer in place and pass the buffer toward the
    // client unchanged otherwise.
    circ->layer->process_backward(wire.span().subspan(kCellHeaderSize));
    patch_circ_id(wire.span(), circ->prev_id);
    circ->prev->send(std::move(wire));
  }
}

void Relay::handle_begin(const CircuitPtr& circ, const RelayCellView& rc) {
  std::string target = util::to_string(rc.data);
  StreamId sid = rc.stream_id;

  std::optional<net::HostId> dest;
  if (exit_resolver_) {
    auto host_port = util::split(target, ':');
    dest = exit_resolver_(host_port.empty() ? target : host_port[0]);
  }
  if (!dest) {
    send_backward(circ, RelayCommand::kEnd, sid,
                  util::to_bytes("resolve-failed"));
    return;
  }

  auto self = shared_from_this();
  net_->connect(
      host_, *dest, opts_.exit_service,
      [self, circ, sid](net::Pipe pipe) {
        if (circ->destroyed) return;
        ExitStream& st = circ->streams[sid];
        st.channel = net::wrap_pipe(std::move(pipe));
        st.connected = true;
        st.channel->set_receiver([self, circ, sid](util::Buf data) {
          auto it = circ->streams.find(sid);
          if (it == circ->streams.end()) return;
          it->second.buffer.insert(it->second.buffer.end(), data.begin(),
                                   data.end());
          self->pump_streams(circ);
        });
        st.channel->set_close_handler([self, circ, sid] {
          auto it = circ->streams.find(sid);
          if (it == circ->streams.end()) return;
          it->second.remote_closed = true;
          self->pump_streams(circ);
        });
        self->send_backward(circ, RelayCommand::kConnected, sid);
      },
      [self, circ, sid](std::string) {
        self->send_backward(circ, RelayCommand::kEnd, sid,
                            util::to_bytes("connect-refused"));
      });
}

void Relay::handle_stream_data(const CircuitPtr& circ, const RelayCellView& rc,
                               util::Buf wire) {
  auto it = circ->streams.find(rc.stream_id);
  if (it == circ->streams.end() || !it->second.connected) return;
  // Zero-copy delivery: shrink the wire buffer's window to the DATA bytes
  // and hand the same storage to the destination channel.
  std::size_t len = rc.data.size();
  wire.drop_front(kCellHeaderSize + kRelayHeaderSize);
  wire.resize(len);
  it->second.channel->send(std::move(wire));
}

void Relay::handle_sendme(const CircuitPtr& circ, const RelayCellView& rc) {
  if (rc.command == RelayCommand::kSendmeCircuit) {
    circ->circuit_package_window += kCircuitSendmeIncrement;
  } else {
    auto it = circ->streams.find(rc.stream_id);
    if (it != circ->streams.end())
      it->second.package_window += kStreamSendmeIncrement;
  }
  pump_streams(circ);
}

void Relay::handle_end(const CircuitPtr& circ, const RelayCellView& rc) {
  auto it = circ->streams.find(rc.stream_id);
  if (it == circ->streams.end()) return;
  if (it->second.channel) it->second.channel->close();
  circ->streams.erase(it);
}

void Relay::send_backward(const CircuitPtr& circ, RelayCommand command,
                          StreamId stream_id, util::BytesView data) {
  if (circ->destroyed) return;
  TRACE_INSTANT_ARGS(net_->loop().recorder(), trace::kCells, "cell_bwd",
                     {{"relay", std::to_string(index_)}});
  // Encode straight into a pooled wire buffer: cell header, relay cell
  // with a zero digest, then digest + onion layer patched in place.
  util::Buf wire = util::local_pool().acquire(kCellSize);
  encode_cell_into(wire.span(), circ->prev_id, CellCommand::kRelay, {});
  auto payload = wire.span().subspan(kCellHeaderSize);
  encode_relay_cell_into(payload, command, stream_id, 0, data);
  std::uint32_t digest = circ->layer->commit_backward_digest(
      util::BytesView(payload.data(), payload.size()));
  patch_relay_digest(payload, digest);
  circ->layer->process_backward(payload);
  circ->prev->send(std::move(wire));
}

void Relay::pump_streams(const CircuitPtr& circ) {
  if (circ->destroyed) return;
  for (auto& [sid, st] : circ->streams) {
    while (!st.buffer.empty() && st.package_window > 0 &&
           circ->circuit_package_window > 0) {
      std::size_t n = std::min<std::size_t>(st.buffer.size(), kRelayDataMax);
      package_scratch_.assign(st.buffer.begin(),
                              st.buffer.begin() + static_cast<long>(n));
      st.buffer.erase(st.buffer.begin(), st.buffer.begin() + static_cast<long>(n));
      --st.package_window;
      --circ->circuit_package_window;
      send_backward(circ, RelayCommand::kData, sid, package_scratch_);
    }
    if (!st.buffer.empty() &&
        (st.package_window <= 0 || circ->circuit_package_window <= 0)) {
      // Exit-side queueing: data waiting on SENDME credit is where the
      // per-hop queue time accrues (visible as gaps between cell_bwd).
      TRACE_INSTANT_ARGS(net_->loop().recorder(), trace::kCells,
                         "exit_queue_stall",
                         {{"relay", std::to_string(index_)},
                          {"buffered", std::to_string(st.buffer.size())}});
    }
    if (st.remote_closed && st.buffer.empty() && !st.end_sent) {
      st.end_sent = true;
      send_backward(circ, RelayCommand::kEnd, sid);
    }
  }
}

void Relay::destroy_circuit(const CircuitPtr& circ, bool notify_client) {
  if (circ->destroyed) return;
  circ->destroyed = true;
  if (notify_client && circ->prev) {
    // Bypass the destroyed flag we just set: build + send manually.
    circ->destroyed = false;
    send_backward(circ, RelayCommand::kTruncated, 0);
    circ->destroyed = true;
  }
  if (circ->next) circ->next->close();
  for (auto& [sid, st] : circ->streams) {
    if (st.channel) st.channel->close();
  }
  circ->streams.clear();
  // Remove from the registry.
  for (auto it = circuits_.begin(); it != circuits_.end();) {
    if (it->second == circ) {
      it = circuits_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace ptperf::tor
