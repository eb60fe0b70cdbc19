// FramingLayer primitives: the two record/segment framers every PT's
// framing layer is built from, relocated here from the per-transport
// call sites so frame overhead is accounted once, exactly, at the point
// the frame is committed to the layer below.
//
//   CryptoChannel     per-message ChaCha20-Poly1305 sealed frames with
//                     optional length-obfuscation padding — the record
//                     layer of obfs4 (padded), shadowsocks (tight AEAD
//                     records) and psiphon's SSH tunnel.
//                     Frame plaintext: u32 payload length | payload | pad.
//                     Frame wire:      AEAD(seal) of the above (16-B tag).
//
//   SegmentingChannel adapts a message channel to a carrier whose wire
//                     units are constrained — maximum unit size (DNS
//                     responses, IM messages), per-unit cover overhead,
//                     unit rates (IM APIs) and per-unit pacing delays
//                     (marionette's automaton transitions). Outgoing
//                     messages are length-framed, chopped into units and
//                     paced; incoming units are reassembled.
//
// Both take an optional layer::AccountingPtr; when set, each committed
// frame/unit is recorded via StackAccounting::on_frame() — wire bytes,
// tunnel payload bytes and the framing overhead between them (exact to
// the byte via FramedStreamMeter for the segmented stream).
#pragma once

#include <deque>
#include <functional>
#include <memory>

#include "crypto/aead.h"
#include "net/channel.h"
#include "pt/layer/layer.h"
#include "sim/event_loop.h"
#include "sim/rng.h"
#include "util/byte_queue.h"
#include "util/framer.h"

namespace ptperf::pt::layer {

struct CryptoChannelConfig {
  util::Bytes send_key;  // 32 bytes
  util::Bytes recv_key;  // 32 bytes
  /// Pad frame plaintext length up to a multiple of this (0 = no padding).
  std::size_t pad_block = 0;
  /// Additional random padding in [0, max_random_pad] per frame (obfs4's
  /// length obfuscation).
  std::size_t max_random_pad = 0;
  /// Per-layer ledger; sealed frames are recorded as framing overhead
  /// around their payload. May be null.
  AccountingPtr accounting;
};

class CryptoChannel final : public net::Channel,
                            public std::enable_shared_from_this<CryptoChannel> {
 public:
  static std::shared_ptr<CryptoChannel> create(net::ChannelPtr inner,
                                               CryptoChannelConfig config,
                                               sim::Rng rng);

  void send(util::Buf payload) override;
  void set_receiver(Receiver fn) override;
  void set_close_handler(CloseHandler fn) override;
  void close() override;
  sim::Duration base_rtt() const override;

 private:
  CryptoChannel(net::ChannelPtr inner, CryptoChannelConfig config,
                sim::Rng rng);
  void attach();

  net::ChannelPtr inner_;
  CryptoChannelConfig config_;
  sim::Rng rng_;
  crypto::ChaCha20Poly1305 send_aead_;
  crypto::ChaCha20Poly1305 recv_aead_;
  std::uint64_t send_seq_ = 0;
  std::uint64_t recv_seq_ = 0;
  Receiver receiver_;
  CloseHandler close_handler_;
};

struct SegmentPolicy {
  /// Maximum tunnel payload bytes per wire unit.
  std::size_t max_segment = 16 * 1024;
  /// Cover/encoding bytes added to each unit (headers, steg cover, ...).
  std::size_t per_segment_overhead = 0;
  /// Units per second the medium accepts (0 = unlimited). IM APIs and
  /// polling bridges live here (the stack's RateLimitLayer knob).
  double rate_units_per_sec = 0;
  /// Optional extra delay before each unit goes out (e.g. automaton
  /// transition time). Sampled per unit.
  std::function<sim::Duration()> unit_delay;
  /// Per-layer ledger; each unit is recorded as framing overhead (header
  /// + cover) around its exact tunnel payload bytes. May be null.
  AccountingPtr accounting;
};

class SegmentingChannel final
    : public net::Channel,
      public std::enable_shared_from_this<SegmentingChannel> {
 public:
  static std::shared_ptr<SegmentingChannel> create(sim::EventLoop& loop,
                                                   net::ChannelPtr inner,
                                                   SegmentPolicy policy);

  void send(util::Buf payload) override;
  void set_receiver(Receiver fn) override;
  void set_close_handler(CloseHandler fn) override;
  void close() override;
  sim::Duration base_rtt() const override;

 private:
  SegmentingChannel(sim::EventLoop& loop, net::ChannelPtr inner,
                    SegmentPolicy policy);
  void attach();
  void pump();

  sim::EventLoop* loop_;
  net::ChannelPtr inner_;
  SegmentPolicy policy_;
  util::MessageFramer framer_;
  FramedStreamMeter meter_;
  Receiver receiver_;
  CloseHandler close_handler_;
  util::ByteQueue outbox_;  // framed stream bytes awaiting unit cutting
  sim::TimePoint next_send_{};
  bool pump_scheduled_ = false;
  bool closed_ = false;
};

}  // namespace ptperf::pt::layer
