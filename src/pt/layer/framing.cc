#include "pt/layer/framing.h"

#include <algorithm>

namespace ptperf::pt::layer {

// ---------------------------------------------------------------- crypto

CryptoChannel::CryptoChannel(net::ChannelPtr inner, CryptoChannelConfig config,
                             sim::Rng rng)
    : inner_(std::move(inner)),
      config_(std::move(config)),
      rng_(std::move(rng)),
      send_aead_(config_.send_key),
      recv_aead_(config_.recv_key) {}

std::shared_ptr<CryptoChannel> CryptoChannel::create(
    net::ChannelPtr inner, CryptoChannelConfig config, sim::Rng rng) {
  auto ch = std::shared_ptr<CryptoChannel>(
      new CryptoChannel(std::move(inner), std::move(config), std::move(rng)));
  ch->attach();
  return ch;
}

void CryptoChannel::attach() {
  auto self = shared_from_this();
  inner_->set_receiver([self](util::Buf wire) {
    auto nonce = crypto::counter_nonce_arr(self->recv_seq_);
    auto pt_len = self->recv_aead_.open_in_place(nonce, wire.span());
    if (!pt_len) {
      // Authentication failure: hang up and tell our consumer (the pipe's
      // close only notifies the remote peer).
      self->inner_->close();
      auto fn = self->close_handler_;
      if (fn) fn();
      return;
    }
    ++self->recv_seq_;
    if (*pt_len < 4) return;
    std::uint32_t len = static_cast<std::uint32_t>(wire[0]) << 24 |
                        static_cast<std::uint32_t>(wire[1]) << 16 |
                        static_cast<std::uint32_t>(wire[2]) << 8 | wire[3];
    if (len > *pt_len - 4) return;
    auto fn = self->receiver_;
    if (fn) {
      // Deliver the decrypted payload as a window into the same buffer.
      wire.drop_front(4);
      wire.resize(len);
      fn(std::move(wire));
    }
  });
  inner_->set_close_handler([self] {
    auto fn = self->close_handler_;
    if (fn) fn();
  });
}

void CryptoChannel::send(util::Buf payload) {
  std::size_t pad = 0;
  std::size_t body = 4 + payload.size();
  if (config_.max_random_pad > 0) {
    pad += rng_.next_below(config_.max_random_pad + 1);
  }
  if (config_.pad_block > 1) {
    std::size_t total = body + pad;
    std::size_t rem = total % config_.pad_block;
    if (rem != 0) pad += config_.pad_block - rem;
  }
  // Build the frame directly in a (pooled) buffer and seal it in place:
  // u32 length | payload | zero pad | AEAD tag.
  std::size_t frame_len = body + pad;
  util::Buf sealed = util::local_pool().acquire(
      frame_len + crypto::ChaCha20Poly1305::kTagSize);
  sealed[0] = static_cast<std::uint8_t>(payload.size() >> 24);
  sealed[1] = static_cast<std::uint8_t>(payload.size() >> 16);
  sealed[2] = static_cast<std::uint8_t>(payload.size() >> 8);
  sealed[3] = static_cast<std::uint8_t>(payload.size());
  if (!payload.empty())
    std::memcpy(sealed.data() + 4, payload.data(), payload.size());
  std::memset(sealed.data() + body, 0, pad);
  auto nonce = crypto::counter_nonce_arr(send_seq_);
  send_aead_.seal_in_place(nonce, sealed.span(), frame_len);
  if (config_.accounting)
    config_.accounting->on_frame(sealed.size(), payload.size());
  inner_->send(std::move(sealed));
  ++send_seq_;
}

void CryptoChannel::set_receiver(Receiver fn) { receiver_ = std::move(fn); }

void CryptoChannel::set_close_handler(CloseHandler fn) {
  close_handler_ = std::move(fn);
}

void CryptoChannel::close() { inner_->close(); }

sim::Duration CryptoChannel::base_rtt() const { return inner_->base_rtt(); }

// ------------------------------------------------------------- segmenting

namespace {

// Wire unit layout: u32 payload length | payload | cover bytes.
// The cover bytes cost network time (they ride in the same message) but
// carry no tunnel data; the receiver strips them via the length prefix.
util::Bytes encode_unit(util::BytesView payload, std::size_t overhead) {
  util::Writer w(4 + payload.size() + overhead);
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.raw(payload);
  w.zeros(overhead);
  return w.take();
}

}  // namespace

SegmentingChannel::SegmentingChannel(sim::EventLoop& loop,
                                     net::ChannelPtr inner,
                                     SegmentPolicy policy)
    : loop_(&loop),
      inner_(std::move(inner)),
      policy_(std::move(policy)),
      framer_([this](util::Bytes msg) {
        auto fn = receiver_;
        if (fn) fn(std::move(msg));
      }) {}

std::shared_ptr<SegmentingChannel> SegmentingChannel::create(
    sim::EventLoop& loop, net::ChannelPtr inner, SegmentPolicy policy) {
  auto ch = std::shared_ptr<SegmentingChannel>(
      new SegmentingChannel(loop, std::move(inner), std::move(policy)));
  ch->attach();
  return ch;
}

void SegmentingChannel::attach() {
  auto self = shared_from_this();
  inner_->set_receiver([self](util::Buf unit) {
    // Strip the unit header and cover, feed the payload to the reassembly
    // framer which restores original message boundaries.
    if (unit.size() < 4) return;
    util::Reader r(unit.view());
    std::uint32_t len = r.u32();
    if (len > r.remaining()) return;  // malformed unit
    self->framer_.feed(r.take(len));
  });
  inner_->set_close_handler([self] {
    self->closed_ = true;
    auto fn = self->close_handler_;
    if (fn) fn();
  });
}

void SegmentingChannel::send(util::Buf payload) {
  if (closed_) return;
  if (policy_.accounting) meter_.push(payload.size());
  // Coalesce: bytes queue as a stream and pump() cuts max_segment units,
  // so many small tunnel messages (cells) share one wire unit — the way a
  // real cover-channel encoder batches pending data.
  outbox_.append(util::frame_message(payload));
  pump();
}

void SegmentingChannel::pump() {
  if (pump_scheduled_ || closed_ || outbox_.empty()) return;

  sim::TimePoint now = loop_->now();
  sim::TimePoint when = std::max(now, next_send_);
  if (policy_.unit_delay) when += policy_.unit_delay();

  pump_scheduled_ = true;
  auto self = shared_from_this();
  loop_->schedule_at(when, [self] {
    self->pump_scheduled_ = false;
    if (self->closed_ || self->outbox_.empty()) return;
    std::size_t n = std::min(self->policy_.max_segment, self->outbox_.size());
    util::Bytes unit = encode_unit(self->outbox_.front(n),
                                   self->policy_.per_segment_overhead);
    self->outbox_.consume(n);
    if (self->policy_.accounting) {
      FramedStreamMeter::Cut cut = self->meter_.consume(n);
      self->policy_.accounting->on_frame(
          4 + n + self->policy_.per_segment_overhead, cut.payload);
    }
    self->inner_->send(std::move(unit));
    if (self->policy_.rate_units_per_sec > 0) {
      self->next_send_ =
          self->loop_->now() +
          sim::from_seconds(1.0 / self->policy_.rate_units_per_sec);
    }
    self->pump();
  });
}

void SegmentingChannel::set_receiver(Receiver fn) { receiver_ = std::move(fn); }

void SegmentingChannel::set_close_handler(CloseHandler fn) {
  close_handler_ = std::move(fn);
}

void SegmentingChannel::close() {
  if (closed_) return;
  closed_ = true;
  inner_->close();
}

sim::Duration SegmentingChannel::base_rtt() const {
  return inner_->base_rtt();
}

}  // namespace ptperf::pt::layer
