// Length-prefixed message framing over byte-stream-like transports.
// Pluggable transports chop tunnel messages into their own wire units
// (DNS queries, IM messages, HTTP bodies, steg blocks); the framer restores
// the original message boundaries at the far end.
#pragma once

#include <cstdint>
#include <functional>

#include "util/byte_queue.h"
#include "util/bytes.h"

namespace ptperf::util {

/// Prefixes a message with its u32 length.
Bytes frame_message(BytesView message);

/// Stateful reassembler: feed arbitrary byte chunks, get whole messages.
class MessageFramer {
 public:
  using MessageHandler = std::function<void(Bytes)>;

  explicit MessageFramer(MessageHandler on_message)
      : on_message_(std::move(on_message)) {}

  /// Appends bytes; fires on_message for every completed frame.
  void feed(BytesView chunk);

  /// Bytes buffered but not yet forming a complete message.
  std::size_t pending() const { return buffer_.size(); }

 private:
  MessageHandler on_message_;
  ByteQueue buffer_;
};

}  // namespace ptperf::util
