#include "util/framer.h"

namespace ptperf::util {

Bytes frame_message(BytesView message) {
  Writer w(message.size() + 4);
  w.u32(static_cast<std::uint32_t>(message.size()));
  w.raw(message);
  return w.take();
}

void MessageFramer::feed(BytesView chunk) {
  buffer_.append(chunk);
  while (buffer_.size() >= 4) {
    BytesView header = buffer_.front(4);
    std::uint32_t len = static_cast<std::uint32_t>(header[0]) << 24 |
                        static_cast<std::uint32_t>(header[1]) << 16 |
                        static_cast<std::uint32_t>(header[2]) << 8 |
                        header[3];
    if (buffer_.size() < 4 + static_cast<std::size_t>(len)) return;
    BytesView frame = buffer_.front(4 + static_cast<std::size_t>(len));
    Bytes message(frame.begin() + 4, frame.end());
    buffer_.consume(frame.size());
    on_message_(std::move(message));
  }
}

}  // namespace ptperf::util
