// Byte FIFO for the data path: a stream appended at the back and cut from
// the front (segmenter and chopper outboxes, dnstt/meek poll queues, the
// message framer's reassembly buffer).
//
// A cut reads its bytes through a front(n) view and then consume(n)s them.
// consume() only advances a read offset. append() drops the consumed
// prefix only when the new bytes would not fit otherwise and the prefix is
// at least half the stored bytes, so a compaction moves no more live bytes
// than were consumed since the last one, however deep the backlog. Growth
// comes on top: when the vector regrows it copies everything it stores,
// the consumed prefix (under half) included, at the usual amortised
// doubling cost. Erasing each cut from the front of a vector instead moves
// the whole backlog once per cut.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/bytes.h"

namespace ptperf::util {

class ByteQueue {
 public:
  std::size_t size() const { return buf_.size() - head_; }
  bool empty() const { return head_ == buf_.size(); }

  void append(BytesView bytes) {
    if (buf_.size() + bytes.size() > buf_.capacity() &&
        2 * head_ >= buf_.size()) {
      buf_.erase(buf_.begin(), buf_.begin() + static_cast<long>(head_));
      head_ = 0;
    }
    buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  }

  /// The first n bytes, n <= size(). The view is valid until the next
  /// append() or consume().
  BytesView front(std::size_t n) const {
    return BytesView(buf_.data() + head_, n);
  }

  /// Drops the first n bytes, n <= size().
  void consume(std::size_t n) {
    head_ += n;
    if (head_ == buf_.size()) {
      buf_.clear();
      head_ = 0;
    }
  }

 private:
  Bytes buf_;
  std::size_t head_ = 0;  // bytes before head_ are consumed
};

}  // namespace ptperf::util
