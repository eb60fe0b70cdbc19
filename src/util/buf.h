// Zero-copy buffer primitives for the cell pipeline.
//
//   Buf      a fixed-capacity, move-only byte buffer. Either a slot leased
//            from a BufPool or an adopted util::Bytes (how cold call sites
//            hand over what a Writer built). The data window can shrink
//            (resize) and advance (drop_front) without touching the
//            underlying storage, so a received wire cell can be stripped
//            of headers and handed on without a single copy.
//
//   BufPool  a slab allocator of fixed-size slots with a per-slab
//            occupancy bitmap and a LIFO free list (the bitmap-slot
//            packet-metadata design of classic packet transports). Slot
//            acquisition order is a pure function of the acquire/release
//            sequence, and each lease carries a deterministic serial, so
//            pooled buffers never perturb replay determinism. Requests
//            larger than the slot size fall back to an owned heap buffer
//            behind the same Buf interface.
//
// Ownership discipline (see docs/PERFORMANCE.md): buffers flow DOWN the
// stack by move (`Channel::send(Buf)` consumes), views flow UP as
// BytesView. A pool must outlive every Buf leased from it; the
// thread-local `local_pool()` satisfies this for all simulation worlds,
// which are single-threaded by contract (each world runs entirely on one
// shard thread, so a lease is always released on the thread that took it).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "util/bytes.h"

namespace ptperf::util {

class BufPool;

class Buf {
 public:
  Buf() = default;

  /// Adopts an owned byte vector without copying. Intentionally implicit:
  /// `ch->send(writer.take())` and `ch->send(std::move(bytes))` stay valid
  /// while passing an lvalue Bytes (a hidden copy) fails to compile.
  Buf(Bytes&& owned)  // NOLINT(google-explicit-constructor)
      : len_(owned.size()), cap_(owned.size()), vec_(std::move(owned)) {
    base_ = vec_.data();
  }

  Buf(const Buf&) = delete;
  Buf& operator=(const Buf&) = delete;
  Buf(Buf&& other) noexcept { move_from(other); }
  Buf& operator=(Buf&& other) noexcept {
    if (this != &other) {
      release();
      move_from(other);
    }
    return *this;
  }
  ~Buf() { release(); }

  /// Pooled deep copy when it fits the pool's slot size.
  static Buf copy_of(BytesView data, BufPool& pool);

  bool valid() const { return base_ != nullptr; }
  std::size_t size() const { return len_; }
  bool empty() const { return len_ == 0; }
  std::uint8_t* data() { return base_ + off_; }
  const std::uint8_t* data() const { return base_ + off_; }
  std::uint8_t* begin() { return data(); }
  std::uint8_t* end() { return data() + len_; }
  const std::uint8_t* begin() const { return data(); }
  const std::uint8_t* end() const { return data() + len_; }
  std::uint8_t& operator[](std::size_t i) { return data()[i]; }
  const std::uint8_t& operator[](std::size_t i) const { return data()[i]; }

  /// Bytes available from the current window start to the end of storage.
  std::size_t capacity() const { return cap_ - off_; }

  /// Grows or shrinks the data window within capacity(). Grown bytes are
  /// NOT initialized — encode-into writers fill every byte they claim.
  void resize(std::size_t n) {
    if (n > capacity()) throw ShortRead(n, capacity());
    len_ = static_cast<std::uint32_t>(n);
  }

  /// Advances the window start (header stripping without a copy).
  void drop_front(std::size_t n) {
    if (n > len_) throw ShortRead(n, len_);
    off_ += static_cast<std::uint32_t>(n);
    len_ -= static_cast<std::uint32_t>(n);
  }

  std::span<std::uint8_t> span() { return {data(), len_}; }
  BytesView view() const { return {data(), len_}; }
  operator BytesView() const { return view(); }  // NOLINT

  /// Copies the window out into an owned vector (boundary to cold code).
  Bytes to_bytes() const { return Bytes(begin(), end()); }

  /// Moves the storage out when this Buf adopted a vector and the window
  /// still covers it exactly; copies otherwise.
  Bytes take_bytes() && {
    if (pool_ == nullptr && off_ == 0 && len_ == vec_.size() &&
        !vec_.empty()) {
      Bytes out = std::move(vec_);
      base_ = nullptr;
      off_ = len_ = cap_ = 0;
      return out;
    }
    return to_bytes();
  }

  /// Lease serial assigned by the pool (0 for adopted/owned buffers).
  /// Serials increase in acquisition order — a deterministic identity for
  /// tests and diagnostics where a pointer would depend on layout.
  std::uint64_t serial() const { return serial_; }

  /// Pool this buffer is leased from, or nullptr.
  const BufPool* pool() const { return pool_; }

 private:
  friend class BufPool;
  Buf(BufPool* pool, std::uint8_t* base, std::uint32_t slot,
      std::uint32_t len, std::uint32_t cap, std::uint64_t serial)
      : pool_(pool),
        base_(base),
        slot_(slot),
        len_(len),
        cap_(cap),
        serial_(serial) {}

  void move_from(Buf& other) {
    pool_ = other.pool_;
    base_ = other.base_;
    slot_ = other.slot_;
    off_ = other.off_;
    len_ = other.len_;
    cap_ = other.cap_;
    serial_ = other.serial_;
    vec_ = std::move(other.vec_);
    if (pool_ == nullptr) base_ = vec_.empty() ? nullptr : vec_.data();
    other.pool_ = nullptr;
    other.base_ = nullptr;
    other.off_ = other.len_ = other.cap_ = 0;
    other.serial_ = 0;
  }

  void release();

  BufPool* pool_ = nullptr;      // null: storage is vec_ (or empty)
  std::uint8_t* base_ = nullptr;
  std::uint32_t slot_ = 0;       // global slot index within pool_
  std::uint32_t off_ = 0;        // window start relative to base_
  std::uint32_t len_ = 0;        // window length
  std::uint32_t cap_ = 0;        // total storage length
  std::uint64_t serial_ = 0;
  Bytes vec_;                    // owned storage when pool_ == nullptr
};

class BufPool {
 public:
  /// Slot size covers a full Tor cell plus AEAD framing with headroom;
  /// larger requests transparently fall back to owned heap buffers.
  static constexpr std::size_t kDefaultSlotSize = 2048;
  static constexpr std::size_t kSlotsPerSlab = 64;  // one occupancy word

  explicit BufPool(std::size_t slot_size = kDefaultSlotSize)
      : slot_size_(slot_size) {}
  BufPool(const BufPool&) = delete;
  BufPool& operator=(const BufPool&) = delete;

  /// Leases a buffer of exactly `size` bytes (uninitialized). Pooled when
  /// size <= slot_size(), an owned fallback otherwise.
  Buf acquire(std::size_t size);

  std::size_t slot_size() const { return slot_size_; }
  std::size_t slabs() const { return slabs_.size(); }
  std::size_t in_use() const { return in_use_; }
  std::size_t high_water() const { return high_water_; }
  std::uint64_t total_acquired() const { return next_serial_; }
  std::uint64_t fallbacks() const { return fallbacks_; }

  /// Occupancy of one slot (tests: reuse-without-aliasing properties).
  bool slot_in_use(std::uint32_t slot) const;

 private:
  friend class Buf;

  struct Slab {
    std::unique_ptr<std::uint8_t[]> data;
    std::uint64_t used = 0;  // occupancy bitmap, bit i = slot i
  };

  void release_slot(std::uint32_t slot);

  std::size_t slot_size_;
  std::vector<Slab> slabs_;
  std::vector<std::uint32_t> free_;  // LIFO: hot slots get reused first
  std::size_t in_use_ = 0;
  std::size_t high_water_ = 0;
  std::uint64_t next_serial_ = 0;
  std::uint64_t fallbacks_ = 0;
};

/// The calling thread's default pool. Worlds are single-threaded (each
/// scenario runs wholly on one shard thread), so every lease is released
/// on the thread that took it and pools are never shared.
BufPool& local_pool();

}  // namespace ptperf::util
