#include "util/buf.h"

#include <bit>

namespace ptperf::util {

void Buf::release() {
  if (pool_ != nullptr) {
    pool_->release_slot(slot_);
    pool_ = nullptr;
  }
  base_ = nullptr;
  off_ = len_ = cap_ = 0;
  serial_ = 0;
  vec_.clear();
}

Buf Buf::copy_of(BytesView data, BufPool& pool) {
  Buf b = pool.acquire(data.size());
  if (!data.empty()) std::memcpy(b.data(), data.data(), data.size());
  return b;
}

Buf BufPool::acquire(std::size_t size) {
  std::uint64_t serial = next_serial_++;
  if (size > slot_size_) {
    // Oversized request: owned fallback behind the same interface.
    ++fallbacks_;
    Buf b{Bytes(size)};
    b.serial_ = serial;
    return b;
  }
  if (free_.empty()) {
    // Grow by one slab; push its slots so the lowest index comes off the
    // free list first (deterministic first-fit order, like a bitmap scan).
    Slab slab;
    slab.data = std::make_unique<std::uint8_t[]>(slot_size_ * kSlotsPerSlab);
    auto base = static_cast<std::uint32_t>((slabs_.size()) * kSlotsPerSlab);
    slabs_.push_back(std::move(slab));
    for (std::size_t i = kSlotsPerSlab; i-- > 0;)
      free_.push_back(base + static_cast<std::uint32_t>(i));
  }
  std::uint32_t slot = free_.back();
  free_.pop_back();
  Slab& slab = slabs_[slot / kSlotsPerSlab];
  std::uint64_t bit = std::uint64_t{1} << (slot % kSlotsPerSlab);
  slab.used |= bit;
  ++in_use_;
  if (in_use_ > high_water_) high_water_ = in_use_;
  std::uint8_t* base = slab.data.get() + (slot % kSlotsPerSlab) * slot_size_;
  return Buf(this, base, slot, static_cast<std::uint32_t>(size),
             static_cast<std::uint32_t>(slot_size_), serial);
}

bool BufPool::slot_in_use(std::uint32_t slot) const {
  std::size_t slab = slot / kSlotsPerSlab;
  if (slab >= slabs_.size()) return false;
  return (slabs_[slab].used >> (slot % kSlotsPerSlab)) & 1;
}

void BufPool::release_slot(std::uint32_t slot) {
  Slab& slab = slabs_[slot / kSlotsPerSlab];
  std::uint64_t bit = std::uint64_t{1} << (slot % kSlotsPerSlab);
  // Double release would hand one slot to two leases (aliasing); the
  // bitmap is the source of truth, so treat it as fatal in tests.
  if ((slab.used & bit) == 0) std::abort();
  slab.used &= ~bit;
  --in_use_;
  free_.push_back(slot);
}

BufPool& local_pool() {
  thread_local BufPool pool;
  return pool;
}

}  // namespace ptperf::util
