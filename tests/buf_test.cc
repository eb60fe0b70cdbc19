// Property tests for the zero-copy buffer layer (src/util/buf.h): pool
// reuse without aliasing and the move-only handoff.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "util/buf.h"
#include "util/bytes.h"

namespace ptperf::util {
namespace {

// Deterministic byte pattern; keyed so distinct buffers get distinct fills.
void fill_pattern(std::span<std::uint8_t> s, std::uint8_t key) {
  for (std::size_t i = 0; i < s.size(); ++i)
    s[i] = static_cast<std::uint8_t>(key + i * 13);
}

bool has_pattern(BytesView s, std::uint8_t key) {
  for (std::size_t i = 0; i < s.size(); ++i)
    if (s[i] != static_cast<std::uint8_t>(key + i * 13)) return false;
  return true;
}

TEST(BufPool, LeasesAreDisjointWhileLive) {
  BufPool pool(64);
  std::vector<Buf> live;
  for (int i = 0; i < 200; ++i) {
    Buf b = pool.acquire(64);
    fill_pattern(b.span(), static_cast<std::uint8_t>(i));
    live.push_back(std::move(b));
  }
  ASSERT_EQ(pool.in_use(), 200u);
  // Every buffer still holds its own pattern: no two live leases alias.
  for (int i = 0; i < 200; ++i)
    EXPECT_TRUE(has_pattern(live[i].view(), static_cast<std::uint8_t>(i)))
        << "lease " << i << " was clobbered by another lease";
}

TEST(BufPool, ReleaseThenReacquireReusesSlotWithFreshSerial) {
  BufPool pool(128);
  std::uint8_t* slot_base = nullptr;
  std::uint64_t first_serial = 0;
  {
    Buf a = pool.acquire(100);
    slot_base = a.data();
    first_serial = a.serial();
    fill_pattern(a.span(), 0x5A);
  }
  EXPECT_EQ(pool.in_use(), 0u);
  // LIFO free list: the hot slot comes straight back...
  Buf b = pool.acquire(100);
  EXPECT_EQ(b.data(), slot_base);
  // ...but under a new lease identity, so stale references are detectable.
  EXPECT_GT(b.serial(), first_serial);
  EXPECT_EQ(pool.total_acquired(), 2u);
}

TEST(BufPool, OccupancyBitmapTracksEveryLease) {
  BufPool pool(32);
  Buf a = pool.acquire(32);
  Buf b = pool.acquire(32);
  // Bitmap agrees with the lease set, before and after each release.
  EXPECT_TRUE(pool.slot_in_use(0));
  EXPECT_TRUE(pool.slot_in_use(1));
  EXPECT_FALSE(pool.slot_in_use(2));
  a = Buf();  // release slot 0
  EXPECT_FALSE(pool.slot_in_use(0));
  EXPECT_TRUE(pool.slot_in_use(1));
  EXPECT_EQ(pool.in_use(), 1u);
  EXPECT_FALSE(pool.slot_in_use(BufPool::kSlotsPerSlab * 8));  // off the end
}

TEST(BufPool, OversizeRequestFallsBackToOwnedHeap) {
  BufPool pool(64);
  Buf big = pool.acquire(65);
  EXPECT_EQ(big.pool(), nullptr);
  EXPECT_EQ(big.size(), 65u);
  EXPECT_EQ(pool.fallbacks(), 1u);
  EXPECT_EQ(pool.in_use(), 0u);  // no slot consumed
  fill_pattern(big.span(), 0x21);
  EXPECT_TRUE(has_pattern(big.view(), 0x21));
}

TEST(BufPool, GrowsSlabBySlabUnderPressure) {
  BufPool pool(16);
  std::vector<Buf> live;
  for (std::size_t i = 0; i < BufPool::kSlotsPerSlab + 1; ++i)
    live.push_back(pool.acquire(16));
  EXPECT_EQ(pool.slabs(), 2u);
  EXPECT_EQ(pool.high_water(), BufPool::kSlotsPerSlab + 1);
  live.clear();
  EXPECT_EQ(pool.in_use(), 0u);
  EXPECT_EQ(pool.slabs(), 2u);  // slabs are retained for reuse
}

TEST(Buf, MoveHandoffTransfersTheLease) {
  BufPool pool(256);
  Buf a = pool.acquire(10);
  fill_pattern(a.span(), 7);
  std::uint64_t serial = a.serial();

  Buf b = std::move(a);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move): moved-from probe
  EXPECT_EQ(a.serial(), 0u);
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(b.serial(), serial);
  EXPECT_TRUE(has_pattern(b.view(), 7));
  EXPECT_EQ(pool.in_use(), 1u);  // exactly one lease throughout

  b = Buf();
  EXPECT_EQ(pool.in_use(), 0u);
}

TEST(Buf, DropFrontAndResizeKeepTheWindowInsideStorage) {
  Buf b{Bytes{0, 1, 2, 3, 4, 5, 6, 7}};
  b.drop_front(3);
  EXPECT_EQ(b.size(), 5u);
  EXPECT_EQ(b[0], 3);
  b.resize(2);
  EXPECT_EQ(b.size(), 2u);
  b.resize(5);  // regrow within capacity() — bytes 3..7 still there
  EXPECT_EQ(b[4], 7);
  EXPECT_THROW(b.resize(6), ShortRead);
  EXPECT_THROW(b.drop_front(6), ShortRead);
}

TEST(Buf, TakeBytesMovesWhenWindowIntactCopiesOtherwise) {
  Bytes src{10, 11, 12, 13};
  const std::uint8_t* storage = src.data();
  Buf intact{std::move(src)};
  Bytes out = std::move(intact).take_bytes();
  EXPECT_EQ(out.data(), storage);  // moved, not copied

  Buf shrunk{Bytes{10, 11, 12, 13}};
  shrunk.drop_front(1);
  Bytes tail = std::move(shrunk).take_bytes();
  EXPECT_EQ(tail, (Bytes{11, 12, 13}));  // window changed → copy of the window
}

}  // namespace
}  // namespace ptperf::util
