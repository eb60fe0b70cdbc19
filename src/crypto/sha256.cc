#include "crypto/sha256.h"

#include <bit>
#include <cstring>

#include "crypto/sha256_kernels.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace ptperf::crypto {
namespace {

constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t rotr(std::uint32_t x, int n) { return std::rotr(x, n); }

// The scalar FIPS 180-4 rounds: the kernel every host runs, and the
// reference the hardware kernel is tested against.
void compress_portable(std::array<std::uint32_t, 8>& state,
                       const std::uint8_t* data, std::size_t blocks) {
  std::array<std::uint32_t, 8> s = state;
  for (; blocks > 0; --blocks, data += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = static_cast<std::uint32_t>(data[i * 4]) << 24 |
             static_cast<std::uint32_t>(data[i * 4 + 1]) << 16 |
             static_cast<std::uint32_t>(data[i * 4 + 2]) << 8 |
             data[i * 4 + 3];
    }
    for (int i = 16; i < 64; ++i) {
      std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    auto [a, b, c, d, e, f, g, h] = s;
    for (int i = 0; i < 64; ++i) {
      std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      std::uint32_t ch = (e & f) ^ (~e & g);
      std::uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
      std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      std::uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }
    s[0] += a;
    s[1] += b;
    s[2] += c;
    s[3] += d;
    s[4] += e;
    s[5] += f;
    s[6] += g;
    s[7] += h;
  }
  state = s;
}

#if defined(__x86_64__)
// Intel SHA extensions. sha256rnds2 runs two rounds on the state held as
// two halves, ABEF and CDGH (highest lane first), taking the two
// constant-added message words from the low half of its third operand;
// sha256msg1/msg2 extend the message schedule four words at a time.
__attribute__((target("sha,sse4.1,ssse3"))) void compress_sha_ni(
    std::array<std::uint32_t, 8>& state, const std::uint8_t* data,
    std::size_t blocks) {
  const __m128i byte_swap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  auto load = [](const void* p) {
    return _mm_loadu_si128(static_cast<const __m128i*>(p));
  };

  __m128i dcba = load(&state[0]);
  __m128i hgfe = load(&state[4]);
  __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_in = abef, cdgh_in = cdgh;
    // The last four message groups, oldest first: m0 feeds these rounds.
    __m128i m0 = _mm_shuffle_epi8(load(data), byte_swap);
    __m128i m1 = _mm_shuffle_epi8(load(data + 16), byte_swap);
    __m128i m2 = _mm_shuffle_epi8(load(data + 32), byte_swap);
    __m128i m3 = _mm_shuffle_epi8(load(data + 48), byte_swap);
    for (int group = 0; group < 16; ++group) {
      __m128i wk = _mm_add_epi32(m0, load(&kRoundConstants[group * 4]));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
      // W[t] = W[t-16] + s0(W[t-15]) + W[t-7] + s1(W[t-2]); the last
      // four groups extend the schedule past W[63] and go unused.
      __m128i next = _mm_sha256msg1_epu32(m0, m1);
      next = _mm_add_epi32(next, _mm_alignr_epi8(m3, m2, 4));
      next = _mm_sha256msg2_epu32(next, m3);
      m0 = m1;
      m1 = m2;
      m2 = m3;
      m3 = next;
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]),
                   _mm_alignr_epi8(dchg, feba, 8));
}
#endif

constexpr detail::Sha256Kernel kKernels[] = {
    {"portable", compress_portable},
#if defined(__x86_64__)
    {"sha-ni", compress_sha_ni},
#endif
};

// Every Sha256 compresses through the last kernel the host can run.
const detail::Sha256Kernel& active_kernel() {
  return detail::sha256_kernels().back();
}

}  // namespace

namespace detail {

std::span<const Sha256Kernel> sha256_kernels() {
  static const std::size_t count = [] {
#if defined(__x86_64__)
    // A Sha256 may first run from a static initializer, before the
    // runtime has probed the CPU on its own.
    __builtin_cpu_init();
    if (__builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1") &&
        __builtin_cpu_supports("ssse3"))
      return std::size(kKernels);
#endif
    return std::size_t{1};
  }();
  return {kKernels, count};
}

}  // namespace detail

const char* Sha256::kernel() { return active_kernel().name; }

void Sha256::reset() {
  state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  buffer_len_ = 0;
  total_len_ = 0;
}

void Sha256::update(util::BytesView data) {
  const auto compress = active_kernel().compress;
  total_len_ += data.size();
  const std::uint8_t* p = data.data();
  std::size_t left = data.size();
  if (buffer_len_ > 0) {
    std::size_t chunk = std::min(kBlockSize - buffer_len_, left);
    std::memcpy(buffer_.data() + buffer_len_, p, chunk);
    buffer_len_ += chunk;
    p += chunk;
    left -= chunk;
    if (buffer_len_ < kBlockSize) return;
    compress(state_, buffer_.data(), 1);
    buffer_len_ = 0;
  }
  // Every whole block in one call, so a kernel keeps the state in
  // registers across a relay payload's eight blocks.
  if (left >= kBlockSize) {
    compress(state_, p, left / kBlockSize);
    p += left / kBlockSize * kBlockSize;
    left %= kBlockSize;
  }
  if (left > 0) {
    std::memcpy(buffer_.data(), p, left);
    buffer_len_ = left;
  }
}

std::array<std::uint8_t, Sha256::kDigestSize> Sha256::finalize() {
  std::uint64_t bit_len = total_len_ * 8;
  std::uint8_t pad[kBlockSize * 2] = {0x80};
  // Pad to 56 mod 64, then the 64-bit big-endian length.
  std::size_t pad_len =
      (buffer_len_ < 56) ? 56 - buffer_len_ : 120 - buffer_len_;
  update(util::BytesView(pad, pad_len));
  std::uint8_t len_bytes[8];
  for (int i = 0; i < 8; ++i)
    len_bytes[i] = static_cast<std::uint8_t>(bit_len >> (56 - i * 8));
  update(util::BytesView(len_bytes, 8));

  std::array<std::uint8_t, kDigestSize> out;
  for (int i = 0; i < 8; ++i) {
    out[i * 4] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[i * 4 + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[i * 4 + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[i * 4 + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

std::array<std::uint8_t, Sha256::kDigestSize> Sha256::digest(
    util::BytesView data) {
  Sha256 h;
  h.update(data);
  return h.finalize();
}

}  // namespace ptperf::crypto
