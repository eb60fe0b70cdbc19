#include "crypto/chacha20.h"

#include <stdexcept>

#include "crypto/chacha20_kernels.h"

namespace ptperf::crypto {
namespace {

inline std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

inline void store_le32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

// The 20 rounds, written once for the scalar reference block and every
// batch width (Word = std::uint32_t, or a lane vector below). Operands go
// by reference: returning a wide vector by value changes the ABI outside
// an AVX target, which GCC warns about (-Wpsabi).
template <typename Word>
inline void rotl(Word& v, int n) {
  v = (v << n) | (v >> (32 - n));
}

template <typename Word>
inline void quarter_round(Word& a, Word& b, Word& c, Word& d) {
  a += b; d ^= a; rotl(d, 16);
  c += d; b ^= c; rotl(b, 12);
  a += b; d ^= a; rotl(d, 8);
  c += d; b ^= c; rotl(b, 7);
}

template <typename Word>
void double_rounds(Word (&x)[16]) {
  for (int i = 0; i < 10; ++i) {
    quarter_round(x[0], x[4], x[8], x[12]);
    quarter_round(x[1], x[5], x[9], x[13]);
    quarter_round(x[2], x[6], x[10], x[14]);
    quarter_round(x[3], x[7], x[11], x[15]);
    quarter_round(x[0], x[5], x[10], x[15]);
    quarter_round(x[1], x[6], x[11], x[12]);
    quarter_round(x[2], x[7], x[8], x[13]);
    quarter_round(x[3], x[4], x[9], x[14]);
  }
}

// Scalar RFC 8439 block function: one block for the counter in in[12].
void chacha_block(const std::array<std::uint32_t, 16>& in,
                  std::array<std::uint8_t, 64>& out) {
  std::uint32_t x[16];
  for (int i = 0; i < 16; ++i) x[i] = in[i];
  double_rounds(x);
  for (int i = 0; i < 16; ++i) store_le32(out.data() + i * 4, x[i] + in[i]);
}

// Consecutive blocks, one per lane: lane b of x[i] is word i of block
// in[12] + b. The GCC/Clang vector extension lowers a lane vector to the
// SIMD of the function it is compiled into (SSE2 or NEON at baseline), so
// the kernels need no intrinsics header, only a target attribute.
typedef std::uint32_t U32x4 __attribute__((vector_size(16)));
typedef std::uint32_t U32x8 __attribute__((vector_size(32)));
typedef std::uint32_t U32x16 __attribute__((vector_size(64)));

template <typename Lanes>
inline void chacha_blocks(const std::array<std::uint32_t, 16>& in,
                          std::uint8_t* out) {
  constexpr int kLanes = sizeof(Lanes) / sizeof(std::uint32_t);
  Lanes lanes[16];
  for (int i = 0; i < 16; ++i) lanes[i] = Lanes{} + in[i];
  // Each lane's counter wraps on its own.
  for (int b = 0; b < kLanes; ++b) lanes[12][b] += b;
  Lanes x[16];
  for (int i = 0; i < 16; ++i) x[i] = lanes[i];
  double_rounds(x);
  for (int i = 0; i < 16; ++i) x[i] += lanes[i];
  for (int b = 0; b < kLanes; ++b)
    for (int i = 0; i < 16; ++i) store_le32(out + b * 64 + i * 4, x[i][b]);
}

#if defined(__x86_64__)
// flatten inlines the rounds into each target function: an out-of-line
// double_rounds<U32x16> would be compiled for baseline SSE2.
__attribute__((target("avx2"), flatten)) void blocks_avx2(
    const std::array<std::uint32_t, 16>& in, std::uint8_t* out) {
  chacha_blocks<U32x8>(in, out);
}

__attribute__((target("avx512f"), flatten)) void blocks_avx512(
    const std::array<std::uint32_t, 16>& in, std::uint8_t* out) {
  chacha_blocks<U32x16>(in, out);
}
#endif

constexpr detail::ChaCha20Kernel kKernels[] = {
    {"portable", 4, chacha_blocks<U32x4>},
#if defined(__x86_64__)
    {"avx2", 8, blocks_avx2},
    {"avx512", 16, blocks_avx512},
#endif
};

// Every ChaCha20 generates its keystream with the last kernel the host
// can run.
const detail::ChaCha20Kernel& active_kernel() {
  return detail::chacha20_kernels().back();
}

}  // namespace

namespace detail {

std::span<const ChaCha20Kernel> chacha20_kernels() {
  static const std::size_t count = [] {
    std::size_t n = 1;
#if defined(__x86_64__)
    // A ChaCha20 may first run from a static initializer, before the
    // runtime has probed the CPU on its own.
    __builtin_cpu_init();
    // Each entry of kKernels needs the CPU features of the one before it.
    if (__builtin_cpu_supports("avx2")) {
      n = 2;
      if (__builtin_cpu_supports("avx512f")) n = 3;
    }
#endif
    return n;
  }();
  return {kKernels, count};
}

}  // namespace detail

const char* ChaCha20::kernel() { return active_kernel().name; }

ChaCha20::ChaCha20(util::BytesView key, util::BytesView nonce,
                   std::uint32_t initial_counter) {
  if (key.size() != kKeySize) throw std::invalid_argument("chacha20: key size");
  if (nonce.size() != kNonceSize)
    throw std::invalid_argument("chacha20: nonce size");
  state_ = {0x61707865, 0x3320646e, 0x79622d32, 0x6b206574};
  for (int i = 0; i < 8; ++i) state_[4 + i] = load_le32(key.data() + i * 4);
  state_[12] = initial_counter;
  for (int i = 0; i < 3; ++i) state_[13 + i] = load_le32(nonce.data() + i * 4);
}

void ChaCha20::refill() {
  const detail::ChaCha20Kernel& kernel = active_kernel();
  kernel.generate(state_, keystream_.data());
  state_[12] += static_cast<std::uint32_t>(kernel.blocks);
  keystream_pos_ = 0;
  keystream_len_ = kernel.blocks * 64;
}

void ChaCha20::process(std::uint8_t* data, std::size_t len) {
  // XOR in runs against the buffered keystream batch, eight bytes per
  // operation: the onion data path XORs every relay cell three times per
  // direction, so this loop bounds circuit throughput.
  std::size_t i = 0;
  while (i < len) {
    if (keystream_pos_ == keystream_len_) refill();
    std::size_t run = len - i;
    if (run > keystream_len_ - keystream_pos_)
      run = keystream_len_ - keystream_pos_;
    const std::uint8_t* ks = keystream_.data() + keystream_pos_;
    std::size_t w = 0;
    for (; w + 8 <= run; w += 8) {
      std::uint64_t d, k;
      std::memcpy(&d, data + i + w, 8);
      std::memcpy(&k, ks + w, 8);
      d ^= k;
      std::memcpy(data + i + w, &d, 8);
    }
    for (; w < run; ++w) data[i + w] ^= ks[w];
    i += run;
    keystream_pos_ += run;
  }
}

std::array<std::uint8_t, 64> ChaCha20::block(util::BytesView key,
                                             util::BytesView nonce,
                                             std::uint32_t counter) {
  ChaCha20 c(key, nonce, counter);
  std::array<std::uint8_t, 64> out{};
  chacha_block(c.state_, out);
  return out;
}

}  // namespace ptperf::crypto
