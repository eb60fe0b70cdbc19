#include "crypto/chacha20.h"

#include <stdexcept>

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

// The 20 rounds, written once for both the scalar reference block and the
// four-lane batch (Word = std::uint32_t or U32x4 below).
template <typename Word>
inline Word rotl(Word v, int n) {
  return (v << n) | (v >> (32 - n));
}

template <typename Word>
inline void quarter_round(Word& a, Word& b, Word& c, Word& d) {
  a += b; d ^= a; d = rotl(d, 16);
  c += d; b ^= c; b = rotl(b, 12);
  a += b; d ^= a; d = rotl(d, 8);
  c += d; b ^= c; b = rotl(b, 7);
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

// Four consecutive blocks, one per lane: lane b of x[i] is word i of block
// in[12] + b. The GCC/Clang vector extension lowers to the target's
// baseline SIMD (SSE2 on x86-64, NEON on AArch64) without an intrinsics
// header, target flag or CPU dispatch.
typedef std::uint32_t U32x4 __attribute__((vector_size(16)));

void chacha_blocks4(const std::array<std::uint32_t, 16>& in,
                    std::uint8_t* out) {
  U32x4 lanes[16];
  for (int i = 0; i < 16; ++i) lanes[i] = U32x4{} + in[i];
  lanes[12] += U32x4{0, 1, 2, 3};  // each lane's counter wraps on its own
  U32x4 x[16];
  for (int i = 0; i < 16; ++i) x[i] = lanes[i];
  double_rounds(x);
  for (int i = 0; i < 16; ++i) x[i] += lanes[i];
  for (int b = 0; b < 4; ++b)
    for (int i = 0; i < 16; ++i) store_le32(out + b * 64 + i * 4, x[i][b]);
}

}  // namespace

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
  chacha_blocks4(state_, keystream_.data());
  state_[12] += 4;
  keystream_pos_ = 0;
}

void ChaCha20::process(std::uint8_t* data, std::size_t len) {
  // XOR in runs against the buffered keystream batch, eight bytes per
  // operation: the onion data path XORs every relay cell three times per
  // direction, so this loop bounds circuit throughput.
  std::size_t i = 0;
  while (i < len) {
    if (keystream_pos_ == kBatchSize) refill();
    std::size_t run = len - i;
    if (run > kBatchSize - keystream_pos_) run = kBatchSize - keystream_pos_;
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
