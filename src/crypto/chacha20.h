// ChaCha20 stream cipher (RFC 8439). Used as the onion-layer cipher in the
// simulated Tor circuits and in the ChaCha20-Poly1305 AEAD for PT framings.
#pragma once

#include <array>
#include <cstdint>

#include "util/bytes.h"

namespace ptperf::crypto {

class ChaCha20 {
 public:
  static constexpr std::size_t kKeySize = 32;
  static constexpr std::size_t kNonceSize = 12;

  ChaCha20(util::BytesView key, util::BytesView nonce,
           std::uint32_t initial_counter = 0);

  /// XORs the keystream into data in place, continuing from the current
  /// stream position (so successive calls encrypt a contiguous stream).
  /// The keystream is generated 4, 8 or 16 blocks at a time, as wide as
  /// the host's kernel; the block counter wraps at 2^32 as in RFC 8439.
  void process(std::uint8_t* data, std::size_t len);

  /// Produces one 64-byte keystream block for the given counter with the
  /// scalar RFC 8439 block function: the reference that the batched
  /// keystream of process() is tested against.
  static std::array<std::uint8_t, 64> block(util::BytesView key,
                                            util::BytesView nonce,
                                            std::uint32_t counter);

  /// Name of the keystream kernel this host runs: "avx512" or "avx2" on
  /// x86-64 with those CPU features, "portable" everywhere else. The
  /// keystream is identical.
  static const char* kernel();

 private:
  static constexpr std::size_t kMaxBatchSize = 16 * 64;

  void refill();

  std::array<std::uint32_t, 16> state_;
  std::array<std::uint8_t, kMaxBatchSize> keystream_;
  std::size_t keystream_pos_ = 0;
  std::size_t keystream_len_ = 0;  // bytes the last batch filled
};

}  // namespace ptperf::crypto
