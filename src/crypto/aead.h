// ChaCha20-Poly1305 AEAD (RFC 8439 §2.8). Record protection for the
// shadowsocks / obfs4 / cloak framings in src/pt.
//
// Both entry points work in place: they encrypt or decrypt a caller-owned
// span without allocating, so a framing layer can seal a record directly
// inside a pooled wire buffer.
#pragma once

#include <array>
#include <optional>
#include <span>

#include "util/bytes.h"

namespace ptperf::crypto {

class ChaCha20Poly1305 {
 public:
  static constexpr std::size_t kKeySize = 32;
  static constexpr std::size_t kNonceSize = 12;
  static constexpr std::size_t kTagSize = 16;

  explicit ChaCha20Poly1305(util::BytesView key);

  /// Encrypts buf[0, plaintext_len) in place and writes the 16-byte tag at
  /// buf[plaintext_len, plaintext_len + kTagSize). buf must span at least
  /// plaintext_len + kTagSize bytes.
  void seal_in_place(util::BytesView nonce, std::span<std::uint8_t> buf,
                     std::size_t plaintext_len, util::BytesView aad = {}) const;

  /// Verifies the trailing tag of ct_and_tag, decrypts the ciphertext in
  /// place, and returns the plaintext length (= ct_and_tag.size() -
  /// kTagSize). On authentication failure returns nullopt and leaves the
  /// buffer untouched.
  std::optional<std::size_t> open_in_place(util::BytesView nonce,
                                           std::span<std::uint8_t> ct_and_tag,
                                           util::BytesView aad = {}) const;

 private:
  util::Bytes key_;
};

/// 96-bit little-endian counter nonce, as used by shadowsocks AEAD chunks,
/// written into a stack array.
std::array<std::uint8_t, ChaCha20Poly1305::kNonceSize> counter_nonce_arr(
    std::uint64_t counter);

}  // namespace ptperf::crypto
