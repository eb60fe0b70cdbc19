// FIPS 180-4 SHA-256, incremental interface. Used for relay fingerprints,
// ntor key derivation, HMAC, and PT handshake MACs.
#pragma once

#include <array>
#include <cstdint>

#include "util/bytes.h"

namespace ptperf::crypto {

class Sha256 {
 public:
  static constexpr std::size_t kDigestSize = 32;
  static constexpr std::size_t kBlockSize = 64;

  Sha256() { reset(); }

  void reset();
  void update(util::BytesView data);
  std::array<std::uint8_t, kDigestSize> finalize();

  /// One-shot convenience.
  static std::array<std::uint8_t, kDigestSize> digest(util::BytesView data);

  /// Name of the compress kernel this host runs: "sha-ni" on x86-64 with
  /// SHA extensions, "portable" everywhere else. Digests are identical.
  static const char* kernel();

 private:
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, kBlockSize> buffer_;
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
};

}  // namespace ptperf::crypto
