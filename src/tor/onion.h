// Per-hop onion layer crypto: continuing ChaCha20 streams per direction
// (encrypt and decrypt are the same XOR, kept in sync because both ends see
// the same cell sequence), plus the rolling relay-cell digest that lets a
// hop recognize cells addressed to it.
#pragma once

#include <cstdint>

#include "crypto/chacha20.h"
#include "crypto/sha256.h"
#include "tor/ntor.h"

namespace ptperf::tor {

class RelayLayer {
 public:
  explicit RelayLayer(const CircuitKeys& keys);

  /// XORs the forward-direction keystream (client -> exit) in place —
  /// usable directly on the payload region of a pooled wire buffer.
  void process_forward(std::span<std::uint8_t> payload) {
    fwd_.process(payload.data(), payload.size());
  }
  /// XORs the backward-direction keystream (exit -> client) in place.
  void process_backward(std::span<std::uint8_t> payload) {
    bwd_.process(payload.data(), payload.size());
  }

  /// Computes the digest a sender stamps into a relay cell destined for /
  /// originated at this hop, committing the payload into the rolling hash.
  /// `payload` must have the digest field zeroed.
  std::uint32_t commit_forward_digest(util::BytesView payload);
  std::uint32_t commit_backward_digest(util::BytesView payload);

  /// Verifies a received digest; commits to the rolling hash only on
  /// match (cells recognized elsewhere must not perturb this hop's state).
  bool check_forward_digest(util::BytesView payload, std::uint32_t expected);
  bool check_backward_digest(util::BytesView payload, std::uint32_t expected);

 private:
  crypto::ChaCha20 fwd_;
  crypto::ChaCha20 bwd_;
  crypto::Sha256 fwd_digest_;
  crypto::Sha256 bwd_digest_;
};

}  // namespace ptperf::tor
