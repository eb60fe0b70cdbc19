#include "tor/onion.h"

namespace ptperf::tor {

namespace {

/// The first four bytes, big-endian, of the digest of everything hashed
/// into `state` so far; `state` itself stays open for more input.
std::uint32_t running_digest(const crypto::Sha256& state) {
  crypto::Sha256 copy = state;
  auto d = copy.finalize();
  return static_cast<std::uint32_t>(d[0]) << 24 |
         static_cast<std::uint32_t>(d[1]) << 16 |
         static_cast<std::uint32_t>(d[2]) << 8 | d[3];
}

// Commit and check each hash the payload once: the rolling state advances
// (for a check, a copy of it, kept only on a match) and the digest is read
// from a finalized copy.
std::uint32_t commit(crypto::Sha256& state, util::BytesView payload) {
  state.update(payload);
  return running_digest(state);
}

bool check(crypto::Sha256& state, util::BytesView payload,
           std::uint32_t expected) {
  crypto::Sha256 next = state;
  next.update(payload);
  if (running_digest(next) != expected) return false;
  state = next;
  return true;
}

}  // namespace

RelayLayer::RelayLayer(const CircuitKeys& keys)
    : fwd_(keys.forward_key, keys.forward_nonce),
      bwd_(keys.backward_key, keys.backward_nonce) {
  fwd_digest_.update(keys.digest_seed);
  fwd_digest_.update(util::to_bytes("fwd"));
  bwd_digest_.update(keys.digest_seed);
  bwd_digest_.update(util::to_bytes("bwd"));
}

std::uint32_t RelayLayer::commit_forward_digest(util::BytesView payload) {
  return commit(fwd_digest_, payload);
}

std::uint32_t RelayLayer::commit_backward_digest(util::BytesView payload) {
  return commit(bwd_digest_, payload);
}

bool RelayLayer::check_forward_digest(util::BytesView payload,
                                      std::uint32_t expected) {
  return check(fwd_digest_, payload, expected);
}

bool RelayLayer::check_backward_digest(util::BytesView payload,
                                       std::uint32_t expected) {
  return check(bwd_digest_, payload, expected);
}

}  // namespace ptperf::tor
