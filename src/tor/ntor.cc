#include "tor/ntor.h"

#include "crypto/hmac.h"
#include "crypto/sha256.h"

namespace ptperf::tor {
namespace {

constexpr std::size_t kKeyMaterial = 32 + 32 + 12 + 12 + 16;

CircuitKeys derive_keys(util::BytesView secret, util::BytesView transcript) {
  util::Bytes okm =
      crypto::hkdf(transcript, secret, util::to_bytes("ntor-sim-v1"),
                   kKeyMaterial);
  CircuitKeys keys;
  auto it = okm.begin();
  keys.forward_key.assign(it, it + 32);
  it += 32;
  keys.backward_key.assign(it, it + 32);
  it += 32;
  keys.forward_nonce.assign(it, it + 12);
  it += 12;
  keys.backward_nonce.assign(it, it + 12);
  it += 12;
  keys.digest_seed.assign(it, it + 16);
  return keys;
}

util::Bytes transcript(const RelayIdentity& id, util::BytesView client_pub,
                       util::BytesView server_pub) {
  util::Writer w;
  w.u16(id.relay_index);
  w.raw(util::BytesView(id.onion_public.data(), id.onion_public.size()));
  w.raw(client_pub);
  w.raw(server_pub);
  return w.take();
}

/// The shared secret in kFastSim mode: both sides can compute it from
/// public values, standing in for the DH output.
util::Bytes fast_secret(const RelayIdentity& id, util::BytesView client_pub,
                        util::BytesView server_pub) {
  util::Writer w;
  w.raw(client_pub);
  w.raw(server_pub);
  w.raw(util::BytesView(id.onion_public.data(), id.onion_public.size()));
  auto digest = crypto::Sha256::digest(w.view());
  return util::Bytes(digest.begin(), digest.end());
}

}  // namespace

NtorClientState ntor_client_start(sim::Rng& rng, HandshakeMode mode) {
  NtorClientState st;
  crypto::X25519Key raw;
  rng.fill_bytes(raw.data(), raw.size());
  st.private_key = crypto::x25519_clamp(raw);
  st.mode = mode;
  if (mode == HandshakeMode::kRealDh) {
    st.public_key = crypto::x25519_base(st.private_key);
  } else {
    // Public key bytes are just the clamped private bytes hashed; nobody
    // performs DH on them in this mode.
    auto h = crypto::Sha256::digest(
        util::BytesView(st.private_key.data(), st.private_key.size()));
    std::copy(h.begin(), h.end(), st.public_key.begin());
  }
  return st;
}

util::Bytes ntor_client_message(const NtorClientState& st) {
  return util::Bytes(st.public_key.begin(), st.public_key.end());
}

std::optional<NtorServerResult> ntor_server_respond(
    util::BytesView client_message, const RelayIdentity& identity,
    const crypto::X25519Key& onion_private, sim::Rng& rng,
    HandshakeMode mode) {
  if (client_message.size() != 32) return std::nullopt;
  crypto::X25519Key client_pub;
  std::copy(client_message.begin(), client_message.end(), client_pub.begin());

  util::Bytes server_pub_bytes;
  util::Bytes secret;
  if (mode == HandshakeMode::kRealDh) {
    crypto::X25519Key raw;
    rng.fill_bytes(raw.data(), raw.size());
    crypto::X25519Key eph_priv = crypto::x25519_clamp(raw);
    crypto::X25519Key eph_pub = crypto::x25519_base(eph_priv);
    server_pub_bytes.assign(eph_pub.begin(), eph_pub.end());
    // Simplified ntor: one ephemeral-ephemeral DH plus the static key in
    // the transcript (the real protocol runs two DHs; the latency and
    // wire cost modelled here are the same).
    crypto::X25519Key shared = crypto::x25519(eph_priv, client_pub);
    secret.assign(shared.begin(), shared.end());
    (void)onion_private;
  } else {
    server_pub_bytes = rng.bytes(32);
    secret = fast_secret(identity, client_message, server_pub_bytes);
  }

  util::Bytes tr = transcript(identity, client_message, server_pub_bytes);
  NtorServerResult result;
  result.keys = derive_keys(secret, tr);
  // Reply: server pub || auth tag (HMAC over the transcript).
  util::Bytes auth = crypto::hmac_sha256(result.keys.digest_seed, tr);
  util::Writer w;
  w.raw(server_pub_bytes);
  w.raw(util::BytesView(auth.data(), 16));
  result.reply = w.take();
  return result;
}

std::optional<CircuitKeys> ntor_client_finish(const NtorClientState& st,
                                              const RelayIdentity& identity,
                                              util::BytesView reply) {
  if (reply.size() != 48) return std::nullopt;
  util::BytesView server_pub = reply.first(32);
  util::BytesView auth = reply.subspan(32, 16);

  util::Bytes secret;
  if (st.mode == HandshakeMode::kRealDh) {
    crypto::X25519Key sp;
    std::copy(server_pub.begin(), server_pub.end(), sp.begin());
    crypto::X25519Key shared = crypto::x25519(st.private_key, sp);
    secret.assign(shared.begin(), shared.end());
  } else {
    util::Bytes client_pub(st.public_key.begin(), st.public_key.end());
    secret = fast_secret(identity, client_pub, server_pub);
  }

  util::Bytes client_pub(st.public_key.begin(), st.public_key.end());
  util::Bytes tr = transcript(identity, client_pub, server_pub);
  CircuitKeys keys = derive_keys(secret, tr);
  util::Bytes expect = crypto::hmac_sha256(keys.digest_seed, tr);
  if (!util::ct_equal(util::BytesView(expect.data(), 16), auth))
    return std::nullopt;
  return keys;
}

}  // namespace ptperf::tor
