#include "crypto/aead.h"

#include <stdexcept>

#include "crypto/chacha20.h"
#include "crypto/poly1305.h"

namespace ptperf::crypto {
namespace {

/// The Poly1305 one-time key: the first 32 bytes of keystream block 0 of
/// a stream that starts at counter 0. Consumes all of block 0, leaving the
/// stream at block 1, where RFC 8439 §2.8 starts the encryption.
std::array<std::uint8_t, Poly1305::kKeySize> take_poly1305_key(
    ChaCha20& stream) {
  std::array<std::uint8_t, 64> block0{};
  stream.process(block0.data(), block0.size());
  std::array<std::uint8_t, Poly1305::kKeySize> key{};
  std::memcpy(key.data(), block0.data(), key.size());
  return key;
}

std::array<std::uint8_t, Poly1305::kTagSize> poly1305_aead_tag(
    util::BytesView otk, util::BytesView aad, util::BytesView ciphertext) {
  Poly1305 mac(otk);
  auto pad16 = [&mac](std::size_t len) {
    static const std::uint8_t zeros[16] = {0};
    if (len % 16 != 0) mac.update(util::BytesView(zeros, 16 - len % 16));
  };
  mac.update(aad);
  pad16(aad.size());
  mac.update(ciphertext);
  pad16(ciphertext.size());
  // Lengths are little-endian per RFC 8439.
  std::uint8_t lengths[16];
  auto le64 = [&lengths](int at, std::uint64_t v) {
    for (int i = 0; i < 8; ++i)
      lengths[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  };
  le64(0, aad.size());
  le64(8, ciphertext.size());
  mac.update(util::BytesView(lengths, 16));
  return mac.finalize();
}

}  // namespace

ChaCha20Poly1305::ChaCha20Poly1305(util::BytesView key)
    : key_(key.begin(), key.end()) {
  if (key_.size() != kKeySize)
    throw std::invalid_argument("chacha20poly1305: key size");
}

void ChaCha20Poly1305::seal_in_place(util::BytesView nonce,
                                     std::span<std::uint8_t> buf,
                                     std::size_t plaintext_len,
                                     util::BytesView aad) const {
  if (buf.size() < plaintext_len + kTagSize)
    throw std::invalid_argument("chacha20poly1305: seal buffer too small");
  ChaCha20 stream(key_, nonce, 0);
  auto otk = take_poly1305_key(stream);
  stream.process(buf.data(), plaintext_len);
  auto tag =
      poly1305_aead_tag(otk, aad, util::BytesView(buf.data(), plaintext_len));
  std::memcpy(buf.data() + plaintext_len, tag.data(), kTagSize);
}

std::optional<std::size_t> ChaCha20Poly1305::open_in_place(
    util::BytesView nonce, std::span<std::uint8_t> ct_and_tag,
    util::BytesView aad) const {
  if (ct_and_tag.size() < kTagSize) return std::nullopt;
  std::size_t ct_len = ct_and_tag.size() - kTagSize;
  util::BytesView ct(ct_and_tag.data(), ct_len);
  util::BytesView tag(ct_and_tag.data() + ct_len, kTagSize);

  ChaCha20 stream(key_, nonce, 0);
  auto otk = take_poly1305_key(stream);
  auto expect = poly1305_aead_tag(otk, aad, ct);
  if (!util::ct_equal(expect, tag)) return std::nullopt;

  stream.process(ct_and_tag.data(), ct_len);
  return ct_len;
}

std::array<std::uint8_t, ChaCha20Poly1305::kNonceSize> counter_nonce_arr(
    std::uint64_t counter) {
  std::array<std::uint8_t, ChaCha20Poly1305::kNonceSize> nonce = {};
  for (int i = 0; i < 8; ++i)
    nonce[i] = static_cast<std::uint8_t>(counter >> (8 * i));
  return nonce;
}

}  // namespace ptperf::crypto
