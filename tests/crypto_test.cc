// Crypto suite against published test vectors: FIPS 180-4 (SHA-256),
// RFC 4231 (HMAC), RFC 5869 (HKDF), RFC 8439 (ChaCha20 / Poly1305 / AEAD),
// RFC 7748 (X25519).
#include <gtest/gtest.h>

#include <algorithm>
#include <span>

#include "crypto/aead.h"
#include "crypto/chacha20.h"
#include "crypto/chacha20_kernels.h"
#include "crypto/hmac.h"
#include "crypto/poly1305.h"
#include "crypto/sha256.h"
#include "crypto/sha256_kernels.h"
#include "crypto/x25519.h"
#include "sim/rng.h"
#include "util/buf.h"
#include "util/encoding.h"

namespace ptperf::crypto {
namespace {

using util::Bytes;
using util::hex_decode;
using util::hex_encode;
using util::to_bytes;

std::string digest_hex(util::BytesView data) {
  auto d = Sha256::digest(data);
  return hex_encode(util::BytesView(d.data(), d.size()));
}

TEST(Sha256, Fips180Vectors) {
  EXPECT_EQ(digest_hex({}),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(digest_hex(to_bytes("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      digest_hex(to_bytes(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  auto d = h.finalize();
  EXPECT_EQ(hex_encode(util::BytesView(d.data(), d.size())),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  Bytes data(300);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::uint8_t>(i);
  for (std::size_t split = 0; split <= data.size(); split += 37) {
    Sha256 h;
    h.update(util::BytesView(data.data(), split));
    h.update(util::BytesView(data.data() + split, data.size() - split));
    EXPECT_EQ(h.finalize(), Sha256::digest(data)) << split;
  }
}

// SHA-256 of `data` with the FIPS 180-4 padding written out here and
// every block compressed by `kernel`.
std::array<std::uint8_t, Sha256::kDigestSize> padded_digest(
    const detail::Sha256Kernel& kernel, util::BytesView data) {
  Bytes msg(data.begin(), data.end());
  msg.push_back(0x80);
  while (msg.size() % Sha256::kBlockSize != 56) msg.push_back(0);
  for (int i = 7; i >= 0; --i)
    msg.push_back(static_cast<std::uint8_t>(data.size() * 8 >> (8 * i)));
  std::array<std::uint32_t, 8> state = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                        0xa54ff53a, 0x510e527f, 0x9b05688c,
                                        0x1f83d9ab, 0x5be0cd19};
  kernel.compress(state, msg.data(), msg.size() / Sha256::kBlockSize);
  std::array<std::uint8_t, Sha256::kDigestSize> out{};
  for (int i = 0; i < 32; ++i)
    out[i] = static_cast<std::uint8_t>(state[i / 4] >> (24 - 8 * (i % 4)));
  return out;
}

// Every kernel the host runs against the portable one, which the FIPS
// vectors above pin only when it is the kernel Sha256 runs. Both ends of a
// circuit hash with the same kernel, so a wrong but self-consistent digest
// would leave every golden and round trip unchanged; this catches it.
TEST(Sha256, KernelsMatchPortable) {
  const auto kernels = detail::sha256_kernels();
  ASSERT_FALSE(kernels.empty());
  const detail::Sha256Kernel& portable = kernels.front();
  ASSERT_STREQ(portable.name, "portable");
  ASSERT_STREQ(Sha256::kernel(), kernels.back().name);
  if (kernels.size() == 1)
    GTEST_SKIP() << "no hardware SHA-256 kernel on this host (x86-64 with "
                    "the sha, sse4.1 and ssse3 CPU features)";

  sim::Rng rng(16);
  for (const detail::Sha256Kernel& kernel : kernels.subspan(1)) {
    for (int trial = 0; trial < 200; ++trial) {
      const std::size_t blocks = 1 + rng.next_below(16);
      const Bytes data = rng.bytes(blocks * Sha256::kBlockSize);
      std::array<std::uint32_t, 8> state{};
      for (auto& word : state)
        word = static_cast<std::uint32_t>(rng.next_u64());
      auto expect = state;
      portable.compress(expect, data.data(), blocks);
      kernel.compress(state, data.data(), blocks);
      ASSERT_EQ(state, expect) << kernel.name << ", " << blocks << " blocks";
    }
  }
  // Sha256 itself, fed in pieces cut at random points, runs the last
  // kernel through its buffering and padding.
  for (std::size_t len = 0; len <= 1024; ++len) {
    const Bytes data = rng.bytes(len);
    const auto expect = padded_digest(portable, data);
    for (const detail::Sha256Kernel& kernel : kernels.subspan(1))
      ASSERT_EQ(padded_digest(kernel, data), expect)
          << kernel.name << ", length " << len;
    Sha256 h;
    std::size_t at = 0;
    while (at < len) {
      std::size_t run = 1 + rng.next_below(len - at);
      h.update(util::BytesView(data.data() + at, run));
      at += run;
    }
    ASSERT_EQ(h.finalize(), expect) << Sha256::kernel() << ", length " << len;
  }
}

TEST(Hmac, Rfc4231Case1) {
  Bytes key(20, 0x0b);
  Bytes mac = hmac_sha256(key, to_bytes("Hi There"));
  EXPECT_EQ(hex_encode(mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  Bytes mac = hmac_sha256(to_bytes("Jefe"),
                          to_bytes("what do ya want for nothing?"));
  EXPECT_EQ(hex_encode(mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231LongKey) {
  // Case 6: 131-byte key (hashed down), "Test Using Larger Than Block-Size
  // Key - Hash Key First".
  Bytes key(131, 0xaa);
  Bytes mac = hmac_sha256(
      key, to_bytes("Test Using Larger Than Block-Size Key - Hash Key First"));
  EXPECT_EQ(hex_encode(mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hkdf, Rfc5869Case1) {
  Bytes ikm(22, 0x0b);
  Bytes salt = *hex_decode("000102030405060708090a0b0c");
  Bytes info = *hex_decode("f0f1f2f3f4f5f6f7f8f9");
  Bytes okm = hkdf(salt, ikm, info, 42);
  EXPECT_EQ(hex_encode(okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(Hkdf, ExpandLengths) {
  Bytes prk = hkdf_extract({}, to_bytes("input"));
  EXPECT_EQ(hkdf_expand(prk, {}, 1).size(), 1u);
  EXPECT_EQ(hkdf_expand(prk, {}, 32).size(), 32u);
  EXPECT_EQ(hkdf_expand(prk, {}, 100).size(), 100u);
  EXPECT_THROW(hkdf_expand(prk, {}, 255 * 32 + 1), std::invalid_argument);
  // Prefix property: longer output extends shorter one.
  Bytes a = hkdf_expand(prk, to_bytes("x"), 16);
  Bytes b = hkdf_expand(prk, to_bytes("x"), 64);
  EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
}

TEST(ChaCha20, Rfc8439KeystreamBlock) {
  // RFC 8439 §2.3.2 test vector.
  Bytes key = *hex_decode(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  Bytes nonce = *hex_decode("000000090000004a00000000");
  auto block = ChaCha20::block(key, nonce, 1);
  Bytes expect = *hex_decode(
      "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
      "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e");
  EXPECT_EQ(Bytes(block.begin(), block.end()), expect);
}

TEST(ChaCha20, Rfc8439Encryption) {
  // RFC 8439 §2.4.2.
  Bytes key = *hex_decode(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  Bytes nonce = *hex_decode("000000000000004a00000000");
  std::string plaintext =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  ChaCha20 cipher(key, nonce, 1);
  Bytes ct = to_bytes(plaintext);
  cipher.process(ct.data(), ct.size());
  EXPECT_EQ(hex_encode(util::BytesView(ct.data(), 16)),
            "6e2e359a2568f98041ba0728dd0d6981");
  // Decrypt restores the plaintext.
  ChaCha20 decipher(key, nonce, 1);
  decipher.process(ct.data(), ct.size());
  EXPECT_EQ(util::to_string(ct), plaintext);
}

TEST(ChaCha20, StreamContinuity) {
  sim::Rng rng(1);
  Bytes key = rng.bytes(32), nonce = rng.bytes(12);
  Bytes data = rng.bytes(300);
  // One-shot vs split processing must agree (cross-block boundaries).
  ChaCha20 a(key, nonce);
  Bytes whole = data;
  a.process(whole.data(), whole.size());
  ChaCha20 b(key, nonce);
  Bytes part1(data.begin(), data.begin() + 100);
  Bytes part2(data.begin() + 100, data.end());
  b.process(part1.data(), part1.size());
  b.process(part2.data(), part2.size());
  part1.insert(part1.end(), part2.begin(), part2.end());
  EXPECT_EQ(part1, whole);
}

// The batched keystream against the single-block reference: zeros through
// the stream, cut at random points, must read back block(c), block(c + 1),
// ... with batch edges and the 32-bit counter wrap (from 0xFFFFFFFD and
// 0xFFFFFFF5) falling inside 4-, 8- and 16-block batches. Both ends of
// every circuit run the same cipher, so round trips cannot catch a wrong
// but self-consistent keystream; this can.
TEST(ChaCha20, StreamMatchesReferenceBlocks) {
  sim::Rng rng(11);
  Bytes key = rng.bytes(32), nonce = rng.bytes(12);
  for (std::uint32_t counter : {0u, 1u, 0xFFFFFFFDu, 0xFFFFFFF5u}) {
    for (std::size_t len : {1u, 63u, 64u, 255u, 256u, 257u, 509u, 511u, 512u,
                            513u, 1000u, 1023u, 1024u, 1025u, 2049u, 4096u}) {
      Bytes expect;
      for (std::uint32_t i = 0; expect.size() < len; ++i) {
        auto block = ChaCha20::block(key, nonce, counter + i);
        expect.insert(expect.end(), block.begin(), block.end());
      }
      expect.resize(len);

      Bytes got(len, 0);
      ChaCha20 cipher(key, nonce, counter);
      std::size_t at = 0;
      while (at < len) {
        std::size_t run = 1 + rng.next_below(len - at);
        cipher.process(got.data() + at, run);
        at += run;
      }
      EXPECT_EQ(got, expect) << "counter " << counter << ", length " << len;
    }
  }
}

// Every kernel the host runs, portable included, against the scalar
// reference block. The stream test above exercises only the kernel
// ChaCha20 runs, the widest; this is the one check on the narrower ones,
// so it never skips. Counters near 2^32 put the wrap on every lane.
TEST(ChaCha20, KernelsMatchReference) {
  const auto kernels = detail::chacha20_kernels();
  ASSERT_FALSE(kernels.empty());
  ASSERT_STREQ(kernels.front().name, "portable");
  ASSERT_STREQ(ChaCha20::kernel(), kernels.back().name);

  sim::Rng rng(19);
  for (const detail::ChaCha20Kernel& kernel : kernels) {
    ASSERT_LE(kernel.blocks, 16u) << kernel.name;
    for (int trial = 0; trial < 200; ++trial) {
      const Bytes key = rng.bytes(ChaCha20::kKeySize);
      const Bytes nonce = rng.bytes(ChaCha20::kNonceSize);
      // Odd trials start 0 to 15 blocks short of the wrap, in turn.
      const std::uint32_t counter =
          trial % 2 == 0
              ? static_cast<std::uint32_t>(rng.next_u64())
              : 0xFFFFFFFFu - static_cast<std::uint32_t>(trial / 2 % 16);
      // RFC 8439 §2.3: constants, key, block counter, nonce.
      std::array<std::uint32_t, 16> state = {0x61707865, 0x3320646e,
                                             0x79622d32, 0x6b206574};
      auto word = [](const std::uint8_t* p) {
        return static_cast<std::uint32_t>(p[0]) |
               static_cast<std::uint32_t>(p[1]) << 8 |
               static_cast<std::uint32_t>(p[2]) << 16 |
               static_cast<std::uint32_t>(p[3]) << 24;
      };
      for (int i = 0; i < 8; ++i) state[4 + i] = word(key.data() + i * 4);
      state[12] = counter;
      for (int i = 0; i < 3; ++i) state[13 + i] = word(nonce.data() + i * 4);

      std::array<std::uint8_t, 16 * 64> out{};
      kernel.generate(state, out.data());
      for (std::size_t b = 0; b < kernel.blocks; ++b) {
        const std::uint32_t block_counter =
            counter + static_cast<std::uint32_t>(b);
        const auto expect = ChaCha20::block(key, nonce, block_counter);
        ASSERT_TRUE(std::equal(expect.begin(), expect.end(),
                               out.begin() + b * 64))
            << kernel.name << ", counter " << counter << ", block " << b;
      }
    }
  }
}

TEST(Poly1305, Rfc8439Vector) {
  Bytes key = *hex_decode(
      "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
  auto tag =
      Poly1305::mac(key, to_bytes("Cryptographic Forum Research Group"));
  EXPECT_EQ(hex_encode(util::BytesView(tag.data(), tag.size())),
            "a8061dc1305136c6c22b8baf0c0127a9");
}

TEST(Poly1305, IncrementalMatchesOneShot) {
  sim::Rng rng(2);
  Bytes key = rng.bytes(32);
  Bytes msg = rng.bytes(123);
  Poly1305 inc(key);
  inc.update(util::BytesView(msg.data(), 50));
  inc.update(util::BytesView(msg.data() + 50, msg.size() - 50));
  EXPECT_EQ(inc.finalize(), Poly1305::mac(key, msg));
}

TEST(Aead, Rfc8439Vector) {
  Bytes key = *hex_decode(
      "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f");
  Bytes nonce = *hex_decode("070000004041424344454647");
  Bytes aad = *hex_decode("50515253c0c1c2c3c4c5c6c7");
  std::string plaintext =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  ChaCha20Poly1305 aead(key);
  Bytes sealed = to_bytes(plaintext);
  sealed.resize(plaintext.size() + ChaCha20Poly1305::kTagSize);
  aead.seal_in_place(nonce, sealed, plaintext.size(), aad);
  // Ciphertext and tag from the RFC.
  EXPECT_EQ(hex_encode(util::BytesView(sealed.data(), 16)),
            "d31a8d34648e60db7b86afbc53ef7ec2");
  EXPECT_EQ(hex_encode(util::BytesView(sealed.data() + plaintext.size(), 16)),
            "1ae10b594f09e26a7e902ecbd0600691");
  auto opened = aead.open_in_place(nonce, sealed, aad);
  ASSERT_TRUE(opened);
  EXPECT_EQ(*opened, plaintext.size());
  EXPECT_EQ(util::to_string(util::BytesView(sealed.data(), *opened)),
            plaintext);
}

// Opens `record` in place and expects a rejection that leaves every byte
// as it was, so a framing layer that drops a bad record never passes on
// half-decrypted bytes.
::testing::AssertionResult rejected_untouched(const ChaCha20Poly1305& aead,
                                              util::BytesView nonce,
                                              std::span<std::uint8_t> record,
                                              util::BytesView aad) {
  const Bytes before(record.begin(), record.end());
  if (aead.open_in_place(nonce, record, aad))
    return ::testing::AssertionFailure() << "tampered record opened";
  if (!std::equal(record.begin(), record.end(), before.begin()))
    return ::testing::AssertionFailure() << "rejected open changed the buffer";
  return ::testing::AssertionSuccess();
}

TEST(Aead, RejectsTampering) {
  sim::Rng rng(3);
  ChaCha20Poly1305 aead(rng.bytes(32));
  const Bytes aad = to_bytes("aad");
  const Bytes plaintext = rng.bytes(498);  // one full relay cell's data
  util::BufPool pool;
  for (std::uint64_t counter : {0u, 7u, 77u}) {
    auto nonce = counter_nonce_arr(counter);
    auto next_nonce = counter_nonce_arr(counter + 1);
    util::BytesView nv(nonce.data(), nonce.size());
    util::Buf record =
        pool.acquire(plaintext.size() + ChaCha20Poly1305::kTagSize);
    std::copy(plaintext.begin(), plaintext.end(), record.begin());
    aead.seal_in_place(nv, record.span(), plaintext.size(), aad);

    Bytes flipped = record.to_bytes();
    flipped[0] ^= 1;
    EXPECT_TRUE(rejected_untouched(aead, nv, flipped, aad));
    EXPECT_TRUE(rejected_untouched(
        aead, {next_nonce.data(), next_nonce.size()}, record.span(), aad));
    EXPECT_TRUE(
        rejected_untouched(aead, nv, record.span(), to_bytes("other-aad")));
    Bytes short_record{1, 2, 3};  // shorter than a tag
    EXPECT_TRUE(rejected_untouched(aead, nv, short_record, {}));

    auto opened = aead.open_in_place(nv, record.span(), aad);
    ASSERT_TRUE(opened) << "counter " << counter;
    EXPECT_EQ(*opened, plaintext.size());
    EXPECT_TRUE(std::equal(plaintext.begin(), plaintext.end(), record.begin()));
  }
}

// seal_in_place against RFC 8439 §2.8 composed here from the primitives:
// the Poly1305 key is block 0, the plaintext is encrypted from block 1,
// and the tag covers aad || pad16 || ciphertext || pad16 || le64 lengths.
TEST(Aead, SealInPlaceMatchesRfc8439Composition) {
  sim::Rng rng(12);
  Bytes key = rng.bytes(32);
  ChaCha20Poly1305 aead(key);
  std::uint64_t seq = 0;
  for (std::size_t len : {0u, 1u, 63u, 64u, 65u, 191u, 192u, 193u, 498u,
                          514u, 8192u}) {
    for (std::size_t aad_len : {0u, 13u}) {
      auto nonce_arr = counter_nonce_arr(seq++);
      Bytes nonce(nonce_arr.begin(), nonce_arr.end());
      Bytes aad = rng.bytes(aad_len);
      Bytes plaintext = rng.bytes(len);

      auto block0 = ChaCha20::block(key, nonce, 0);
      Bytes expect = plaintext;
      ChaCha20(key, nonce, 1).process(expect.data(), expect.size());
      Bytes mac_input = aad;
      mac_input.resize((aad.size() + 15) / 16 * 16, 0);
      mac_input.insert(mac_input.end(), expect.begin(), expect.end());
      mac_input.resize(mac_input.size() + (16 - expect.size() % 16) % 16, 0);
      for (std::uint64_t n : {std::uint64_t{aad_len}, std::uint64_t{len}})
        for (int i = 0; i < 8; ++i)
          mac_input.push_back(static_cast<std::uint8_t>(n >> (8 * i)));
      auto tag = Poly1305::mac(util::BytesView(block0.data(), 32), mac_input);
      expect.insert(expect.end(), tag.begin(), tag.end());

      Bytes buf = plaintext;
      buf.resize(len + ChaCha20Poly1305::kTagSize);
      aead.seal_in_place(nonce, buf, len, aad);
      EXPECT_EQ(buf, expect) << "length " << len << ", aad " << aad_len;

      Bytes tampered = buf;
      tampered[len + rng.next_below(ChaCha20Poly1305::kTagSize)] ^= 0x01;
      Bytes before = tampered;
      EXPECT_FALSE(aead.open_in_place(nonce, tampered, aad));
      EXPECT_EQ(tampered, before) << "failed open touched the buffer";

      auto opened = aead.open_in_place(nonce, buf, aad);
      ASSERT_TRUE(opened);
      EXPECT_EQ(*opened, len);
      EXPECT_EQ(Bytes(buf.begin(), buf.begin() + len), plaintext);
    }
  }
}

TEST(X25519, Rfc7748ScalarMult) {
  X25519Key scalar, point;
  auto s = *hex_decode(
      "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
  auto u = *hex_decode(
      "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c");
  std::copy(s.begin(), s.end(), scalar.begin());
  std::copy(u.begin(), u.end(), point.begin());
  X25519Key out = x25519(scalar, point);
  EXPECT_EQ(hex_encode(util::BytesView(out.data(), out.size())),
            "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552");
}

TEST(X25519, Rfc7748DiffieHellman) {
  // RFC 7748 §6.1: Alice/Bob key agreement.
  X25519Key alice_priv, bob_priv;
  auto a = *hex_decode(
      "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a");
  auto b = *hex_decode(
      "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb");
  std::copy(a.begin(), a.end(), alice_priv.begin());
  std::copy(b.begin(), b.end(), bob_priv.begin());

  X25519Key alice_pub = x25519_base(alice_priv);
  X25519Key bob_pub = x25519_base(bob_priv);
  EXPECT_EQ(hex_encode(util::BytesView(alice_pub.data(), 32)),
            "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a");
  EXPECT_EQ(hex_encode(util::BytesView(bob_pub.data(), 32)),
            "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f");

  X25519Key shared_a = x25519(alice_priv, bob_pub);
  X25519Key shared_b = x25519(bob_priv, alice_pub);
  EXPECT_EQ(shared_a, shared_b);
  EXPECT_EQ(hex_encode(util::BytesView(shared_a.data(), 32)),
            "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742");
}

TEST(X25519, ClampProperties) {
  sim::Rng rng(4);
  X25519Key raw;
  rng.fill_bytes(raw.data(), raw.size());
  X25519Key clamped = x25519_clamp(raw);
  EXPECT_EQ(clamped[0] & 7, 0);
  EXPECT_EQ(clamped[31] & 0x80, 0);
  EXPECT_EQ(clamped[31] & 0x40, 0x40);
}

}  // namespace
}  // namespace ptperf::crypto
