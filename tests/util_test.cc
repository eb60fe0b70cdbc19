// Unit tests for the util layer: byte cursors, encodings, framing, the
// byte FIFO, strings, constant-time compare.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>

#include "sim/rng.h"
#include "util/byte_queue.h"
#include "util/bytes.h"
#include "util/encoding.h"
#include "util/framer.h"
#include "util/strings.h"

namespace ptperf::util {
namespace {

TEST(Bytes, WriterReaderRoundTrip) {
  Writer w;
  w.u8(0xAB).u16(0x1234).u32(0xDEADBEEF).u64(0x0102030405060708ULL);
  w.raw(to_bytes("hello"));
  Bytes buf = w.take();
  ASSERT_EQ(buf.size(), 1u + 2 + 4 + 8 + 5);

  Reader r(buf);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0102030405060708ULL);
  EXPECT_EQ(to_string(r.take(5)), "hello");
  EXPECT_TRUE(r.empty());
}

TEST(Bytes, BigEndianLayout) {
  Writer w;
  w.u16(0x0102);
  EXPECT_EQ(w.view()[0], 0x01);
  EXPECT_EQ(w.view()[1], 0x02);
}

TEST(Bytes, ReaderThrowsOnShortRead) {
  Bytes b{1, 2, 3};
  Reader r(b);
  r.u16();
  EXPECT_THROW(r.u16(), ShortRead);
}

TEST(Bytes, ReaderRestAndSkip) {
  Bytes b{1, 2, 3, 4, 5};
  Reader r(b);
  r.skip(2);
  Bytes rest = r.rest();
  EXPECT_EQ(rest, (Bytes{3, 4, 5}));
}

TEST(Bytes, CtEqual) {
  EXPECT_TRUE(ct_equal(to_bytes("same"), to_bytes("same")));
  EXPECT_FALSE(ct_equal(to_bytes("same"), to_bytes("sama")));
  EXPECT_FALSE(ct_equal(to_bytes("short"), to_bytes("longer")));
  EXPECT_TRUE(ct_equal({}, {}));
}

TEST(Encoding, HexRoundTrip) {
  Bytes data{0x00, 0xff, 0x10, 0xab};
  EXPECT_EQ(hex_encode(data), "00ff10ab");
  EXPECT_EQ(hex_decode("00ff10ab").value(), data);
  EXPECT_EQ(hex_decode("00FF10AB").value(), data);
}

TEST(Encoding, HexRejectsMalformed) {
  EXPECT_FALSE(hex_decode("abc"));   // odd length
  EXPECT_FALSE(hex_decode("zz"));    // bad digit
  EXPECT_TRUE(hex_decode(""));       // empty is valid
}

TEST(Encoding, Base32KnownValues) {
  // RFC 4648 vectors (lower-case, unpadded).
  EXPECT_EQ(base32_encode(to_bytes("")), "");
  EXPECT_EQ(base32_encode(to_bytes("f")), "my");
  EXPECT_EQ(base32_encode(to_bytes("fo")), "mzxq");
  EXPECT_EQ(base32_encode(to_bytes("foo")), "mzxw6");
  EXPECT_EQ(base32_encode(to_bytes("foob")), "mzxw6yq");
  EXPECT_EQ(base32_encode(to_bytes("fooba")), "mzxw6ytb");
  EXPECT_EQ(base32_encode(to_bytes("foobar")), "mzxw6ytboi");
}

TEST(Encoding, Base32RoundTripAllLengths) {
  for (std::size_t n = 0; n <= 64; ++n) {
    Bytes data(n);
    for (std::size_t i = 0; i < n; ++i) data[i] = static_cast<std::uint8_t>(i * 7 + 3);
    auto back = base32_decode(base32_encode(data));
    ASSERT_TRUE(back) << n;
    EXPECT_EQ(*back, data) << n;
  }
}

TEST(Encoding, Base32RejectsBadChars) {
  EXPECT_FALSE(base32_decode("01"));   // 0 and 1 not in alphabet
  EXPECT_FALSE(base32_decode("a!"));
}

TEST(Framer, SingleMessageRoundTrip) {
  std::vector<Bytes> got;
  MessageFramer f([&](Bytes m) { got.push_back(std::move(m)); });
  f.feed(frame_message(to_bytes("hello")));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(to_string(got[0]), "hello");
}

TEST(Framer, ReassemblesAcrossArbitraryChunks) {
  Bytes stream;
  for (const char* m : {"first", "second message", ""}) {
    Bytes f = frame_message(to_bytes(m));
    stream.insert(stream.end(), f.begin(), f.end());
  }
  for (std::size_t chunk = 1; chunk <= stream.size(); ++chunk) {
    std::vector<std::string> got;
    MessageFramer f([&](Bytes m) { got.push_back(to_string(m)); });
    for (std::size_t off = 0; off < stream.size(); off += chunk) {
      std::size_t n = std::min(chunk, stream.size() - off);
      f.feed(BytesView(stream.data() + off, n));
    }
    ASSERT_EQ(got.size(), 3u) << "chunk=" << chunk;
    EXPECT_EQ(got[0], "first");
    EXPECT_EQ(got[1], "second message");
    EXPECT_EQ(got[2], "");
    EXPECT_EQ(f.pending(), 0u);
  }
}

TEST(Framer, PendingReportsIncompleteFrame) {
  MessageFramer f([](Bytes) { FAIL() << "no message expected"; });
  f.feed(Bytes{0, 0, 0, 10, 1, 2});  // 10-byte frame, only 2 arrived
  EXPECT_EQ(f.pending(), 6u);
}

// ByteQueue against a std::deque given the same seeded appends and
// consumes: after every step both hold the same bytes. Consumes of 0 to
// size() bytes leave prefixes of every length behind, so the run crosses
// many compactions as well as full drains.
TEST(ByteQueue, MatchesDequeUnderRandomAppendsAndConsumes) {
  sim::Rng rng(20261019);
  ByteQueue q;
  std::deque<std::uint8_t> ref;
  for (int step = 0; step < 20000; ++step) {
    if (rng.next_bool(0.5)) {
      Bytes chunk = rng.bytes(rng.next_below(3001));
      q.append(chunk);
      ref.insert(ref.end(), chunk.begin(), chunk.end());
    } else {
      std::size_t n = rng.next_below(ref.size() + 1);
      q.consume(n);
      ref.erase(ref.begin(), ref.begin() + static_cast<long>(n));
    }
    ASSERT_EQ(q.size(), ref.size()) << "step " << step;
    ASSERT_EQ(q.empty(), ref.empty()) << "step " << step;
    BytesView all = q.front(q.size());
    ASSERT_TRUE(std::equal(all.begin(), all.end(), ref.begin(), ref.end()))
        << "step " << step;
  }
}

TEST(Strings, SplitJoin) {
  auto parts = split("a:b::c", ':');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(join(parts, ":"), "a:b::c");
  EXPECT_EQ(split("", ',').size(), 1u);
}

TEST(Strings, MiscHelpers) {
  EXPECT_EQ(to_lower("MiXeD"), "mixed");
  EXPECT_TRUE(starts_with("foobar", "foo"));
  EXPECT_FALSE(starts_with("fo", "foo"));
  EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_double(-1.0, 0), "-1");
}

}  // namespace
}  // namespace ptperf::util
