#include "util/encoding.h"

namespace ptperf::util {
namespace {

constexpr char kHexDigits[] = "0123456789abcdef";
constexpr char kBase32Alphabet[] = "abcdefghijklmnopqrstuvwxyz234567";

int hex_val(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

int base32_val(char c) {
  if (c >= 'a' && c <= 'z') return c - 'a';
  if (c >= 'A' && c <= 'Z') return c - 'A';
  if (c >= '2' && c <= '7') return c - '2' + 26;
  return -1;
}

}  // namespace

std::string hex_encode(BytesView data) {
  std::string out;
  out.reserve(data.size() * 2);
  for (std::uint8_t b : data) {
    out.push_back(kHexDigits[b >> 4]);
    out.push_back(kHexDigits[b & 0xf]);
  }
  return out;
}

std::optional<Bytes> hex_decode(std::string_view hex) {
  if (hex.size() % 2 != 0) return std::nullopt;
  Bytes out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    int hi = hex_val(hex[i]);
    int lo = hex_val(hex[i + 1]);
    if (hi < 0 || lo < 0) return std::nullopt;
    out.push_back(static_cast<std::uint8_t>(hi << 4 | lo));
  }
  return out;
}

std::string base32_encode(BytesView data) {
  std::string out;
  out.reserve((data.size() * 8 + 4) / 5);
  std::uint32_t acc = 0;
  int bits = 0;
  for (std::uint8_t b : data) {
    acc = acc << 8 | b;
    bits += 8;
    while (bits >= 5) {
      bits -= 5;
      out.push_back(kBase32Alphabet[(acc >> bits) & 0x1f]);
    }
  }
  if (bits > 0) out.push_back(kBase32Alphabet[(acc << (5 - bits)) & 0x1f]);
  return out;
}

std::optional<Bytes> base32_decode(std::string_view text) {
  Bytes out;
  out.reserve(text.size() * 5 / 8);
  std::uint32_t acc = 0;
  int bits = 0;
  for (char c : text) {
    int v = base32_val(c);
    if (v < 0) return std::nullopt;
    acc = acc << 5 | static_cast<std::uint32_t>(v);
    bits += 5;
    if (bits >= 8) {
      bits -= 8;
      out.push_back(static_cast<std::uint8_t>((acc >> bits) & 0xff));
    }
  }
  // Trailing bits must be zero padding, otherwise the input was malformed.
  if (bits > 0 && (acc & ((1u << bits) - 1)) != 0) return std::nullopt;
  return out;
}

}  // namespace ptperf::util
