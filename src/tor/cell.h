// Tor cell wire format (tor-spec flavoured): fixed 514-byte cells with a
// 4-byte circuit id, and the 11-byte relay header inside onion-encrypted
// RELAY payloads. Sizes match the real protocol so byte overheads in the
// benches are faithful.
//
// parse_* return CellView / RelayCellView, which borrow the wire buffer;
// the encode_*_into writers fill a caller-provided span (typically a
// pooled util::Buf slot) without allocating.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "util/bytes.h"

namespace ptperf::tor {

inline constexpr std::size_t kCellSize = 514;
inline constexpr std::size_t kCellHeaderSize = 5;  // circ_id(4) + command(1)
inline constexpr std::size_t kCellPayloadSize = 509;  // 514 - 4 - 1
inline constexpr std::size_t kRelayHeaderSize = 11;
inline constexpr std::size_t kRelayDataMax = kCellPayloadSize - kRelayHeaderSize;  // 498
/// Digest field position inside a relay payload: cmd(1) + recognized(2) +
/// stream(2).
inline constexpr std::size_t kRelayDigestOffset = 5;

// Tor flow-control protocol constants (tor-spec §7.3/§7.4).
inline constexpr int kCircuitWindowInit = 1000;
inline constexpr int kStreamWindowInit = 500;
inline constexpr int kCircuitSendmeIncrement = 100;
inline constexpr int kStreamSendmeIncrement = 50;

using CircId = std::uint32_t;
using StreamId = std::uint16_t;

enum class CellCommand : std::uint8_t {
  kPadding = 0,
  kRelay = 3,
  kDestroy = 4,
  kCreate2 = 10,
  kCreated2 = 11,
};

enum class RelayCommand : std::uint8_t {
  kBegin = 1,
  kData = 2,
  kEnd = 3,
  kConnected = 4,
  kSendmeStream = 5,
  kSendmeCircuit = 6,
  kTruncated = 9,
  kExtend2 = 14,
  kExtended2 = 15,
};

/// Borrowed view of a decoded cell. `payload` aliases the wire buffer
/// (always exactly kCellPayloadSize) and is valid only as long as it.
struct CellView {
  CircId circ_id = 0;
  CellCommand command = CellCommand::kPadding;
  util::BytesView payload;
};

/// Borrowed view of the relay header + data inside a cell payload.
struct RelayCellView {
  RelayCommand command = RelayCommand::kData;
  std::uint16_t recognized = 0;
  StreamId stream_id = 0;
  std::uint32_t digest = 0;
  util::BytesView data;  // `length` bytes, aliasing the payload
};

/// Parses a wire cell without copying. nullopt when wire isn't kCellSize.
std::optional<CellView> parse_cell(util::BytesView wire);

/// Parses a relay payload without copying. nullopt on size/length errors.
std::optional<RelayCellView> parse_relay_cell(util::BytesView payload);

/// Serializes a cell into `out` (exactly kCellSize bytes, zero padding).
/// Returns false (leaving `out` unspecified) when payload is oversized or
/// `out` has the wrong size.
bool encode_cell_into(std::span<std::uint8_t> out, CircId circ_id,
                      CellCommand command, util::BytesView payload);

/// Serializes a relay cell into `out` (exactly kCellPayloadSize bytes,
/// zero padding) with `recognized` zero and the digest field as given.
/// Returns false when data is longer than kRelayDataMax or `out` has the
/// wrong size.
bool encode_relay_cell_into(std::span<std::uint8_t> out, RelayCommand command,
                            StreamId stream_id, std::uint32_t digest,
                            util::BytesView data);

/// Rewrites the circuit id of an encoded wire cell in place.
inline void patch_circ_id(std::span<std::uint8_t> wire, CircId id) {
  wire[0] = static_cast<std::uint8_t>(id >> 24);
  wire[1] = static_cast<std::uint8_t>(id >> 16);
  wire[2] = static_cast<std::uint8_t>(id >> 8);
  wire[3] = static_cast<std::uint8_t>(id);
}

/// Rewrites the digest field of an encoded relay payload in place.
inline void patch_relay_digest(std::span<std::uint8_t> payload,
                               std::uint32_t digest) {
  payload[kRelayDigestOffset] = static_cast<std::uint8_t>(digest >> 24);
  payload[kRelayDigestOffset + 1] = static_cast<std::uint8_t>(digest >> 16);
  payload[kRelayDigestOffset + 2] = static_cast<std::uint8_t>(digest >> 8);
  payload[kRelayDigestOffset + 3] = static_cast<std::uint8_t>(digest);
}

/// Zeroes a relay payload's digest field for the rolling-digest check and
/// restores the original bytes on destruction — the in-place replacement
/// for copying the whole 509-byte payload just to blank four bytes.
class ScopedDigestZero {
 public:
  explicit ScopedDigestZero(std::span<std::uint8_t> payload)
      : payload_(payload) {
    for (std::size_t i = 0; i < 4; ++i) {
      saved_[i] = payload_[kRelayDigestOffset + i];
      payload_[kRelayDigestOffset + i] = 0;
    }
  }
  ScopedDigestZero(const ScopedDigestZero&) = delete;
  ScopedDigestZero& operator=(const ScopedDigestZero&) = delete;
  ~ScopedDigestZero() {
    for (std::size_t i = 0; i < 4; ++i)
      payload_[kRelayDigestOffset + i] = saved_[i];
  }

  /// The payload with the digest field zeroed (digest/check input).
  util::BytesView zeroed() const { return {payload_.data(), payload_.size()}; }

 private:
  std::span<std::uint8_t> payload_;
  std::uint8_t saved_[4];
};

/// EXTEND2 body carried in a relay cell's data.
struct Extend2 {
  std::uint16_t target_relay = 0;  // consensus index of the next hop
  util::Bytes handshake;

  util::Bytes encode() const;
  static std::optional<Extend2> decode(util::BytesView data);
};

}  // namespace ptperf::tor
