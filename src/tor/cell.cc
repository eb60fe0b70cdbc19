#include "tor/cell.h"

#include <cstring>

namespace ptperf::tor {

std::optional<CellView> parse_cell(util::BytesView wire) {
  if (wire.size() != kCellSize) return std::nullopt;
  CellView v;
  v.circ_id = static_cast<std::uint32_t>(wire[0]) << 24 |
              static_cast<std::uint32_t>(wire[1]) << 16 |
              static_cast<std::uint32_t>(wire[2]) << 8 | wire[3];
  v.command = static_cast<CellCommand>(wire[4]);
  v.payload = wire.subspan(kCellHeaderSize);
  return v;
}

std::optional<RelayCellView> parse_relay_cell(util::BytesView payload) {
  if (payload.size() != kCellPayloadSize) return std::nullopt;
  RelayCellView v;
  v.command = static_cast<RelayCommand>(payload[0]);
  v.recognized = static_cast<std::uint16_t>(payload[1]) << 8 | payload[2];
  v.stream_id = static_cast<std::uint16_t>(payload[3]) << 8 | payload[4];
  v.digest = static_cast<std::uint32_t>(payload[5]) << 24 |
             static_cast<std::uint32_t>(payload[6]) << 16 |
             static_cast<std::uint32_t>(payload[7]) << 8 | payload[8];
  std::uint16_t len = static_cast<std::uint16_t>(payload[9]) << 8 | payload[10];
  if (len > kRelayDataMax) return std::nullopt;
  v.data = payload.subspan(kRelayHeaderSize, len);
  return v;
}

bool encode_cell_into(std::span<std::uint8_t> out, CircId circ_id,
                      CellCommand command, util::BytesView payload) {
  if (out.size() != kCellSize || payload.size() > kCellPayloadSize)
    return false;
  patch_circ_id(out, circ_id);
  out[4] = static_cast<std::uint8_t>(command);
  if (!payload.empty())
    std::memcpy(out.data() + kCellHeaderSize, payload.data(), payload.size());
  std::memset(out.data() + kCellHeaderSize + payload.size(), 0,
              kCellPayloadSize - payload.size());
  return true;
}

bool encode_relay_cell_into(std::span<std::uint8_t> out, RelayCommand command,
                            StreamId stream_id, std::uint32_t digest,
                            util::BytesView data) {
  if (out.size() != kCellPayloadSize || data.size() > kRelayDataMax)
    return false;
  out[0] = static_cast<std::uint8_t>(command);
  out[1] = 0;  // recognized
  out[2] = 0;
  out[3] = static_cast<std::uint8_t>(stream_id >> 8);
  out[4] = static_cast<std::uint8_t>(stream_id);
  patch_relay_digest(out, digest);
  out[9] = static_cast<std::uint8_t>(data.size() >> 8);
  out[10] = static_cast<std::uint8_t>(data.size());
  if (!data.empty())
    std::memcpy(out.data() + kRelayHeaderSize, data.data(), data.size());
  std::memset(out.data() + kRelayHeaderSize + data.size(), 0,
              kRelayDataMax - data.size());
  return true;
}

// simlint: allow(hot-path-copy) -- handshake-time EXTEND2 body, not per cell
util::Bytes Extend2::encode() const {
  util::Writer w(4 + handshake.size());
  w.u16(target_relay);
  w.u16(static_cast<std::uint16_t>(handshake.size()));
  w.raw(handshake);
  return w.take();
}

std::optional<Extend2> Extend2::decode(util::BytesView data) {
  try {
    util::Reader r(data);
    Extend2 e;
    e.target_relay = r.u16();
    std::uint16_t len = r.u16();
    // simlint: allow(hot-path-copy) -- Extend2 owns its handshake bytes
    e.handshake = r.take_copy(len);
    if (!r.empty()) return std::nullopt;
    return e;
  } catch (const util::ShortRead&) {
    return std::nullopt;
  }
}

}  // namespace ptperf::tor
