// The ChaCha20 keystream kernels behind crypto::ChaCha20. Private to
// src/crypto and its tests: the simulator encrypts through ChaCha20, and
// the tests walk this table to hold every kernel to ChaCha20::block.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

namespace ptperf::crypto::detail {

/// Writes `blocks` consecutive 64-byte keystream blocks to `out`, block b
/// for the RFC 8439 §2.3 state `state` with its counter word, state[12],
/// advanced by b (mod 2^32). A kernel is a pure function of the state, so
/// block b of any kernel must equal ChaCha20::block for that counter.
using ChaCha20Blocks = void (*)(const std::array<std::uint32_t, 16>& state,
                                std::uint8_t* out);

struct ChaCha20Kernel {
  const char* name;
  std::size_t blocks;
  ChaCha20Blocks generate;
};

/// The kernels this host can run, chosen once on first use: the portable
/// 4-block kernel first, then the 8-block AVX2 and the 16-block AVX-512
/// kernels as the CPU allows, widest last. ChaCha20 runs the last entry.
std::span<const ChaCha20Kernel> chacha20_kernels();

}  // namespace ptperf::crypto::detail
