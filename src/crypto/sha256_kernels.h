// The SHA-256 compression kernels behind crypto::Sha256. Private to
// src/crypto and its tests: the simulator hashes through Sha256, and the
// tests walk this table to hold every kernel to the portable one.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

namespace ptperf::crypto::detail {

/// Runs the FIPS 180-4 compression function over `blocks` consecutive
/// 64-byte blocks at `data`, updating `state` in place. A kernel is a pure
/// function of (state, blocks), so any two must agree bit for bit.
using Sha256Compress = void (*)(std::array<std::uint32_t, 8>& state,
                                const std::uint8_t* data, std::size_t blocks);

struct Sha256Kernel {
  const char* name;
  Sha256Compress compress;
};

/// The kernels this host can run, chosen once on first use: the portable
/// scalar kernel first, then the hardware kernel when the CPU has SHA
/// extensions. Sha256 runs the last entry.
std::span<const Sha256Kernel> sha256_kernels();

}  // namespace ptperf::crypto::detail
