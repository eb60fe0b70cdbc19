// Text encodings used on the wire: hex (fingerprints, test vectors) and
// base32 (dnstt DNS labels, onion addresses).
#pragma once

#include <optional>
#include <string>

#include "util/bytes.h"

namespace ptperf::util {

std::string hex_encode(BytesView data);
/// Accepts upper/lower case; returns nullopt on odd length or bad digit.
std::optional<Bytes> hex_decode(std::string_view hex);

/// RFC 4648 base32, lower-case alphabet, unpadded (as used in DNS labels
/// by dnstt and in .onion addresses).
std::string base32_encode(BytesView data);
std::optional<Bytes> base32_decode(std::string_view text);

}  // namespace ptperf::util
