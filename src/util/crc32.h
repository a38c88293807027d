// CRC-32 (IEEE 802.3 polynomial, reflected). One shared implementation for
// every layer that frames bytes over an unreliable medium: the write-ahead
// log's record framing and the network message frame's integrity trailer.
// Slicing-by-8: eight table lookups per 8 input bytes instead of one per
// byte, with the same values as the bytewise algorithm.
#pragma once

#include <cstddef>
#include <cstdint>

namespace nees::util {

/// CRC of `size` bytes. Pass a previous result as `crc` to continue it:
/// Crc32(b, nb, Crc32(a, na)) equals the CRC of a followed by b.
std::uint32_t Crc32(const std::uint8_t* data, std::size_t size,
                    std::uint32_t crc = 0);

}  // namespace nees::util
