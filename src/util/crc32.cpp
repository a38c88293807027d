#include "util/crc32.h"

#include <array>

namespace nees::util {
namespace {

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

// tables[0] is the classic bytewise table; tables[k][i] is the CRC of byte
// i followed by k zero bytes, so eight lookups advance the CRC 8 bytes.
CrcTables BuildCrcTables() {
  CrcTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
    tables[0][i] = crc;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    for (std::size_t k = 1; k < 8; ++k) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFF];
    }
  }
  return tables;
}

}  // namespace

std::uint32_t Crc32(const std::uint8_t* data, std::size_t size,
                    std::uint32_t crc) {
  static const CrcTables t = BuildCrcTables();
  std::uint32_t c = ~crc;
  while (size >= 8) {
    const std::uint32_t lo =
        c ^ (static_cast<std::uint32_t>(data[0]) |
             static_cast<std::uint32_t>(data[1]) << 8 |
             static_cast<std::uint32_t>(data[2]) << 16 |
             static_cast<std::uint32_t>(data[3]) << 24);
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
        t[4][lo >> 24] ^ t[3][data[4]] ^ t[2][data[5]] ^ t[1][data[6]] ^
        t[0][data[7]];
    data += 8;
    size -= 8;
  }
  while (size-- > 0) c = (c >> 8) ^ t[0][(c ^ *data++) & 0xFF];
  return ~c;
}

}  // namespace nees::util
