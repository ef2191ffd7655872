#include "codec/crc32.h"

#include <array>
#include <cstring>

namespace antimr {

namespace {

// Slicing-by-8 tables: table[0] is the classic byte-at-a-time CRC-32
// (polynomial 0xedb88320) table; table[k][b] advances byte b through k
// additional zero bytes. Eight table lookups then retire eight input bytes
// per iteration, which matters because every block payload of a shuffle
// segment is CRC'd when it is written and again before it is decoded.
std::array<std::array<uint32_t, 256>, 8> MakeTables() {
  std::array<std::array<uint32_t, 256>, 8> tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xedb88320U ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (int k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      tables[k][i] = (tables[k - 1][i] >> 8) ^
                     tables[0][tables[k - 1][i] & 0xff];
    }
  }
  return tables;
}

}  // namespace

uint32_t Crc32(uint32_t crc, const Slice& data) {
  static const std::array<std::array<uint32_t, 256>, 8> t = MakeTables();
  uint32_t c = crc ^ 0xffffffffU;
  const unsigned char* p =
      reinterpret_cast<const unsigned char*>(data.data());
  size_t n = data.size();
  while (n >= 8) {
    uint32_t lo;
    uint32_t hi;
    std::memcpy(&lo, p, 4);  // little-endian hosts only (x86/arm64)
    std::memcpy(&hi, p + 4, 4);
    c ^= lo;
    c = t[7][c & 0xff] ^ t[6][(c >> 8) & 0xff] ^ t[5][(c >> 16) & 0xff] ^
        t[4][c >> 24] ^ t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
        t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    c = t[0][(c ^ *p++) & 0xff] ^ (c >> 8);
  }
  return c ^ 0xffffffffU;
}

}  // namespace antimr
