// Shared LZ token format for SnappyLikeCodec and DeflateLikeCodec.
//
// Stream layout: varint64(raw_size) followed by ops until raw_size bytes are
// reconstructed. Each op starts with a control byte c:
//   c < 0x80 : literal run of (c + 1) bytes follows (1..128)
//   c >= 0x80: back-reference; length = (c & 0x7f) + kMinMatch (4..131),
//              followed by varint32 distance (1..window size)
#ifndef ANTIMR_CODEC_LZ_INTERNAL_H_
#define ANTIMR_CODEC_LZ_INTERNAL_H_

#include <bit>
#include <cstdint>
#include <string>

#include "common/coding.h"
#include "common/slice.h"
#include "common/status.h"

namespace antimr {
namespace lz {

constexpr size_t kMinMatch = 4;
constexpr size_t kMaxMatch = kMinMatch + 0x7f;  // 131
constexpr size_t kMaxLiteralRun = 128;

inline void EmitLiterals(const char* data, size_t n, std::string* out) {
  while (n > 0) {
    const size_t take = n < kMaxLiteralRun ? n : kMaxLiteralRun;
    out->push_back(static_cast<char>(take - 1));
    out->append(data, take);
    data += take;
    n -= take;
  }
}

inline void EmitMatch(size_t length, size_t distance, std::string* out) {
  out->push_back(static_cast<char>(0x80 | (length - kMinMatch)));
  PutVarint32(out, static_cast<uint32_t>(distance));
}

inline uint32_t Load32(const char* p) {
  uint32_t v;
  __builtin_memcpy(&v, p, 4);
  return v;
}

inline uint64_t Load64(const char* p) {
  uint64_t v;
  __builtin_memcpy(&v, p, 8);
  return v;
}

/// Length of the common prefix of a and b, where a < b and b's range ends at
/// `end`; capped at kMaxMatch. Compares eight bytes per step: the first set
/// bit of the XOR of two words locates their first differing byte.
inline size_t MatchLength(const char* a, const char* b, const char* end) {
  size_t n = 0;
  const size_t limit =
      static_cast<size_t>(end - b) < kMaxMatch ? static_cast<size_t>(end - b)
                                               : kMaxMatch;
  while (n + 8 <= limit) {
    const uint64_t diff = Load64(a + n) ^ Load64(b + n);
    if (diff != 0) {
      const int bit = std::endian::native == std::endian::little
                          ? __builtin_ctzll(diff)
                          : __builtin_clzll(diff);
      return n + static_cast<size_t>(bit >> 3);
    }
    n += 8;
  }
  while (n < limit && a[n] == b[n]) ++n;
  return n;
}

/// Appends the DeflateLikeCodec stream for `input` to *output.
void DeflateCompress(const Slice& input, std::string* output);

/// Shared decoder for the token stream.
Status LzDecompress(const Slice& input, std::string* output);

}  // namespace lz
}  // namespace antimr

#endif  // ANTIMR_CODEC_LZ_INTERNAL_H_
