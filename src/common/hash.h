// Hash functions for partitioners and hash tables.
#ifndef ANTIMR_COMMON_HASH_H_
#define ANTIMR_COMMON_HASH_H_

#include <cstdint>
#include <cstring>

#include "common/slice.h"

namespace antimr {

/// 64-bit FNV-1a over an arbitrary byte range. Deterministic across runs, so
/// partition assignments (and therefore experiment results) are reproducible.
uint64_t Hash64(const char* data, size_t n, uint64_t seed = 0xcbf29ce484222325ULL);

inline uint64_t Hash64(const Slice& s, uint64_t seed = 0xcbf29ce484222325ULL) {
  return Hash64(s.data(), s.size(), seed);
}

/// 32-bit mixing finalizer (murmur3 fmix) for integer keys.
uint32_t HashMix32(uint32_t v);
uint64_t HashMix64(uint64_t v);

/// Hash functor for in-memory tables keyed on Slice (Shared's index,
/// AntiCombiner's accumulator). Reads the key a word at a time, so it costs
/// a fraction of Hash64's byte-at-a-time loop on keys past a few bytes. Its
/// values never leave the process; partitioners keep Hash64, whose values
/// decide which reduce task receives a record.
struct SliceHash {
  size_t operator()(const Slice& s) const {
    constexpr uint64_t kMul = 0x9fb21c651e98df25ULL;
    const char* p = s.data();
    size_t n = s.size();
    uint64_t h = 0x9e3779b97f4a7c15ULL ^ n;
    for (; n >= 8; p += 8, n -= 8) {
      uint64_t w;
      std::memcpy(&w, p, 8);
      h = (h ^ w) * kMul;
      h ^= h >> 29;
    }
    if (n > 0) {
      // The 1-7 tail bytes, packed injectively for a given length.
      uint64_t w = 0;
      if (n & 4) {
        uint32_t x;
        std::memcpy(&x, p, 4);
        w = x;
        p += 4;
      }
      if (n & 2) {
        uint16_t x;
        std::memcpy(&x, p, 2);
        w = (w << 16) | x;
        p += 2;
      }
      if (n & 1) w = (w << 8) | static_cast<unsigned char>(*p);
      h = (h ^ w) * kMul;
    }
    // murmur3 fmix64: every output bit depends on every input bit, so an
    // open-addressed table may index by the low bits.
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ULL;
    h ^= h >> 33;
    return static_cast<size_t>(h);
  }
};

}  // namespace antimr

#endif  // ANTIMR_COMMON_HASH_H_
