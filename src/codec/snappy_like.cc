#include <cstring>
#include <vector>

#include "codec/codec.h"
#include "codec/lz_internal.h"

namespace antimr {

namespace lz {

Status LzDecompress(const Slice& input, std::string* output) {
  Slice in = input;
  uint64_t raw_size;
  if (!GetVarint64(&in, &raw_size)) {
    return Status::Corruption("lz: missing size header");
  }
  // Every op takes at least 2 input bytes and yields at most kMaxMatch bytes,
  // so a larger header is corrupt; checked before it sizes an allocation.
  if (raw_size > in.size() / 2 * kMaxMatch) {
    return Status::Corruption("lz: size header exceeds stream");
  }
  output->clear();
  output->reserve(static_cast<size_t>(raw_size));
  while (output->size() < raw_size) {
    if (in.empty()) return Status::Corruption("lz: truncated stream");
    const unsigned char c = static_cast<unsigned char>(in[0]);
    in.RemovePrefix(1);
    if (c < 0x80) {
      const size_t len = static_cast<size_t>(c) + 1;
      if (in.size() < len) return Status::Corruption("lz: truncated literal");
      output->append(in.data(), len);
      in.RemovePrefix(len);
    } else {
      const size_t len = (c & 0x7f) + kMinMatch;
      uint32_t dist;
      if (!GetVarint32(&in, &dist) || dist == 0 || dist > output->size()) {
        return Status::Corruption("lz: bad match distance");
      }
      // Byte-by-byte copy: overlapping matches (dist < len) are legal and
      // reproduce run-length behaviour.
      size_t src = output->size() - dist;
      for (size_t i = 0; i < len; ++i) output->push_back((*output)[src + i]);
    }
  }
  if (output->size() != raw_size) return Status::Corruption("lz: size mismatch");
  return Status::OK();
}

}  // namespace lz

namespace {

// Fast single-probe hash-table LZ: one candidate position per 4-byte hash,
// greedy emission, 64 KiB window. Prioritizes speed over ratio like Snappy.
class SnappyLikeCodec : public Codec {
 public:
  const char* name() const override { return "snappy-like"; }
  CodecType type() const override { return CodecType::kSnappyLike; }

  Status Compress(const Slice& input, std::string* output) const override {
    output->clear();
    PutVarint64(output, input.size());
    const char* base = input.data();
    const char* end = base + input.size();
    const size_t n = input.size();

    if (n < lz::kMinMatch + 4) {
      if (n > 0) lz::EmitLiterals(base, n, output);
      return Status::OK();
    }

    constexpr size_t kHashBits = 14;
    constexpr size_t kWindow = 64 * 1024;
    std::vector<int32_t> table(size_t{1} << kHashBits, -1);

    size_t pos = 0;
    size_t literal_start = 0;
    const size_t limit = n - lz::kMinMatch;
    while (pos <= limit) {
      const uint32_t h =
          (lz::Load32(base + pos) * 0x9e3779b1U) >> (32 - kHashBits);
      const int32_t cand = table[h];
      table[h] = static_cast<int32_t>(pos);
      if (cand >= 0 && pos - static_cast<size_t>(cand) <= kWindow &&
          lz::Load32(base + cand) == lz::Load32(base + pos)) {
        const size_t len = lz::MatchLength(base + cand, base + pos, end);
        if (len >= lz::kMinMatch) {
          if (pos > literal_start) {
            lz::EmitLiterals(base + literal_start, pos - literal_start, output);
          }
          lz::EmitMatch(len, pos - static_cast<size_t>(cand), output);
          pos += len;
          literal_start = pos;
          continue;
        }
      }
      ++pos;
    }
    if (n > literal_start) {
      lz::EmitLiterals(base + literal_start, n - literal_start, output);
    }
    return Status::OK();
  }

  Status Decompress(const Slice& input, std::string* output) const override {
    return lz::LzDecompress(input, output);
  }
};

}  // namespace

const Codec* GetSnappyLikeCodec() {
  static SnappyLikeCodec codec;
  return &codec;
}

}  // namespace antimr
