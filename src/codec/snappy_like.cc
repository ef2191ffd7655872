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
  // Sized once; the slack lets a match copy whole 8-byte words past its
  // end. Trimmed to raw_size at the end.
  constexpr size_t kSlack = 16;
  output->resize(static_cast<size_t>(raw_size) + kSlack);
  char* const base = output->data();
  char* op = base;
  char* const op_end = base + raw_size;
  const char* ip = in.data();
  const char* const ip_end = ip + in.size();
  while (op < op_end) {
    if (ip == ip_end) return Status::Corruption("lz: truncated stream");
    const unsigned char c = static_cast<unsigned char>(*ip++);
    size_t len;
    if (c < 0x80) {
      len = static_cast<size_t>(c) + 1;
      if (static_cast<size_t>(ip_end - ip) < len) {
        return Status::Corruption("lz: truncated literal");
      }
      if (len > static_cast<size_t>(op_end - op)) break;
      std::memcpy(op, ip, len);
      ip += len;
    } else {
      len = (c & 0x7f) + kMinMatch;
      uint32_t dist = 0;
      const char* next = GetVarint32Ptr(ip, ip_end, &dist);
      // A fifth varint byte above 0x0f carries bits beyond 32, which
      // GetVarint32Ptr drops.
      if (next == nullptr ||
          (next - ip == 5 && static_cast<unsigned char>(next[-1]) > 0x0f) ||
          dist == 0 || dist > static_cast<size_t>(op - base)) {
        return Status::Corruption("lz: bad match distance");
      }
      ip = next;
      if (len > static_cast<size_t>(op_end - op)) break;
      const char* src = op - dist;
      if (dist >= 8) {
        // Each word reads only bytes already final; the last may write up
        // to 7 bytes past the match, into the next op's room or the slack.
        for (size_t i = 0; i < len; i += 8) std::memcpy(op + i, src + i, 8);
      } else {
        // Overlapping match (dist < 8): byte by byte reproduces the
        // run-length behaviour.
        for (size_t i = 0; i < len; ++i) op[i] = src[i];
      }
    }
    op += len;
  }
  if (op != op_end) return Status::Corruption("lz: size mismatch");
  output->resize(static_cast<size_t>(raw_size));
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
