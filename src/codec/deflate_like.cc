#include <algorithm>
#include <vector>

#include "codec/codec.h"
#include "codec/lz_internal.h"

namespace antimr {

namespace lz {

// Chained-hash LZ with bounded candidate search and lazy matching, spending
// more CPU than SnappyLikeCodec for a better ratio — the Deflate trade-off.
void DeflateCompress(const Slice& input, std::string* output) {
  PutVarint64(output, input.size());
  const char* base = input.data();
  const char* end = base + input.size();
  const size_t n = input.size();
  if (n < kMinMatch + 4) {
    if (n > 0) EmitLiterals(base, n, output);
    return;
  }

  constexpr size_t kHashBits = 15;
  constexpr size_t kWindow = 32 * 1024;
  constexpr int kMaxChain = 8;
  std::vector<int32_t> head(size_t{1} << kHashBits, -1);
  std::vector<int32_t> prev(n, -1);

  auto hash_at = [&](size_t p) {
    return (Load32(base + p) * 0x9e3779b1U) >> (32 - kHashBits);
  };
  auto insert = [&](size_t p) {
    const uint32_t h = hash_at(p);
    prev[p] = head[h];
    head[h] = static_cast<int32_t>(p);
  };
  // Longest match for p among the first kMaxChain chain candidates within
  // the window; the earliest candidate wins ties.
  auto best_match = [&](size_t p, size_t* best_len, size_t* best_dist) {
    *best_len = 0;
    *best_dist = 0;
    const size_t max_len = std::min(n - p, kMaxMatch);
    int32_t cand = head[hash_at(p)];
    int chain = 0;
    while (cand >= 0 && chain++ < kMaxChain) {
      const size_t dist = p - static_cast<size_t>(cand);
      if (dist > kWindow) break;
      // A candidate can beat best_len only if it also matches at offset
      // best_len, so one byte compare rejects most of them.
      if (base[cand + *best_len] == base[p + *best_len]) {
        const size_t len = MatchLength(base + cand, base + p, end);
        if (len > *best_len) {
          *best_len = len;
          *best_dist = dist;
          if (len >= max_len) break;
        }
      }
      cand = prev[cand];
    }
  };

  size_t pos = 0;
  size_t literal_start = 0;
  const size_t limit = n - kMinMatch;
  size_t len = 0, dist = 0;
  bool searched = false;  // len/dist already hold best_match(pos)
  while (pos <= limit) {
    if (!searched) best_match(pos, &len, &dist);
    searched = false;
    if (len >= kMinMatch) {
      // Lazy matching: prefer a strictly longer match starting one byte
      // later, as deflate does. Skipped for long matches (zlib's
      // good_length heuristic) to keep compression fast.
      if (len < 32 && pos + 1 <= limit) {
        insert(pos);
        size_t len2, dist2;
        best_match(pos + 1, &len2, &dist2);
        if (len2 > len + 1) {
          // Emit the current byte as a pending literal. Nothing is inserted
          // before the next iteration, so its search would find len2 again.
          ++pos;
          len = len2;
          dist = dist2;
          searched = true;
          continue;
        }
      }
      if (pos > literal_start) {
        EmitLiterals(base + literal_start, pos - literal_start, output);
      }
      EmitMatch(len, dist, output);
      const size_t match_end = pos + len;
      // Index positions inside the match (bounded to keep O(n)).
      if (pos + 1 <= limit) {
        const size_t idx_end = match_end <= limit ? match_end : limit + 1;
        for (size_t p = pos + 1; p < idx_end; ++p) insert(p);
      }
      pos = match_end;
      literal_start = pos;
    } else {
      insert(pos);
      ++pos;
    }
  }
  if (n > literal_start) {
    EmitLiterals(base + literal_start, n - literal_start, output);
  }
}

}  // namespace lz

namespace {

class DeflateLikeCodec : public Codec {
 public:
  const char* name() const override { return "deflate-like"; }
  CodecType type() const override { return CodecType::kDeflateLike; }

  Status Compress(const Slice& input, std::string* output) const override {
    output->clear();
    lz::DeflateCompress(input, output);
    return Status::OK();
  }

  Status Decompress(const Slice& input, std::string* output) const override {
    return lz::LzDecompress(input, output);
  }
};

}  // namespace

const Codec* GetDeflateLikeCodec() {
  static DeflateLikeCodec codec;
  return &codec;
}

}  // namespace antimr
