#include <algorithm>
#include <array>
#include <cstdint>
#include <numeric>
#include <queue>
#include <vector>

#include "codec/codec.h"
#include "common/coding.h"

namespace antimr {
namespace {

// Block-sorting codec in the bzip2 tradition: per 64 KiB block we apply a
// Burrows-Wheeler transform (rotation sort via prefix doubling), move-to-front
// coding, run-length coding, and a canonical Huffman entropy stage. The point
// is the *cost profile* — best ratio on text, highest CPU — matching bzip2's
// role in the paper's Table 1.

constexpr size_t kBlockSize = 64 * 1024;

// ---------------------------------------------------------------------------
// BWT of a block's rotations. Returns the last column and the index of the
// original string among the sorted rotations (needed to invert).
void BwtEncode(const unsigned char* s, size_t n, std::string* last_column,
               uint32_t* primary_index) {
  std::vector<int32_t> sa(n);
  std::iota(sa.begin(), sa.end(), 0);
  std::vector<int32_t> rank(n), tmp(n);
  for (size_t i = 0; i < n; ++i) rank[i] = s[i];

  for (size_t k = 1;; k <<= 1) {
    auto cmp = [&](int32_t a, int32_t b) {
      if (rank[a] != rank[b]) return rank[a] < rank[b];
      const int32_t ra = rank[(a + k) % n];
      const int32_t rb = rank[(b + k) % n];
      return ra < rb;
    };
    std::sort(sa.begin(), sa.end(), cmp);
    tmp[sa[0]] = 0;
    for (size_t i = 1; i < n; ++i) {
      tmp[sa[i]] = tmp[sa[i - 1]] + (cmp(sa[i - 1], sa[i]) ? 1 : 0);
    }
    rank = tmp;
    if (static_cast<size_t>(rank[sa[n - 1]]) == n - 1) break;
    if (k >= n) break;  // all rotations compared full-length; ties are equal
  }

  last_column->clear();
  last_column->reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const size_t j = (static_cast<size_t>(sa[i]) + n - 1) % n;
    last_column->push_back(static_cast<char>(s[j]));
    if (sa[i] == 0) *primary_index = static_cast<uint32_t>(i);
  }
}

void BwtDecode(const unsigned char* last, size_t n, uint32_t primary_index,
               std::string* out) {
  // LF-mapping inversion.
  std::array<uint32_t, 256> counts{};
  for (size_t i = 0; i < n; ++i) counts[last[i]]++;
  std::array<uint32_t, 256> starts{};
  uint32_t sum = 0;
  for (int c = 0; c < 256; ++c) {
    starts[c] = sum;
    sum += counts[c];
  }
  std::vector<uint32_t> lf(n);
  std::array<uint32_t, 256> seen{};
  for (size_t i = 0; i < n; ++i) {
    const unsigned char c = last[i];
    lf[i] = starts[c] + seen[c]++;
  }
  out->resize(n);
  uint32_t p = primary_index;
  for (size_t i = n; i-- > 0;) {
    (*out)[i] = static_cast<char>(last[p]);
    p = lf[p];
  }
}

// ---------------------------------------------------------------------------
// Move-to-front.
void MtfEncode(const std::string& in, std::string* out) {
  std::array<unsigned char, 256> order;
  for (int i = 0; i < 256; ++i) order[i] = static_cast<unsigned char>(i);
  out->clear();
  out->reserve(in.size());
  for (char ch : in) {
    const unsigned char c = static_cast<unsigned char>(ch);
    int idx = 0;
    while (order[idx] != c) ++idx;
    out->push_back(static_cast<char>(idx));
    for (int i = idx; i > 0; --i) order[i] = order[i - 1];
    order[0] = c;
  }
}

void MtfDecode(const std::string& in, std::string* out) {
  std::array<unsigned char, 256> order;
  for (int i = 0; i < 256; ++i) order[i] = static_cast<unsigned char>(i);
  out->clear();
  out->reserve(in.size());
  for (char ch : in) {
    const int idx = static_cast<unsigned char>(ch);
    const unsigned char c = order[idx];
    out->push_back(static_cast<char>(c));
    for (int i = idx; i > 0; --i) order[i] = order[i - 1];
    order[0] = c;
  }
}

// ---------------------------------------------------------------------------
// Run-length layer: a run of L >= 4 identical bytes is written as the byte
// four times followed by a varint of (L - 4).
void RleEncode(const std::string& in, std::string* out) {
  out->clear();
  size_t i = 0;
  while (i < in.size()) {
    size_t j = i;
    while (j < in.size() && in[j] == in[i]) ++j;
    const size_t run = j - i;
    if (run < 4) {
      out->append(run, in[i]);
    } else {
      out->append(4, in[i]);
      PutVarint64(out, run - 4);
    }
    i = j;
  }
}

// Fails with Corruption rather than produce more than `max_size` bytes.
Status RleDecode(const Slice& in_slice, size_t max_size, std::string* out) {
  Slice in = in_slice;
  out->clear();
  while (!in.empty()) {
    const char b = in[0];
    uint64_t run = 1;
    in.RemovePrefix(1);
    while (run < 4 && !in.empty() && in[0] == b) {
      ++run;
      in.RemovePrefix(1);
    }
    if (run == 4) {
      uint64_t extra;
      if (!GetVarint64(&in, &extra)) {
        return Status::Corruption("bzip2-like: truncated RLE run");
      }
      if (extra > max_size) {  // also keeps run + extra from wrapping
        return Status::Corruption("bzip2-like: RLE run exceeds block");
      }
      run += extra;
    }
    if (run > max_size - out->size()) {
      return Status::Corruption("bzip2-like: RLE run exceeds block");
    }
    out->append(static_cast<size_t>(run), b);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Canonical Huffman over bytes.

// Longest code length the decoder accepts. Code lengths grow with the log of
// a block's symbol count, so a 64 KiB block's codes are far shorter; below 32
// bits the canonical code arithmetic in uint32_t cannot overflow a shift.
constexpr int kMaxCodeLength = 31;

struct HuffCode {
  uint32_t bits = 0;
  uint8_t len = 0;
};

// Compute code lengths from frequencies (package-free heap construction).
void BuildCodeLengths(const std::array<uint64_t, 256>& freq,
                      std::array<uint8_t, 256>* lengths) {
  lengths->fill(0);
  struct Node {
    uint64_t weight;
    int index;  // < 256: leaf symbol; >= 256: internal node
  };
  auto cmp = [](const Node& a, const Node& b) {
    if (a.weight != b.weight) return a.weight > b.weight;
    return a.index > b.index;  // deterministic ties
  };
  std::priority_queue<Node, std::vector<Node>, decltype(cmp)> heap(cmp);
  std::vector<std::pair<int, int>> children;  // internal node -> (left, right)
  int present = 0;
  for (int s = 0; s < 256; ++s) {
    if (freq[s] > 0) {
      heap.push({freq[s], s});
      ++present;
    }
  }
  if (present == 0) return;
  if (present == 1) {
    for (int s = 0; s < 256; ++s) {
      if (freq[s] > 0) (*lengths)[s] = 1;
    }
    return;
  }
  while (heap.size() > 1) {
    Node a = heap.top();
    heap.pop();
    Node b = heap.top();
    heap.pop();
    const int id = 256 + static_cast<int>(children.size());
    children.emplace_back(a.index, b.index);
    heap.push({a.weight + b.weight, id});
  }
  // Depth-first traversal to assign depths.
  const int root = heap.top().index;
  std::vector<std::pair<int, int>> stack{{root, 0}};
  while (!stack.empty()) {
    auto [node, depth] = stack.back();
    stack.pop_back();
    if (node < 256) {
      (*lengths)[node] = static_cast<uint8_t>(depth);
    } else {
      const auto& [l, r] = children[node - 256];
      stack.push_back({l, depth + 1});
      stack.push_back({r, depth + 1});
    }
  }
}

// Assign canonical codes from lengths.
void AssignCanonical(const std::array<uint8_t, 256>& lengths,
                     std::array<HuffCode, 256>* codes) {
  std::vector<int> order;
  for (int s = 0; s < 256; ++s) {
    if (lengths[s] > 0) order.push_back(s);
  }
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    if (lengths[a] != lengths[b]) return lengths[a] < lengths[b];
    return a < b;
  });
  uint32_t code = 0;
  uint8_t prev_len = 0;
  for (int s : order) {
    code <<= (lengths[s] - prev_len);
    (*codes)[s] = {code, lengths[s]};
    prev_len = lengths[s];
    ++code;
  }
}

class BitWriter {
 public:
  explicit BitWriter(std::string* out) : out_(out) {}

  void Write(uint32_t bits, int nbits) {
    for (int i = nbits - 1; i >= 0; --i) {
      acc_ = (acc_ << 1) | ((bits >> i) & 1);
      if (++nacc_ == 8) {
        out_->push_back(static_cast<char>(acc_));
        acc_ = 0;
        nacc_ = 0;
      }
    }
  }

  void Finish() {
    if (nacc_ > 0) {
      acc_ <<= (8 - nacc_);
      out_->push_back(static_cast<char>(acc_));
      nacc_ = 0;
      acc_ = 0;
    }
  }

 private:
  std::string* out_;
  uint32_t acc_ = 0;
  int nacc_ = 0;
};

class BitReader {
 public:
  explicit BitReader(const Slice& data) : data_(data) {}

  bool ReadBit(int* bit) {
    if (pos_ >= data_.size() * 8) return false;
    const unsigned char byte = static_cast<unsigned char>(data_[pos_ >> 3]);
    *bit = (byte >> (7 - (pos_ & 7))) & 1;
    ++pos_;
    return true;
  }

 private:
  Slice data_;
  size_t pos_ = 0;
};

Status HuffmanEncode(const std::string& in, std::string* out) {
  std::array<uint64_t, 256> freq{};
  for (char c : in) freq[static_cast<unsigned char>(c)]++;
  std::array<uint8_t, 256> lengths;
  BuildCodeLengths(freq, &lengths);
  std::array<HuffCode, 256> codes{};
  AssignCanonical(lengths, &codes);

  // Symbol table: varint(n_syms) then (symbol, length) byte pairs.
  uint32_t n_syms = 0;
  for (int s = 0; s < 256; ++s) {
    if (lengths[s] > 0) ++n_syms;
  }
  PutVarint32(out, n_syms);
  for (int s = 0; s < 256; ++s) {
    if (lengths[s] > 0) {
      out->push_back(static_cast<char>(s));
      out->push_back(static_cast<char>(lengths[s]));
    }
  }
  PutVarint64(out, in.size());
  BitWriter bw(out);
  for (char c : in) {
    const HuffCode& hc = codes[static_cast<unsigned char>(c)];
    bw.Write(hc.bits, hc.len);
  }
  bw.Finish();
  return Status::OK();
}

Status HuffmanDecode(Slice* in, std::string* out) {
  uint32_t n_syms;
  if (!GetVarint32(in, &n_syms) || n_syms > 256) {
    return Status::Corruption("bzip2-like: bad symbol table");
  }
  std::array<uint8_t, 256> lengths{};
  if (in->size() < 2 * n_syms) {
    return Status::Corruption("bzip2-like: truncated symbol table");
  }
  for (uint32_t i = 0; i < n_syms; ++i) {
    const unsigned char sym = static_cast<unsigned char>((*in)[2 * i]);
    const unsigned char len = static_cast<unsigned char>((*in)[2 * i + 1]);
    if (len == 0 || len > kMaxCodeLength) {
      return Status::Corruption("bzip2-like: bad code length");
    }
    lengths[sym] = len;
  }
  in->RemovePrefix(2 * n_syms);
  uint64_t n_coded;
  if (!GetVarint64(in, &n_coded)) {
    return Status::Corruption("bzip2-like: missing coded count");
  }
  // Every coded symbol takes at least one bit.
  if (n_coded > uint64_t{in->size()} * 8) {
    return Status::Corruption("bzip2-like: coded count exceeds payload");
  }
  std::array<HuffCode, 256> codes{};
  AssignCanonical(lengths, &codes);

  // Canonical decode tables indexed by code length.
  constexpr int kMaxLen = kMaxCodeLength + 1;
  std::array<uint32_t, kMaxLen> first_code{};
  std::array<uint32_t, kMaxLen> first_index{};
  std::array<uint32_t, kMaxLen> count{};
  std::vector<int> order;
  for (int s = 0; s < 256; ++s) {
    if (lengths[s] > 0) order.push_back(s);
  }
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    if (lengths[a] != lengths[b]) return lengths[a] < lengths[b];
    return a < b;
  });
  for (size_t i = 0; i < order.size(); ++i) {
    const int s = order[i];
    const int len = lengths[s];
    if (count[len] == 0) {
      first_code[len] = codes[s].bits;
      first_index[len] = static_cast<uint32_t>(i);
    }
    count[len]++;
  }

  BitReader br(*in);
  out->clear();
  out->reserve(static_cast<size_t>(n_coded));
  for (uint64_t k = 0; k < n_coded; ++k) {
    uint32_t code = 0;
    int len = 0;
    while (true) {
      int bit;
      if (!br.ReadBit(&bit)) {
        return Status::Corruption("bzip2-like: bitstream underflow");
      }
      code = (code << 1) | static_cast<uint32_t>(bit);
      ++len;
      if (len >= kMaxLen) {
        return Status::Corruption("bzip2-like: code too long");
      }
      if (count[len] > 0 && code >= first_code[len] &&
          code < first_code[len] + count[len]) {
        const uint32_t idx = first_index[len] + (code - first_code[len]);
        out->push_back(static_cast<char>(order[idx]));
        break;
      }
    }
  }
  // The remaining bytes of *in belong to this payload; the caller tracks
  // block boundaries via explicit payload lengths, so consume everything.
  in->RemovePrefix(in->size());
  return Status::OK();
}

// ---------------------------------------------------------------------------

class Bzip2LikeCodec : public Codec {
 public:
  const char* name() const override { return "bzip2-like"; }
  CodecType type() const override { return CodecType::kBzip2Like; }

  Status Compress(const Slice& input, std::string* output) const override {
    output->clear();
    PutVarint64(output, input.size());
    size_t off = 0;
    while (off < input.size()) {
      const size_t block_len = std::min(kBlockSize, input.size() - off);
      std::string last_column;
      uint32_t primary = 0;
      BwtEncode(reinterpret_cast<const unsigned char*>(input.data() + off),
                block_len, &last_column, &primary);
      std::string mtf, rle, payload;
      MtfEncode(last_column, &mtf);
      RleEncode(mtf, &rle);
      ANTIMR_RETURN_NOT_OK(HuffmanEncode(rle, &payload));
      PutVarint64(output, block_len);
      PutVarint32(output, primary);
      PutVarint64(output, payload.size());
      output->append(payload);
      off += block_len;
    }
    return Status::OK();
  }

  Status Decompress(const Slice& input, std::string* output) const override {
    Slice in = input;
    uint64_t raw_size;
    if (!GetVarint64(&in, &raw_size)) {
      return Status::Corruption("bzip2-like: missing size");
    }
    // Every block takes at least 3 header bytes and yields at most
    // kBlockSize bytes, so a larger header is corrupt.
    if (raw_size > in.size() / 3 * kBlockSize) {
      return Status::Corruption("bzip2-like: size header exceeds stream");
    }
    output->clear();
    output->reserve(static_cast<size_t>(raw_size));
    while (output->size() < raw_size) {
      uint64_t block_len, payload_len;
      uint32_t primary;
      if (!GetVarint64(&in, &block_len) || !GetVarint32(&in, &primary) ||
          !GetVarint64(&in, &payload_len) || in.size() < payload_len ||
          block_len > kBlockSize) {
        return Status::Corruption("bzip2-like: bad block header");
      }
      Slice payload(in.data(), static_cast<size_t>(payload_len));
      in.RemovePrefix(static_cast<size_t>(payload_len));
      std::string rle, mtf, last_column, block;
      ANTIMR_RETURN_NOT_OK(HuffmanDecode(&payload, &rle));
      ANTIMR_RETURN_NOT_OK(
          RleDecode(rle, static_cast<size_t>(block_len), &mtf));
      MtfDecode(mtf, &last_column);
      if (last_column.size() != block_len ||
          primary >= last_column.size()) {
        return Status::Corruption("bzip2-like: block size mismatch");
      }
      BwtDecode(reinterpret_cast<const unsigned char*>(last_column.data()),
                last_column.size(), primary, &block);
      output->append(block);
    }
    if (output->size() != raw_size) {
      return Status::Corruption("bzip2-like: total size mismatch");
    }
    return Status::OK();
  }
};

}  // namespace

const Codec* GetBzip2LikeCodec() {
  static Bzip2LikeCodec codec;
  return &codec;
}

}  // namespace antimr
