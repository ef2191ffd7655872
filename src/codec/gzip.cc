#include <cstring>

#include "codec/codec.h"
#include "codec/crc32.h"
#include "codec/lz_internal.h"
#include "common/coding.h"

namespace antimr {

const Codec* GetDeflateLikeCodec();

namespace {

// Deflate payload wrapped in a gzip-style container: a 10-byte header plus an
// 8-byte CRC32/size trailer. Reproduces the real-world property that gzip is
// deflate plus fixed framing overhead and an integrity check.
class GzipCodec : public Codec {
 public:
  const char* name() const override { return "gzip"; }
  CodecType type() const override { return CodecType::kGzip; }

  Status Compress(const Slice& input, std::string* output) const override {
    output->clear();
    // Header: magic, method, flags, mtime(4), xfl, os — all fixed.
    static const char kHeader[10] = {'\x1f', '\x8b', 8, 0, 0, 0, 0, 0, 0, 3};
    output->append(kHeader, sizeof(kHeader));
    lz::DeflateCompress(input, output);
    PutFixed32(output, Crc32(0, input));
    PutFixed32(output, static_cast<uint32_t>(input.size()));
    return Status::OK();
  }

  Status Decompress(const Slice& input, std::string* output) const override {
    if (input.size() < 18) return Status::Corruption("gzip: too short");
    if (input[0] != '\x1f' || input[1] != '\x8b') {
      return Status::Corruption("gzip: bad magic");
    }
    Slice payload(input.data() + 10, input.size() - 18);
    ANTIMR_RETURN_NOT_OK(GetDeflateLikeCodec()->Decompress(payload, output));
    const char* trailer = input.data() + input.size() - 8;
    const uint32_t expected_crc = DecodeFixed32(trailer);
    const uint32_t expected_size = DecodeFixed32(trailer + 4);
    if (expected_size != static_cast<uint32_t>(output->size())) {
      return Status::Corruption("gzip: size mismatch");
    }
    if (expected_crc != Crc32(0, *output)) {
      return Status::Corruption("gzip: crc mismatch");
    }
    return Status::OK();
  }
};

}  // namespace

const Codec* GetGzipCodec() {
  static GzipCodec codec;
  return &codec;
}

}  // namespace antimr
