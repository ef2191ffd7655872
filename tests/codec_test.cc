// Codec round-trip and robustness tests, parameterized over all codecs, plus
// codec-specific ratio/behaviour checks.
#include "codec/codec.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "common/coding.h"
#include "common/random.h"

namespace antimr {
namespace {

class CodecRoundTrip : public ::testing::TestWithParam<CodecType> {
 protected:
  void ExpectRoundTrip(const std::string& input) {
    const Codec* codec = GetCodec(GetParam());
    std::string compressed, restored;
    ASSERT_TRUE(codec->Compress(input, &compressed).ok());
    ASSERT_TRUE(codec->Decompress(compressed, &restored).ok())
        << codec->name() << " size=" << input.size();
    EXPECT_EQ(restored, input) << codec->name();
  }
};

TEST_P(CodecRoundTrip, Empty) { ExpectRoundTrip(""); }

TEST_P(CodecRoundTrip, SingleByte) { ExpectRoundTrip("x"); }

TEST_P(CodecRoundTrip, ShortAscii) { ExpectRoundTrip("hello world"); }

TEST_P(CodecRoundTrip, AllSameByte) {
  ExpectRoundTrip(std::string(100000, 'a'));
}

TEST_P(CodecRoundTrip, Periodic) {
  std::string s;
  while (s.size() < 50000) s += "abcabcabz";
  ExpectRoundTrip(s);
}

TEST_P(CodecRoundTrip, RandomBinary) {
  Random rng(1);
  std::string s;
  for (int i = 0; i < 30000; ++i) {
    s.push_back(static_cast<char>(rng.Next() & 0xff));
  }
  ExpectRoundTrip(s);
}

TEST_P(CodecRoundTrip, TextLike) {
  Random rng(2);
  static const char* words[] = {"the", "map", "reduce", "shuffle", "key",
                                "value", "network", "combiner"};
  std::string s;
  while (s.size() < 200000) {
    s += words[rng.Uniform(8)];
    s.push_back(' ');
  }
  ExpectRoundTrip(s);
}

TEST_P(CodecRoundTrip, AllByteValues) {
  std::string s;
  for (int round = 0; round < 300; ++round) {
    for (int b = 0; b < 256; ++b) s.push_back(static_cast<char>(b));
  }
  ExpectRoundTrip(s);
}

TEST_P(CodecRoundTrip, SpansMultipleBwtBlocks) {
  // > 64 KiB forces multiple blocks in the bzip2-like codec.
  Random rng(3);
  std::string s;
  while (s.size() < 200000) {
    s += "record_" + std::to_string(rng.Uniform(500)) + ";";
  }
  ExpectRoundTrip(s);
}

INSTANTIATE_TEST_SUITE_P(
    AllCodecs, CodecRoundTrip,
    ::testing::Values(CodecType::kNone, CodecType::kSnappyLike,
                      CodecType::kDeflateLike, CodecType::kGzip,
                      CodecType::kBzip2Like),
    [](const ::testing::TestParamInfo<CodecType>& info) {
      std::string name = CodecTypeName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(Codec, RedundantInputCompresses) {
  std::string s;
  while (s.size() < 100000) s += "the same phrase again and again. ";
  for (CodecType type : {CodecType::kSnappyLike, CodecType::kDeflateLike,
                         CodecType::kGzip, CodecType::kBzip2Like}) {
    std::string compressed;
    ASSERT_TRUE(GetCodec(type)->Compress(s, &compressed).ok());
    EXPECT_LT(compressed.size(), s.size() / 4) << CodecTypeName(type);
  }
}

TEST(Codec, DeflateBeatsSnappyOnRatio) {
  Random rng(5);
  static const char* words[] = {"alpha", "beta", "gamma", "delta", "epsilon"};
  std::string s;
  while (s.size() < 150000) {
    s += words[rng.Uniform(5)];
    s.push_back(' ');
  }
  std::string snappy_out, deflate_out;
  ASSERT_TRUE(
      GetCodec(CodecType::kSnappyLike)->Compress(s, &snappy_out).ok());
  ASSERT_TRUE(
      GetCodec(CodecType::kDeflateLike)->Compress(s, &deflate_out).ok());
  EXPECT_LT(deflate_out.size(), snappy_out.size());
}

TEST(Codec, GzipIsDeflatePlusFraming) {
  const std::string s(5000, 'q');
  std::string gzip_out, deflate_out;
  ASSERT_TRUE(GetCodec(CodecType::kGzip)->Compress(s, &gzip_out).ok());
  ASSERT_TRUE(
      GetCodec(CodecType::kDeflateLike)->Compress(s, &deflate_out).ok());
  EXPECT_EQ(gzip_out.size(), deflate_out.size() + 18);
}

TEST(Codec, GzipDetectsCorruption) {
  const Codec* gzip = GetCodec(CodecType::kGzip);
  std::string compressed;
  ASSERT_TRUE(gzip->Compress(std::string(1000, 'g'), &compressed).ok());
  std::string restored;
  // Flip a payload bit: CRC must catch it (or the LZ decode fails first).
  std::string corrupted = compressed;
  corrupted[12] ^= 0x40;
  EXPECT_FALSE(gzip->Decompress(corrupted, &restored).ok());
  // Bad magic.
  corrupted = compressed;
  corrupted[0] = 'X';
  EXPECT_TRUE(gzip->Decompress(corrupted, &restored).IsCorruption());
  // Truncation.
  EXPECT_TRUE(gzip->Decompress(Slice(compressed.data(), 10), &restored)
                  .IsCorruption());
}

TEST(Codec, LzRejectsTruncatedStream) {
  const Codec* codec = GetCodec(CodecType::kSnappyLike);
  std::string compressed;
  ASSERT_TRUE(codec->Compress(std::string(1000, 'a'), &compressed).ok());
  std::string restored;
  EXPECT_TRUE(
      codec->Decompress(Slice(compressed.data(), compressed.size() / 2),
                        &restored)
          .IsCorruption());
}

// Every truncation and every single-byte flip of a small LZ stream (raw,
// deflate-like, or gzip-framed) either fails as Corruption or decodes to
// exactly the size its header claims; run under ASan, no damaged stream may
// read or write out of bounds.
TEST(Codec, LzDecoderSurvivesDamagedStreams) {
  std::string input;
  Random rng(3);
  static const char* words[] = {"map", "reduce", "shuffle", "sharedvalue"};
  while (input.size() < 400) {
    input += words[rng.Uniform(4)];
    input += std::string(rng.Uniform(3), 'z');  // short overlapping matches
  }
  for (const CodecType type : {CodecType::kSnappyLike,
                               CodecType::kDeflateLike, CodecType::kGzip}) {
    const Codec* codec = GetCodec(type);
    // The LZ stream starts after gzip's 10-byte header.
    const size_t lz_start = type == CodecType::kGzip ? 10 : 0;
    std::string compressed;
    ASSERT_TRUE(codec->Compress(input, &compressed).ok());
    auto check = [&](const std::string& damaged, const std::string& what) {
      std::string restored;
      const Status st = codec->Decompress(damaged, &restored);
      if (!st.ok()) {
        EXPECT_TRUE(st.IsCorruption()) << codec->name() << " " << what << ": "
                                       << st.ToString();
        return;
      }
      Slice header(damaged);
      header.RemovePrefix(std::min(lz_start, header.size()));
      uint64_t raw_size = 0;
      ASSERT_TRUE(GetVarint64(&header, &raw_size)) << codec->name() << what;
      EXPECT_EQ(restored.size(), raw_size) << codec->name() << " " << what;
    };
    for (size_t n = 0; n < compressed.size(); ++n) {
      check(compressed.substr(0, n), "truncated to " + std::to_string(n));
    }
    for (size_t i = 0; i < compressed.size(); ++i) {
      for (const unsigned char mask : {0x01, 0x10, 0x80, 0xff}) {
        std::string damaged = compressed;
        damaged[i] = static_cast<char>(damaged[i] ^ mask);
        check(damaged, "byte " + std::to_string(i) + " ^ " +
                           std::to_string(mask));
      }
    }
  }
}

// A five-byte distance varint whose last byte carries bits beyond 32 is
// Corruption, not the distance its low 32 bits spell (here 1).
TEST(Codec, LzDistanceBeyond32BitsIsCorruption) {
  std::string s;
  PutVarint64(&s, 12);
  s += std::string("\x07" "abcdefgh", 9);              // 8-byte literal
  s += std::string("\x80" "\x81\x80\x80\x80\x10", 6);  // len 4, 2^32 + 1
  std::string restored;
  for (const CodecType type : {CodecType::kSnappyLike,
                               CodecType::kDeflateLike}) {
    EXPECT_TRUE(GetCodec(type)->Decompress(s, &restored).IsCorruption())
        << CodecTypeName(type);
  }
}

TEST(Codec, Bzip2RejectsGarbage) {
  std::string restored;
  EXPECT_FALSE(GetCodec(CodecType::kBzip2Like)
                   ->Decompress(Slice("not a valid stream at all"), &restored)
                   .ok());
}

// A size header claiming 1 TiB must come back as Corruption, not as an
// allocation of the claimed size.
constexpr uint64_t kOneTiB = uint64_t{1} << 40;

std::string LzHugeHeader() {
  std::string s;
  PutVarint64(&s, kOneTiB);
  s += std::string("\x02" "abc", 4);  // one 3-byte literal run
  return s;
}

TEST(Codec, SnappyHugeSizeHeaderIsCorruption) {
  std::string restored;
  EXPECT_TRUE(GetCodec(CodecType::kSnappyLike)
                  ->Decompress(LzHugeHeader(), &restored)
                  .IsCorruption());
}

TEST(Codec, DeflateHugeSizeHeaderIsCorruption) {
  std::string restored;
  EXPECT_TRUE(GetCodec(CodecType::kDeflateLike)
                  ->Decompress(LzHugeHeader(), &restored)
                  .IsCorruption());
}

TEST(Codec, GzipHugeSizeHeaderIsCorruption) {
  std::string s("\x1f\x8b\x08\x00\x00\x00\x00\x00\x00\x03", 10);
  s += LzHugeHeader();
  PutFixed32(&s, 0);  // crc
  PutFixed32(&s, 0);  // size
  std::string restored;
  EXPECT_TRUE(
      GetCodec(CodecType::kGzip)->Decompress(s, &restored).IsCorruption());
}

TEST(Codec, Bzip2HugeSizeHeaderIsCorruption) {
  std::string s;
  PutVarint64(&s, kOneTiB);
  s += "garb";
  std::string restored;
  EXPECT_TRUE(
      GetCodec(CodecType::kBzip2Like)->Decompress(s, &restored).IsCorruption());
}

// One bzip2-like block of 100 bytes around a hand-built Huffman payload.
std::string Bzip2Block(const std::string& payload) {
  std::string s;
  PutVarint64(&s, 100);  // raw size
  PutVarint64(&s, 100);  // block length
  PutVarint32(&s, 0);    // primary index
  PutVarint64(&s, payload.size());
  return s + payload;
}

TEST(Codec, Bzip2HugeCodedCountIsCorruption) {
  std::string payload;
  PutVarint32(&payload, 1);  // one symbol: 'a' with a 1-bit code
  payload += "a\x01";
  PutVarint64(&payload, kOneTiB);  // coded symbols claimed
  payload.push_back('\0');
  std::string restored;
  EXPECT_TRUE(GetCodec(CodecType::kBzip2Like)
                  ->Decompress(Bzip2Block(payload), &restored)
                  .IsCorruption());
}

TEST(Codec, Bzip2HugeRunLengthIsCorruption) {
  // Decodes to "aaaa" + varint(2^40): a run-length layer run of 1 TiB + 4.
  // Canonical codes: 'a' = 0, 0x20 = 10, 0x80 = 11.
  std::string payload;
  PutVarint32(&payload, 3);
  payload += std::string("a\x01\x20\x02\x80\x02", 6);
  PutVarint64(&payload, 10);                    // a a a a 80 80 80 80 80 20
  payload += std::string("\x0f\xfe", 2);        // 0000 1111111111 10
  std::string restored;
  EXPECT_TRUE(GetCodec(CodecType::kBzip2Like)
                  ->Decompress(Bzip2Block(payload), &restored)
                  .IsCorruption());
}

TEST(Codec, NameLookup) {
  EXPECT_TRUE(CodecTypeFromName("gzip").ok());
  EXPECT_EQ(CodecTypeFromName("gzip").value(), CodecType::kGzip);
  EXPECT_EQ(CodecTypeFromName("none").value(), CodecType::kNone);
  EXPECT_EQ(CodecTypeFromName("snappy").value(), CodecType::kSnappyLike);
  EXPECT_EQ(CodecTypeFromName("deflate").value(), CodecType::kDeflateLike);
  EXPECT_EQ(CodecTypeFromName("bzip2").value(), CodecType::kBzip2Like);
  EXPECT_TRUE(CodecTypeFromName("lzma").status().IsInvalidArgument());
}

}  // namespace
}  // namespace antimr
