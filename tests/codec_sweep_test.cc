// Property sweep over the codecs: round-trips across a grid of sizes,
// entropy profiles, and seeds. Complements codec_test.cc's targeted cases
// with breadth.
#include <gtest/gtest.h>

#include "codec/codec.h"
#include "codec_inputs.h"

namespace antimr {
namespace {

using testing_codec::MakeInput;
using testing_codec::Profile;
using testing_codec::ProfileName;

struct SweepParam {
  CodecType codec;
  Profile profile;
};

class CodecSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(CodecSweep, RoundTripsAcrossSizes) {
  const Codec* codec = GetCodec(GetParam().codec);
  for (size_t size : {size_t{0}, size_t{1}, size_t{2}, size_t{7}, size_t{64},
                      size_t{1000}, size_t{65535}, size_t{65536},
                      size_t{65537}, size_t{200000}}) {
    for (uint64_t seed : {1u, 2u}) {
      const std::string input = MakeInput(GetParam().profile, size, seed);
      std::string compressed, restored;
      ASSERT_TRUE(codec->Compress(input, &compressed).ok())
          << codec->name() << " size=" << size;
      ASSERT_TRUE(codec->Decompress(compressed, &restored).ok())
          << codec->name() << " size=" << size;
      ASSERT_EQ(restored, input) << codec->name() << " size=" << size;
    }
  }
}

std::vector<SweepParam> Grid() {
  std::vector<SweepParam> grid;
  for (CodecType codec : {CodecType::kSnappyLike, CodecType::kDeflateLike,
                          CodecType::kGzip, CodecType::kBzip2Like}) {
    for (Profile profile : testing_codec::kAllProfiles) {
      grid.push_back({codec, profile});
    }
  }
  return grid;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CodecSweep, ::testing::ValuesIn(Grid()),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      std::string name = CodecTypeName(info.param.codec);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_" + ProfileName(info.param.profile);
    });

TEST(CodecSweep, CompressionIsDeterministic) {
  const std::string input = MakeInput(Profile::kText, 50000, 3);
  for (CodecType type : {CodecType::kSnappyLike, CodecType::kGzip,
                         CodecType::kBzip2Like}) {
    std::string a, b;
    ASSERT_TRUE(GetCodec(type)->Compress(input, &a).ok());
    ASSERT_TRUE(GetCodec(type)->Compress(input, &b).ok());
    EXPECT_EQ(a, b) << CodecTypeName(type);
  }
}

}  // namespace
}  // namespace antimr
