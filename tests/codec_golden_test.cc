// Golden byte-identity test: pins the Hash64 of every codec's Compress output
// on fixed seeded inputs. A compressor change that alters match choices or
// framing moves shuffle and disk bytes; round-trip and determinism tests do
// not notice that, this test does. A faster codec must keep these values.
#include <gtest/gtest.h>

#include <iterator>

#include "codec/codec.h"
#include "codec_inputs.h"
#include "common/hash.h"

namespace antimr {
namespace {

using testing_codec::MakeInput;
using testing_codec::Profile;
using testing_codec::ProfileName;

struct Golden {
  CodecType codec;
  Profile profile;
  size_t size;
  uint64_t hash;
};

// Input seed 1 for every row.
constexpr Golden kGolden[] = {
    {CodecType::kSnappyLike, Profile::kRandom, 1000, 0x0141af8b34c2f6c5ULL},
    {CodecType::kSnappyLike, Profile::kRandom, 65536, 0x1054c0a1eb19722cULL},
    {CodecType::kSnappyLike, Profile::kRandom, 200000, 0x693d4d1e0df0df85ULL},
    {CodecType::kSnappyLike, Profile::kText, 1000, 0x3be0b10db9991b44ULL},
    {CodecType::kSnappyLike, Profile::kText, 65536, 0x8a0260e9c2a05833ULL},
    {CodecType::kSnappyLike, Profile::kText, 200000, 0x47363c7cdec3c262ULL},
    {CodecType::kSnappyLike, Profile::kRuns, 1000, 0x5b6f0d63295e475dULL},
    {CodecType::kSnappyLike, Profile::kRuns, 65536, 0xac03f7669e403a64ULL},
    {CodecType::kSnappyLike, Profile::kRuns, 200000, 0x29d7720f35cc4a5cULL},
    {CodecType::kSnappyLike, Profile::kNearlyConstant, 1000,
     0xd02e641871fbf4deULL},
    {CodecType::kSnappyLike, Profile::kNearlyConstant, 65536,
     0xc1241999e9327739ULL},
    {CodecType::kSnappyLike, Profile::kNearlyConstant, 200000,
     0x7da3b6dcda3fbea6ULL},
    {CodecType::kSnappyLike, Profile::kStructured, 1000, 0x2b3917dd317d8847ULL},
    {CodecType::kSnappyLike, Profile::kStructured, 65536,
     0x770975e5ea77fc6dULL},
    {CodecType::kSnappyLike, Profile::kStructured, 200000,
     0xec3db7c32dc6fbe3ULL},
    {CodecType::kDeflateLike, Profile::kRandom, 1000, 0x0141af8b34c2f6c5ULL},
    {CodecType::kDeflateLike, Profile::kRandom, 65536, 0x1054c0a1eb19722cULL},
    {CodecType::kDeflateLike, Profile::kRandom, 200000, 0x38e9714ad0409e6fULL},
    {CodecType::kDeflateLike, Profile::kText, 1000, 0x0c40abefd89bc75dULL},
    {CodecType::kDeflateLike, Profile::kText, 65536, 0x6d62614c5d0cdd81ULL},
    {CodecType::kDeflateLike, Profile::kText, 200000, 0xf73780b05da0a35eULL},
    {CodecType::kDeflateLike, Profile::kRuns, 1000, 0x8ef30fee614581dfULL},
    {CodecType::kDeflateLike, Profile::kRuns, 65536, 0x1841eb5731901e3bULL},
    {CodecType::kDeflateLike, Profile::kRuns, 200000, 0x731a997bd20fca14ULL},
    {CodecType::kDeflateLike, Profile::kNearlyConstant, 1000,
     0x026eee2495f01734ULL},
    {CodecType::kDeflateLike, Profile::kNearlyConstant, 65536,
     0xfd92dbbb7f7cc8e7ULL},
    {CodecType::kDeflateLike, Profile::kNearlyConstant, 200000,
     0x6dddcee54a6442d7ULL},
    {CodecType::kDeflateLike, Profile::kStructured, 1000,
     0xdd966ba3d9b79143ULL},
    {CodecType::kDeflateLike, Profile::kStructured, 65536,
     0xf4fe2de7f33d796bULL},
    {CodecType::kDeflateLike, Profile::kStructured, 200000,
     0x79676d75b9f35fbbULL},
    {CodecType::kGzip, Profile::kRandom, 1000, 0x25bf02e6310561f9ULL},
    {CodecType::kGzip, Profile::kRandom, 65536, 0xbbab73a9cf429e26ULL},
    {CodecType::kGzip, Profile::kRandom, 200000, 0xb84716a3098cad04ULL},
    {CodecType::kGzip, Profile::kText, 1000, 0xdea88d592c53c916ULL},
    {CodecType::kGzip, Profile::kText, 65536, 0x225536de0f11eca3ULL},
    {CodecType::kGzip, Profile::kText, 200000, 0x0077aec3ec333227ULL},
    {CodecType::kGzip, Profile::kRuns, 1000, 0xa72e202658644e49ULL},
    {CodecType::kGzip, Profile::kRuns, 65536, 0x009156971d213c83ULL},
    {CodecType::kGzip, Profile::kRuns, 200000, 0xbaab1d3f0d111e46ULL},
    {CodecType::kGzip, Profile::kNearlyConstant, 1000, 0x60e8501eec56eda2ULL},
    {CodecType::kGzip, Profile::kNearlyConstant, 65536, 0xe428e087e65edfaeULL},
    {CodecType::kGzip, Profile::kNearlyConstant, 200000, 0x216a2b5971969383ULL},
    {CodecType::kGzip, Profile::kStructured, 1000, 0x6f9c49e4e95636e1ULL},
    {CodecType::kGzip, Profile::kStructured, 65536, 0x3ac3c9dfded4cda7ULL},
    {CodecType::kGzip, Profile::kStructured, 200000, 0xa0383d6a1c63bc55ULL},
    {CodecType::kBzip2Like, Profile::kRandom, 1000, 0x34333c16ce3fbb74ULL},
    {CodecType::kBzip2Like, Profile::kRandom, 65536, 0x5aa6347eba231f55ULL},
    {CodecType::kBzip2Like, Profile::kRandom, 200000, 0x297a75e132e2ba43ULL},
    {CodecType::kBzip2Like, Profile::kText, 1000, 0x92f79dc36efc347eULL},
    {CodecType::kBzip2Like, Profile::kText, 65536, 0xc6e60be4f830ef24ULL},
    {CodecType::kBzip2Like, Profile::kText, 200000, 0x03703e2fe188bec1ULL},
    {CodecType::kBzip2Like, Profile::kRuns, 1000, 0x904aa4a180edeb8aULL},
    {CodecType::kBzip2Like, Profile::kRuns, 65536, 0x47da2ff5ea8e7d0dULL},
    {CodecType::kBzip2Like, Profile::kRuns, 200000, 0x634a9ee74a8b70caULL},
    {CodecType::kBzip2Like, Profile::kNearlyConstant, 1000,
     0x6521774620d196b7ULL},
    {CodecType::kBzip2Like, Profile::kNearlyConstant, 65536,
     0x482f194412573e23ULL},
    {CodecType::kBzip2Like, Profile::kNearlyConstant, 200000,
     0xaccc236b91691c6bULL},
    {CodecType::kBzip2Like, Profile::kStructured, 1000, 0x35af0a0b515c8229ULL},
    {CodecType::kBzip2Like, Profile::kStructured, 65536, 0xc5c5a15097d85911ULL},
    {CodecType::kBzip2Like, Profile::kStructured, 200000,
     0xe4bed4c241bb298fULL},
};

constexpr CodecType kCodecs[] = {CodecType::kSnappyLike,
                                 CodecType::kDeflateLike, CodecType::kGzip,
                                 CodecType::kBzip2Like};
constexpr size_t kSizes[] = {1000, 65536, 200000};

TEST(CodecGolden, CompressedBytesArePinned) {
  size_t checked = 0;
  for (CodecType codec : kCodecs) {
    for (Profile profile : testing_codec::kAllProfiles) {
      for (size_t size : kSizes) {
        const std::string input = MakeInput(profile, size, 1);
        std::string compressed;
        ASSERT_TRUE(GetCodec(codec)->Compress(input, &compressed).ok());
        const uint64_t hash = Hash64(compressed);
        const Golden* want = nullptr;
        for (const Golden& g : kGolden) {
          if (g.codec == codec && g.profile == profile && g.size == size) {
            want = &g;
          }
        }
        if (want == nullptr) {
          ADD_FAILURE() << "no golden row for " << CodecTypeName(codec) << " "
                        << ProfileName(profile) << " size=" << size
                        << " hash=0x" << std::hex << hash;
          continue;
        }
        EXPECT_EQ(want->hash, hash)
            << CodecTypeName(codec) << " " << ProfileName(profile)
            << " size=" << size << " hash=0x" << std::hex << hash;
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, std::size(kGolden));
}

}  // namespace
}  // namespace antimr
