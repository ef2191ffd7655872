#include "anticombine/encoding.h"

#include <gtest/gtest.h>

namespace antimr {
namespace anticombine {
namespace {

TEST(Encoding, EagerRoundTrip) {
  std::vector<Slice> other_keys = {Slice("man"), Slice("mango")};
  std::string payload;
  EncodeEagerPayload(other_keys, Slice("mango"), &payload);

  Encoding encoding;
  Slice rest;
  ASSERT_TRUE(GetEncoding(payload, &encoding, &rest).ok());
  EXPECT_EQ(encoding, Encoding::kEager);
  std::vector<Slice> decoded_keys;
  Slice value;
  ASSERT_TRUE(DecodeEagerPayload(rest, &decoded_keys, &value).ok());
  ASSERT_EQ(decoded_keys.size(), 2u);
  EXPECT_EQ(decoded_keys[0].ToString(), "man");
  EXPECT_EQ(decoded_keys[1].ToString(), "mango");
  EXPECT_EQ(value.ToString(), "mango");
}

TEST(Encoding, EagerEmptyKeySetIsPlain) {
  std::string payload;
  EncodeEagerPayload({}, Slice("value"), &payload);
  // flag + varint(0) + value: exactly 2 bytes of overhead (Section 7.1).
  EXPECT_EQ(payload.size(), 2u + 5u);

  Encoding encoding;
  Slice rest;
  ASSERT_TRUE(GetEncoding(payload, &encoding, &rest).ok());
  std::vector<Slice> keys;
  Slice value;
  ASSERT_TRUE(DecodeEagerPayload(rest, &keys, &value).ok());
  EXPECT_TRUE(keys.empty());
  EXPECT_EQ(value.ToString(), "value");
}

TEST(Encoding, EagerEmptyValue) {
  std::string payload;
  EncodeEagerPayload(std::vector<Slice>{Slice("k2")}, Slice(""), &payload);
  Encoding encoding;
  Slice rest;
  ASSERT_TRUE(GetEncoding(payload, &encoding, &rest).ok());
  std::vector<Slice> keys;
  Slice value;
  ASSERT_TRUE(DecodeEagerPayload(rest, &keys, &value).ok());
  ASSERT_EQ(keys.size(), 1u);
  EXPECT_TRUE(value.empty());
}

TEST(Encoding, EagerSizePredictionExact) {
  for (const auto& value : {std::string(""), std::string("v"),
                            std::string(300, 'x')}) {
    std::vector<Slice> keys = {Slice("alpha"), Slice("beta-very-long-key"),
                               Slice("")};
    std::string payload;
    EncodeEagerPayload(keys, value, &payload);
    EXPECT_EQ(payload.size(), EagerPayloadSize(keys, value));
  }
}

TEST(Encoding, LazyRoundTrip) {
  std::string payload;
  EncodeLazyPayload(Slice("user1"), Slice("watch how i met your mother"),
                    &payload);
  Encoding encoding;
  Slice rest;
  ASSERT_TRUE(GetEncoding(payload, &encoding, &rest).ok());
  EXPECT_EQ(encoding, Encoding::kLazy);
  Slice input_key, input_value;
  ASSERT_TRUE(DecodeLazyPayload(rest, &input_key, &input_value).ok());
  EXPECT_EQ(input_key.ToString(), "user1");
  EXPECT_EQ(input_value.ToString(), "watch how i met your mother");
}

TEST(Encoding, LazySizePredictionExact) {
  std::string payload;
  EncodeLazyPayload(Slice("k"), Slice(std::string(200, 'q')), &payload);
  EXPECT_EQ(payload.size(), LazyPayloadSize(Slice("k"),
                                            Slice(std::string(200, 'q'))));
}

TEST(Encoding, BinarySafety) {
  const std::string key1("\x00\x01", 2);
  const std::string key2("\xff\xfe", 2);
  const std::string value("\x80\x00\x7f", 3);
  std::string payload;
  EncodeEagerPayload(std::vector<Slice>{Slice(key1), Slice(key2)}, value, &payload);
  Encoding encoding;
  Slice rest;
  ASSERT_TRUE(GetEncoding(payload, &encoding, &rest).ok());
  std::vector<Slice> keys;
  Slice decoded_value;
  ASSERT_TRUE(DecodeEagerPayload(rest, &keys, &decoded_value).ok());
  EXPECT_EQ(keys[0].ToString(), key1);
  EXPECT_EQ(keys[1].ToString(), key2);
  EXPECT_EQ(decoded_value.ToString(), value);
}

TEST(Encoding, RejectsEmptyPayload) {
  Encoding encoding;
  Slice rest;
  EXPECT_TRUE(GetEncoding(Slice(), &encoding, &rest).IsCorruption());
}

TEST(Encoding, RejectsBadFlag) {
  Encoding encoding;
  Slice rest;
  EXPECT_TRUE(GetEncoding(Slice("\x07payload"), &encoding, &rest)
                  .IsCorruption());
}

// Flag 2 is not an encoding: a stray byte 2 (say, an EagerSH payload with
// its key list rewritten to ids) must not reach the decoders' non-EagerSH
// branch and be misparsed as a LazySH record.
TEST(Encoding, RejectsFlagTwo) {
  const std::string payload("\x02\x01\x00value", 8);
  Encoding encoding;
  Slice rest;
  EXPECT_TRUE(GetEncoding(Slice(payload), &encoding, &rest).IsCorruption());
}

TEST(Encoding, RejectsTruncatedEagerKeys) {
  std::string payload;
  EncodeEagerPayload(std::vector<Slice>{Slice("a-long-key-name")}, Slice("v"), &payload);
  Encoding encoding;
  Slice rest;
  ASSERT_TRUE(
      GetEncoding(Slice(payload.data(), 4), &encoding, &rest).ok());
  std::vector<Slice> keys;
  Slice value;
  EXPECT_TRUE(DecodeEagerPayload(rest, &keys, &value).IsCorruption());
}

// The key count is untrusted: a few bytes claiming 2^24 keys must be
// rejected before anything is sized from the count. Every stored key takes
// at least its one-byte length prefix, so the count cannot exceed the bytes
// that follow it.
TEST(Encoding, RejectsKeyCountLargerThanPayload) {
  std::string rest;
  PutVarint32(&rest, 1u << 24);
  rest.append("abc");
  std::vector<Slice> keys;
  Slice value;
  EXPECT_TRUE(DecodeEagerPayload(rest, &keys, &value).IsCorruption());
  EXPECT_LE(keys.capacity(), rest.size());
}

TEST(Encoding, ManyKeys) {
  std::vector<std::string> storage;
  std::vector<Slice> keys;
  for (int i = 0; i < 1000; ++i) {
    storage.push_back("key_" + std::to_string(i));
  }
  for (const auto& s : storage) keys.push_back(s);
  std::string payload;
  EncodeEagerPayload(keys, Slice("shared"), &payload);
  Encoding encoding;
  Slice rest;
  ASSERT_TRUE(GetEncoding(payload, &encoding, &rest).ok());
  std::vector<Slice> decoded;
  Slice value;
  ASSERT_TRUE(DecodeEagerPayload(rest, &decoded, &value).ok());
  ASSERT_EQ(decoded.size(), 1000u);
  EXPECT_EQ(decoded[999].ToString(), "key_999");
  EXPECT_EQ(value.ToString(), "shared");
}

}  // namespace
}  // namespace anticombine
}  // namespace antimr
