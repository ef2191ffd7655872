#include "common/json.h"

#include <gtest/gtest.h>

#include <string>

namespace antimr {
namespace {

std::string Quoted(const std::string& s) {
  std::string out;
  AppendJsonString(&out, s);
  return out;
}

TEST(Json, EscapesQuoteBackslashAndControlCharacters) {
  EXPECT_EQ(Quoted(""), "\"\"");
  EXPECT_EQ(Quoted("plain/ascii:1"), "\"plain/ascii:1\"");
  EXPECT_EQ(Quoted("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(Quoted("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(Quoted("a\nb"), "\"a\\nb\"");
  EXPECT_EQ(Quoted("a\tb"), "\"a\\tb\"");
  EXPECT_EQ(Quoted("a\rb"), "\"a\\rb\"");
  EXPECT_EQ(Quoted(std::string("a\x01" "b")), "\"a\\u0001b\"");
  EXPECT_EQ(Quoted(std::string("\x1f")), "\"\\u001f\"");
  // Bytes at or above 0x20 (including UTF-8 sequences) pass through.
  EXPECT_EQ(Quoted("\x7f\xc3\xa9"), "\"\x7f\xc3\xa9\"");
}

TEST(Json, AppendsToExistingContent) {
  std::string out = "{\"k\": ";
  AppendJsonString(&out, "v");
  out += "}";
  EXPECT_EQ(out, "{\"k\": \"v\"}");
}

}  // namespace
}  // namespace antimr
