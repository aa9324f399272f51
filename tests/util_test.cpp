#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "util/bits.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace specure::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 3);
}

TEST(Rng, BelowRespectsBound) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowZeroIsZero) {
  Rng rng(7);
  EXPECT_EQ(rng.below(0), 0u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.range(5, 8);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 8u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);  // All four values should appear.
}

TEST(Rng, ChanceExtremes) {
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0, 10));
    EXPECT_TRUE(rng.chance(10, 10));
  }
}

TEST(Rng, Uniform01InRange) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, ForkIndependent) {
  Rng parent(21);
  Rng child = parent.fork();
  // Child stream should not equal the parent's continued stream.
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (parent.next() == child.next());
  EXPECT_LT(same, 3);
}

TEST(Bits, Mask) {
  EXPECT_EQ(mask(0), 0u);
  EXPECT_EQ(mask(1), 1u);
  EXPECT_EQ(mask(12), 0xfffu);
  EXPECT_EQ(mask(64), ~0ULL);
}

TEST(Bits, Extract) {
  EXPECT_EQ(bits(0xdeadbeef, 0, 4), 0xfu);
  EXPECT_EQ(bits(0xdeadbeef, 28, 4), 0xdu);
  EXPECT_EQ(bit(0x8, 3), 1u);
  EXPECT_EQ(bit(0x8, 2), 0u);
}

TEST(Bits, SignExtend) {
  EXPECT_EQ(sext(0xfff, 12), -1);
  EXPECT_EQ(sext(0x7ff, 12), 0x7ff);
  EXPECT_EQ(sext(0x800, 12), -2048);
  EXPECT_EQ(sext(0xffffffff, 32), -1);
  EXPECT_EQ(sext(5, 64), 5);
}

TEST(Bits, ToggledBits) {
  EXPECT_EQ(toggled_bits(0, 0), 0u);
  EXPECT_EQ(toggled_bits(0, 0xff), 8u);
  EXPECT_EQ(toggled_bits(0b1010, 0b0101), 4u);
}

TEST(Bits, NextPow2) {
  EXPECT_EQ(next_pow2(0), 1u);
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(1024), 1024u);
  EXPECT_EQ(next_pow2(1025), 2048u);
}

TEST(Strings, Split) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  hi  "), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(starts_with("top.df1.q", "top."));
  EXPECT_FALSE(starts_with("top", "top."));
  EXPECT_TRUE(ends_with("rob_unsafe", "unsafe"));
  EXPECT_FALSE(ends_with("q", "df1.q"));
}

TEST(Strings, Hex) {
  EXPECT_EQ(hex(0xdeadbeef), "deadbeef");
  EXPECT_EQ(hex(0, 4), "0000");
  EXPECT_EQ(hex0x(255), "0xff");
  EXPECT_EQ(hex(0x1, 8), "00000001");
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, "."), "a.b.c");
  EXPECT_EQ(join({}, "."), "");
  EXPECT_EQ(join({"x"}, "."), "x");
}

TEST(Json, JsonEscaping) {
  EXPECT_EQ(escape_json("plain"), "plain");
  EXPECT_EQ(escape_json("a\"b"), "a\\\"b");
  EXPECT_EQ(escape_json("a\\b"), "a\\\\b");
  EXPECT_EQ(escape_json("a\nb"), "a\\nb");
  EXPECT_EQ(escape_json(std::string(1, '\x01')), "\\u0001");
}

TEST(Json, EveryByteRoundTripsThroughEscapeAndParse) {
  std::string all;
  for (int b = 0; b < 256; ++b) all.push_back(static_cast<char>(b));
  for (int b = 0; b < 256; ++b) {
    const std::string one(1, static_cast<char>(b));
    const Json parsed = parse_json("\"" + escape_json(one) + "\"");
    ASSERT_EQ(parsed.kind, Json::Kind::kString) << b;
    EXPECT_EQ(parsed.text, one) << b;
  }
  EXPECT_EQ(parse_json("\"" + escape_json(all) + "\"").text, all);
}

std::string nested_arrays(int depth) {
  return std::string(static_cast<std::size_t>(depth), '[') +
         std::string(static_cast<std::size_t>(depth), ']');
}

TEST(Json, NestingIsBoundedAtMaxDepth) {
  const Json deepest = parse_json(nested_arrays(kMaxJsonDepth));
  EXPECT_EQ(deepest.kind, Json::Kind::kArray);
  try {
    parse_json(nested_arrays(kMaxJsonDepth + 1));
    FAIL() << "depth " << kMaxJsonDepth + 1 << " parsed";
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("nesting deeper than 64 levels"),
              std::string::npos)
        << e.what();
  }
  // Far past the bound (a fifth of a serve frame) fails just as politely.
  EXPECT_THROW(parse_json(std::string(200000, '[')), JsonError);
  EXPECT_THROW(parse_json(std::string(100000, '{') + "\"k\":"), JsonError);
}

TEST(Json, MalformedInputThrowsWithALineNumber) {
  std::vector<std::string> inputs = {
      "",
      "1-2",
      "1e5e5",
      "-",
      "01",
      "1.",
      ".5",
      "tru",
      "nul",
      "{\"a\": 1} trailing",
      "[1, 2]]",
      "\"raw\nnewline\"",
      "\"\\u12\"",
      "\"\\u12g4\"",
      "\"\\uZZZZ\"",
      "\"\\u00",
      "\"\\x\"",
      "\"unterminated",
      "{\"a\": 1",
      "{\"a\"",
      "{\"a\": }",
      "{1: 2}",
      "[1, 2",
      "[1,]",
      "\n\n[",
  };
  // Every proper prefix of a valid request is malformed too.
  const std::string request =
      "{\"verb\": \"events\", \"id\": \"c0001\", \"from\": 12, "
      "\"follow\": false}";
  EXPECT_NO_THROW(parse_json(request));
  for (std::size_t n = 0; n < request.size(); ++n) {
    inputs.push_back(request.substr(0, n));
  }
  for (const std::string& input : inputs) {
    try {
      parse_json(input);
      ADD_FAILURE() << "parsed: " << input;
    } catch (const JsonError& e) {
      EXPECT_GE(e.line(), 1) << input;
      EXPECT_EQ(std::string(e.what()).rfind("line ", 0), 0u) << e.what();
    }
  }
  try {
    parse_json("\n\n[");
  } catch (const JsonError& e) {
    EXPECT_EQ(e.line(), 3);
  }
}

TEST(Json, NumbersKeepTheirSourceText) {
  const Json doc =
      parse_json("[18446744073709551615, 1.5e3, -2, 18446744073709551616]");
  ASSERT_EQ(doc.items.size(), 4u);
  EXPECT_EQ(doc.items[0].text, "18446744073709551615");
  EXPECT_EQ(doc.items[0].as_u64(), 18446744073709551615ull);
  EXPECT_DOUBLE_EQ(doc.items[1].number, 1500);
  EXPECT_FALSE(doc.items[1].as_u64().has_value());
  EXPECT_DOUBLE_EQ(doc.items[2].number, -2);
  EXPECT_FALSE(doc.items[2].as_u64().has_value());
  EXPECT_FALSE(doc.items[3].as_u64().has_value());
}

}  // namespace
}  // namespace specure::util
