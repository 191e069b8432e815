// The JSON substrate of the artifact layer: deterministic bytes out,
// bit-exact doubles through a round trip, and loud errors on bad input.
#include "support/json.hpp"

#include <cmath>
#include <cstring>
#include <limits>

#include <gtest/gtest.h>

#include "random/rng.hpp"
#include "support/error.hpp"

namespace {

using srm::support::Json;

double round_trip(double value) {
  const Json parsed = Json::parse(Json(value).dump());
  return parsed.as_double();
}

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(Json, ScalarDumpForms) {
  EXPECT_EQ(Json().dump(), "null");
  EXPECT_EQ(Json(true).dump(), "true");
  EXPECT_EQ(Json(false).dump(), "false");
  EXPECT_EQ(Json(std::int64_t{42}).dump(), "42");
  EXPECT_EQ(Json(-7).dump(), "-7");
  EXPECT_EQ(Json(1.5).dump(), "1.5");
  EXPECT_EQ(Json("hi").dump(), "\"hi\"");
}

TEST(Json, IntegralDoublesKeepTheirType) {
  // 3.0 must not come back as the integer 3 — the ".0" suffix keeps the
  // numeric type (and with it bit-exactness for -0.0) through a round trip.
  EXPECT_EQ(Json(3.0).dump(), "3.0");
  const Json parsed = Json::parse("3.0");
  EXPECT_TRUE(parsed.is_double());
  EXPECT_FALSE(parsed.is_int());
}

TEST(Json, NegativeZeroSurvives) {
  EXPECT_EQ(Json(-0.0).dump(), "-0.0");
  EXPECT_TRUE(bits_equal(round_trip(-0.0), -0.0));
  EXPECT_TRUE(bits_equal(round_trip(0.0), 0.0));
}

TEST(Json, ExtremeDoublesRoundTripBitExactly) {
  const double cases[] = {
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max(),
      std::numeric_limits<double>::epsilon(),
      0.1,
      1.0 / 3.0,
      6.02214076e23,
      -1.7976931348623157e308,
      5e-324,
  };
  for (const double value : cases) {
    EXPECT_TRUE(bits_equal(round_trip(value), value))
        << "failed for " << Json::format_double(value);
  }
}

TEST(Json, NonFiniteKeywords) {
  EXPECT_EQ(Json(std::numeric_limits<double>::quiet_NaN()).dump(), "NaN");
  EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).dump(), "Infinity");
  EXPECT_EQ(Json(-std::numeric_limits<double>::infinity()).dump(),
            "-Infinity");
  EXPECT_TRUE(std::isnan(Json::parse("NaN").as_double()));
  EXPECT_TRUE(std::isinf(Json::parse("Infinity").as_double()));
  EXPECT_LT(Json::parse("-Infinity").as_double(), 0.0);
}

TEST(Json, RandomDoublesRoundTripBitExactly) {
  // Property check over the full double range: random bit patterns
  // (skipping NaNs, which never compare equal but have their own test).
  srm::random::Rng rng(20240806);
  for (int i = 0; i < 2000; ++i) {
    const auto bits = rng.next_u64();
    double value;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&value, &bits, sizeof(value));
    if (std::isnan(value)) continue;
    EXPECT_TRUE(bits_equal(round_trip(value), value))
        << "failed for bits " << bits;
  }
}

TEST(Json, ObjectsPreserveInsertionOrder) {
  Json json = Json::Object{};
  json.set("zebra", 1);
  json.set("apple", 2);
  json.set("mango", 3);
  EXPECT_EQ(json.dump(), "{\"zebra\":1,\"apple\":2,\"mango\":3}");
  // set() on an existing key overwrites in place, keeping the position.
  json.set("apple", 9);
  EXPECT_EQ(json.dump(), "{\"zebra\":1,\"apple\":9,\"mango\":3}");
}

TEST(Json, NestedValuesRoundTrip) {
  Json inner = Json::Object{};
  inner.set("pi", 3.14159);
  inner.set("ok", true);
  Json array = Json::Array{};
  array.push_back(1);
  array.push_back("two");
  array.push_back(std::move(inner));
  Json root = Json::Object{};
  root.set("items", std::move(array));
  root.set("n", 3);

  const std::string compact = root.dump();
  const Json parsed = Json::parse(compact);
  EXPECT_EQ(parsed.dump(), compact);
  EXPECT_EQ(parsed.at("items").as_array().size(), 3u);
  EXPECT_EQ(parsed.at("items").as_array()[2].at("ok").as_bool(), true);
  // The pretty form parses back to the same value.
  EXPECT_EQ(Json::parse(root.dump(2)).dump(), compact);
}

TEST(Json, PrettyFormEndsWithNewline) {
  Json json = Json::Object{};
  json.set("a", 1);
  const std::string pretty = json.dump(2);
  ASSERT_FALSE(pretty.empty());
  EXPECT_EQ(pretty.back(), '\n');
  EXPECT_NE(pretty.find("  \"a\": 1"), std::string::npos);
}

TEST(Json, StringEscapes) {
  const std::string raw = "line\nquote\"back\\slash\ttab\x01";
  const Json parsed = Json::parse(Json(raw).dump());
  EXPECT_EQ(parsed.as_string(), raw);
  EXPECT_NE(Json(raw).dump().find("\\u0001"), std::string::npos);
}

TEST(Json, UnicodeEscapesIncludingSurrogatePairs) {
  EXPECT_EQ(Json::parse("\"\\u0041\"").as_string(), "A");
  // U+1F600 as a surrogate pair -> 4-byte UTF-8.
  EXPECT_EQ(Json::parse("\"\\uD83D\\uDE00\"").as_string(), "\xF0\x9F\x98\x80");
}

TEST(Json, ParseErrors) {
  EXPECT_THROW(Json::parse(""), srm::InvalidArgument);
  EXPECT_THROW(Json::parse("{"), srm::InvalidArgument);
  EXPECT_THROW(Json::parse("[1,]"), srm::InvalidArgument);
  EXPECT_THROW(Json::parse("{\"a\":1,}"), srm::InvalidArgument);
  EXPECT_THROW(Json::parse("\"unterminated"), srm::InvalidArgument);
  EXPECT_THROW(Json::parse("1 2"), srm::InvalidArgument);
  EXPECT_THROW(Json::parse("tru"), srm::InvalidArgument);
  EXPECT_THROW(Json::parse("\"\\uD83D\""), srm::InvalidArgument);
  // Parse errors are plain messages (a serve line quotes them verbatim).
  try {
    (void)Json::parse("{} x");
    ADD_FAILURE() << "trailing characters accepted";
  } catch (const srm::InvalidArgument& e) {
    EXPECT_STREQ(e.what(), "JSON: trailing characters at offset 3");
  }
}

TEST(Json, TypeMismatchesThrow) {
  const Json json = Json::parse("{\"a\":1}");
  EXPECT_THROW((void)json.as_string(), srm::InvalidArgument);
  EXPECT_THROW((void)json.at("a").as_bool(), srm::InvalidArgument);
  EXPECT_THROW((void)json.at("missing"), srm::InvalidArgument);
  EXPECT_EQ(json.find("missing"), nullptr);
  EXPECT_NE(json.find("a"), nullptr);
}

TEST(Json, UnsignedHandling) {
  EXPECT_EQ(Json::from_unsigned(7).dump(), "7");
  EXPECT_THROW(Json::from_unsigned(std::numeric_limits<std::uint64_t>::max()),
               srm::InvalidArgument);
  EXPECT_THROW((void)Json(-1).as_unsigned(), srm::InvalidArgument);
  EXPECT_EQ(Json(5).as_unsigned(), 5u);
}

TEST(Json, Int64Limits) {
  const auto max = std::numeric_limits<std::int64_t>::max();
  const auto min = std::numeric_limits<std::int64_t>::min();
  EXPECT_EQ(Json::parse(Json(max).dump()).as_int(), max);
  EXPECT_EQ(Json::parse(Json(min).dump()).as_int(), min);
  // Integer literals beyond int64 fall back to double instead of failing.
  EXPECT_TRUE(Json::parse("92233720368547758080").is_double());
}

}  // namespace
