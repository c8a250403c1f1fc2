// util::Json: parsing, exact-integer round trips, emission, and error
// positions — the substrate campaign files stand on.
#include "util/json.hpp"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

namespace secbus::util {
namespace {

Json parse_ok(const std::string& text) {
  Json j;
  std::string error;
  EXPECT_TRUE(Json::parse(text, j, &error)) << error;
  return j;
}

std::string parse_error(const std::string& text) {
  Json j;
  std::string error;
  EXPECT_FALSE(Json::parse(text, j, &error)) << "parsed: " << text;
  EXPECT_FALSE(error.empty());
  return error;
}

TEST(Json, ParsesPrimitives) {
  EXPECT_TRUE(parse_ok("null").is_null());
  EXPECT_TRUE(parse_ok("true").as_bool());
  EXPECT_FALSE(parse_ok("false").as_bool());
  EXPECT_EQ(parse_ok("\"hi\"").as_string(), "hi");
  EXPECT_DOUBLE_EQ(parse_ok("1.5").as_double(), 1.5);
  EXPECT_DOUBLE_EQ(parse_ok("-2e3").as_double(), -2000.0);
}

TEST(Json, IntegersAreExact) {
  // Full uint64 range: doubles would mangle this seed-sized value.
  const Json j = parse_ok("18446744073709551615");
  EXPECT_TRUE(j.is_integer());
  std::uint64_t u = 0;
  EXPECT_TRUE(j.to_u64(u));
  EXPECT_EQ(u, 18446744073709551615ULL);

  std::int64_t i = 0;
  EXPECT_TRUE(parse_ok("-9223372036854775808").to_i64(i));
  EXPECT_EQ(i, std::numeric_limits<std::int64_t>::min());

  // Fractions and exponents are not integers.
  EXPECT_FALSE(parse_ok("1.0").is_integer());
  EXPECT_FALSE(parse_ok("1e2").is_integer());
  EXPECT_FALSE(parse_ok("-1").to_u64(u));
}

TEST(Json, IntegerDumpRoundTrips) {
  const std::string text = "18446744073709551615";
  EXPECT_EQ(parse_ok(text).dump(0), text);
  EXPECT_EQ(Json::number(std::uint64_t{42}).dump(0), "42");
  EXPECT_EQ(Json::number(std::int64_t{-7}).dump(0), "-7");
}

TEST(Json, ObjectsKeepInsertionOrderAndSupportLookup) {
  const Json j = parse_ok(R"({"b": 1, "a": 2, "c": [1, 2, 3]})");
  ASSERT_TRUE(j.is_object());
  ASSERT_EQ(j.size(), 3u);
  EXPECT_EQ(j.members()[0].first, "b");
  EXPECT_EQ(j.members()[1].first, "a");
  ASSERT_NE(j.find("c"), nullptr);
  EXPECT_EQ(j.find("c")->items().size(), 3u);
  EXPECT_EQ(j.find("missing"), nullptr);
}

TEST(Json, StringEscapes) {
  const Json j = parse_ok(R"("a\"b\\c\ndAé")");
  EXPECT_EQ(j.as_string(), "a\"b\\c\nd" "A" "\xc3\xa9");
  // Surrogate pair -> 4-byte UTF-8.
  EXPECT_EQ(parse_ok(R"("😀")").as_string(), "\xf0\x9f\x98\x80");
}

TEST(Json, DumpParsesBack) {
  const std::string text =
      R"({"name":"x","n":3,"f":0.25,"flag":true,"none":null,)"
      R"("arr":[1,"two",{"k":"v"}]})";
  const Json j = parse_ok(text);
  const Json again = parse_ok(j.dump());       // pretty
  const Json compact = parse_ok(j.dump(0));    // compact
  EXPECT_EQ(again.dump(0), compact.dump(0));
  EXPECT_EQ(again.find("arr")->items()[2].find("k")->as_string(), "v");
}

TEST(Json, ErrorsCarryLineAndColumn) {
  EXPECT_NE(parse_error("{\n  \"a\": 1,\n  bad\n}").find("line 3"),
            std::string::npos);
  EXPECT_NE(parse_error("[1, 2,]").find("column"), std::string::npos);
}

TEST(Json, RejectsMalformedDocuments) {
  parse_error("");
  parse_error("{");
  parse_error("[1 2]");
  parse_error("{\"a\" 1}");
  parse_error("{\"a\": 1} extra");
  parse_error("01");
  parse_error("1.");
  parse_error("\"unterminated");
  parse_error("nulL");
  parse_error("{\"a\": 1, \"a\": 2}");  // duplicate keys rejected
}

TEST(Json, BuilderApi) {
  Json j = Json::object();
  j.set("x", Json::number(std::uint64_t{1}));
  j.set("x", Json::number(std::uint64_t{2}));  // replaces
  Json arr = Json::array();
  arr.push(Json::string("a"));
  j.set("list", std::move(arr));
  EXPECT_EQ(j.dump(0), R"({"x":2,"list":["a"]})");
}

// The rule doubles were printed by before JsonWriter existed: %.15g when
// strtod reads it back to the same value, else %.17g. Every emitted byte
// (result digests, spec fingerprints) was defined by it.
std::string legacy_double(double v) {
  if (!std::isfinite(v)) return "null";
  char longer[32];
  std::snprintf(longer, sizeof longer, "%.17g", v);
  char shorter[32];
  std::snprintf(shorter, sizeof shorter, "%.15g", v);
  return std::strtod(shorter, nullptr) == v ? shorter : longer;
}

std::string written(double v) {
  std::string out;
  JsonWriter(out).value(v);
  return out;
}

std::uint64_t bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

// Checks the writer against the legacy rule, and the reader against strtod
// on what was written.
void expect_legacy_format(double v) {
  const std::string text = written(v);
  ASSERT_EQ(text, legacy_double(v)) << "bits " << std::hex << bits(v);
  if (text == "null") return;
  Json parsed;
  ASSERT_TRUE(Json::parse(text, parsed)) << text;
  ASSERT_EQ(bits(parsed.as_double()), bits(std::strtod(text.c_str(), nullptr)))
      << text;
}

TEST(JsonWriter, DoublesMatchTheLegacyRuleOnRandomBitPatterns) {
  std::mt19937_64 rng(0x5EC0B05);
  for (int i = 0; i < 1'000'000; ++i) {
    const std::uint64_t b = rng();
    double v = 0.0;
    std::memcpy(&v, &b, sizeof v);
    expect_legacy_format(v);
  }
}

TEST(JsonWriter, DoublesMatchTheLegacyRuleOnShortDecimals) {
  // Values with few significant digits (rates, means of small integers,
  // config fractions) take the writer's and the reader's fast paths.
  std::mt19937_64 rng(7919);
  std::uniform_real_distribution<double> mag(-30.0, 30.0);
  for (int i = 0; i < 200'000; ++i) {
    char buf[40];
    const int digits = 1 + static_cast<int>(rng() % 17);
    std::snprintf(buf, sizeof buf, "%.*g", digits, std::pow(10.0, mag(rng)));
    expect_legacy_format(std::strtod(buf, nullptr));
    expect_legacy_format(static_cast<double>(rng() % 2'000'000'000'000'000ULL));
  }
}

TEST(JsonWriter, DoublesMatchTheLegacyRuleAtEdges) {
  std::vector<double> edges = {
      0.0, -0.0, 1.0, -1.0, 0.1, 0.2 + 0.1, 1.0 / 3.0,
      DBL_MAX, -DBL_MAX, DBL_MIN, -DBL_MIN, DBL_TRUE_MIN, -DBL_TRUE_MIN,
      DBL_MIN / 3.0, 1e15, 1e15 - 1, 1e15 + 1, 1e16, 1e16 + 2, 1e-5, 1e-4,
      1e22, 1e23, 1e-22, 1e-23, 9007199254740992.0, 9007199254740993.0,
      123456789012345678.0, 4.94065645841247e-324, 2.2250738585072014e-308};
  for (int e = -1074; e <= 1023; ++e) edges.push_back(std::ldexp(1.0, e));
  for (const double base : {1e15, 1e16, 1e-5, 1e-4, 1e22}) {
    double below = base;
    double above = base;
    for (int step = 0; step < 64; ++step) {
      below = std::nextafter(below, 0.0);
      above = std::nextafter(above, DBL_MAX);
      edges.push_back(below);
      edges.push_back(above);
    }
  }
  for (const double v : edges) {
    expect_legacy_format(v);
    expect_legacy_format(-v);
  }
  // DBL_MAX's %.15g lexeme overflows when read back: not a round trip.
  EXPECT_EQ(written(DBL_MAX), "1.7976931348623157e+308");
  EXPECT_EQ(written(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(written(std::nan("")), "null");
}

TEST(Json, OutOfRangeExponentsParseLikeStrtod) {
  // The tree keeps strtod's results for lexemes beyond double range...
  EXPECT_TRUE(std::isinf(parse_ok("1e400").as_double()));
  EXPECT_TRUE(std::isinf(parse_ok("-1e400").as_double()));
  EXPECT_EQ(parse_ok("1e-400").as_double(), 0.0);
  EXPECT_EQ(parse_ok("1e400").dump(0), "null");
  // ...while a typed read refuses them: they cannot re-serialize.
  JsonReader r("1e400");
  double v = 0.0;
  EXPECT_FALSE(r.read(v));
  EXPECT_FALSE(r.error().empty());
}

TEST(Json, NegativeZeroKeepsItsSign) {
  EXPECT_EQ(parse_ok("-0").dump(0), "-0");
  EXPECT_TRUE(std::signbit(parse_ok("-0").as_double()));
  EXPECT_EQ(parse_ok("0").dump(0), "0");
}

TEST(JsonWriter, PrettyOutputMatchesDump) {
  const Json j = parse_ok(
      R"({"a":[1,{"b":[],"c":{}},"x\ny"],"d":-2.5,"e":null,"f":true})");
  std::string out;
  JsonWriter w(out, 2);
  w.value(j);
  EXPECT_EQ(out + "\n", j.dump());
  EXPECT_EQ(j.dump(), "{\n  \"a\": [\n    1,\n    {\n      \"b\": [],\n"
                      "      \"c\": {}\n    },\n    \"x\\ny\"\n  ],\n"
                      "  \"d\": -2.5,\n  \"e\": null,\n  \"f\": true\n}\n");
}

TEST(JsonWriter, EscapesKeysAndStrings) {
  std::string out;
  JsonWriter w(out);
  w.begin_object().key(std::string("k\"\x01")).value("\b\f\r\t\\").end_object();
  EXPECT_EQ(out, R"({"k\"\u0001":"\b\f\r\t\\"})");
}

// A tiny two-direction schema, the pattern the result files use.
struct Point {
  std::uint64_t x = 0;
  std::string label;
  double weight = 0.0;
};

template <typename Io, typename P>
bool point_members(Io& io, P& p) {
  return io.object([&] {
    return io.member("x", p.x) && io.member("label", p.label) &&
           io.optional("weight", p.weight != 0.0, p.weight);
  });
}

bool read_point(std::string_view text, Point& p, std::string* error) {
  JsonReader r(text);
  if (point_members(r, p) && r.finish()) return true;
  *error = r.error();
  return false;
}

TEST(JsonReader, SchemaRoundTripsAndRejectsDeviations) {
  std::string text;
  JsonWriter w(text);
  const Point in{7, "seven", 0.5};
  point_members(w, in);
  EXPECT_EQ(text, R"({"x":7,"label":"seven","weight":0.5})");
  Point out;
  std::string error;
  ASSERT_TRUE(read_point(text, out, &error)) << error;
  EXPECT_EQ(out.x, 7u);
  EXPECT_EQ(out.label, "seven");
  EXPECT_EQ(out.weight, 0.5);
  // Whitespace and the optional member's absence are fine.
  ASSERT_TRUE(read_point("{ \"x\" : 1 ,\n \"label\": \"\" }", out, &error))
      << error;

  const char* bad[] = {
      R"({"x":1,"x":1,"label":"a"})",          // repeated member
      R"({"label":"a","x":1})",                // out of order
      R"({"x":1})",                            // missing member
      R"({"x":1,"label":"a","extra":2})",      // unknown member
      R"({"x":-1,"label":"a"})",               // not a u64
      R"({"x":1.5,"label":"a"})",              // not an integer
      R"({"x":1,"label":7})",                  // not a string
      R"({"x":1,"label":"a","weight":1e999})", // out of double range
      R"({"x":1,"label":"a"} trailing)",
      R"({"x":1,"label":"a")",
  };
  for (const char* text_bad : bad) {
    error.clear();
    EXPECT_FALSE(read_point(text_bad, out, &error)) << text_bad;
    EXPECT_NE(error.find("line 1, column"), std::string::npos) << error;
  }
  error.clear();
  EXPECT_FALSE(read_point(R"({"x":"1","label":"a"})", out, &error));
  EXPECT_EQ(error.rfind("x: ", 0), 0u) << error;  // names the member
}

}  // namespace
}  // namespace secbus::util
