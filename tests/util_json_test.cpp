#include "util/json.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "util/rng.h"

namespace mm::util {
namespace {

/// Writes `value` as the only field of an object and returns its token.
template <typename T>
std::string token_of(T value) {
  std::ostringstream out;
  JsonWriter(out).begin_object().field("v", value).end_object();
  const std::string text = out.str();
  const std::string prefix = "{\n  \"v\": ";
  EXPECT_EQ(text.substr(0, prefix.size()), prefix);
  EXPECT_EQ(text.substr(text.size() - 3), "\n}\n");
  return text.substr(prefix.size(), text.size() - prefix.size() - 3);
}

TEST(JsonWriter, NestingAndCommaPlacement) {
  std::ostringstream out;
  JsonWriter json(out);
  json.begin_object();
  json.field("name", "x").field("n", 3);
  json.begin_object("inner").field("ok", true).end_object();
  json.begin_object("empty_object").end_object();
  json.begin_array("empty_array").end_array();
  json.begin_array("rows");
  json.begin_object().field("a", 1).end_object();
  json.begin_object().field("a", 2).field("b", false).end_object();
  json.begin_array().end_array();
  json.end_array();
  json.end_object();
  EXPECT_EQ(out.str(),
            "{\n"
            "  \"name\": \"x\",\n"
            "  \"n\": 3,\n"
            "  \"inner\": {\n"
            "    \"ok\": true\n"
            "  },\n"
            "  \"empty_object\": {},\n"
            "  \"empty_array\": [],\n"
            "  \"rows\": [\n"
            "    {\n"
            "      \"a\": 1\n"
            "    },\n"
            "    {\n"
            "      \"a\": 2,\n"
            "      \"b\": false\n"
            "    },\n"
            "    []\n"
            "  ]\n"
            "}\n");
}

TEST(JsonWriter, TopLevelArrayAndEmptyObject) {
  std::ostringstream empty;
  JsonWriter(empty).begin_object().end_object();
  EXPECT_EQ(empty.str(), "{}\n");

  std::ostringstream rows;
  JsonWriter(rows).begin_array().begin_object().end_object().end_array();
  EXPECT_EQ(rows.str(), "[\n  {}\n]\n");
}

TEST(JsonWriter, EscapesStringsAndKeys) {
  EXPECT_EQ(json_escape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("line\nnext"), "line\\nnext");
  EXPECT_EQ(json_escape("col\tcol"), "col\\tcol");
  EXPECT_EQ(json_escape("\x01"), "\\u0001");
  EXPECT_EQ(json_escape(std::string("\x1f\r", 2)), "\\u001f\\u000d");
  EXPECT_EQ(json_escape("caf\xc3\xa9"), "caf\xc3\xa9");  // UTF-8 passes through

  EXPECT_EQ(token_of("q\"\\\n\t\x01"), "\"q\\\"\\\\\\n\\t\\u0001\"");
  std::ostringstream out;
  JsonWriter(out).begin_object().field("k\"", 1).end_object();
  EXPECT_EQ(out.str(), "{\n  \"k\\\"\": 1\n}\n");
}

TEST(JsonWriter, IntegersAreExact) {
  EXPECT_EQ(token_of(std::numeric_limits<std::uint64_t>::max()), "18446744073709551615");
  EXPECT_EQ(token_of(std::numeric_limits<std::int64_t>::min()), "-9223372036854775808");
  EXPECT_EQ(token_of(std::size_t{0}), "0");
  EXPECT_EQ(token_of(-7), "-7");
  EXPECT_EQ(token_of(std::uint32_t{4000000000u}), "4000000000");
}

TEST(JsonWriter, BoolsAndStringLiterals) {
  EXPECT_EQ(token_of(true), "true");
  EXPECT_EQ(token_of(false), "false");
  // A literal must not decay to bool.
  EXPECT_EQ(token_of("arena"), "\"arena\"");
  EXPECT_EQ(token_of(std::string("s")), "\"s\"");
}

TEST(JsonWriter, DoublesRoundTripBitEqual) {
  std::vector<double> values = {0.0,
                                -0.0,
                                1.0,
                                0.1,
                                -2.5,
                                1e300,
                                -1e300,
                                1e-300,
                                std::numeric_limits<double>::denorm_min(),
                                std::numeric_limits<double>::min() / 3.0,
                                std::numeric_limits<double>::max(),
                                std::numeric_limits<double>::lowest(),
                                std::numeric_limits<double>::epsilon()};
  Rng rng(0x15015);
  for (int i = 0; i < 2000; ++i) {
    // Arbitrary bit patterns cover every exponent; keep the finite ones.
    const double d = std::bit_cast<double>(rng.next_u64());
    if (std::isfinite(d)) values.push_back(d);
    values.push_back(rng.uniform(-1e6, 1e6));
  }
  for (const double v : values) {
    const std::string token = token_of(v);
    char* end = nullptr;
    const double back = std::strtod(token.c_str(), &end);
    ASSERT_EQ(end, token.c_str() + token.size()) << token;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back), std::bit_cast<std::uint64_t>(v))
        << token;
  }
  EXPECT_EQ(token_of(-0.0), "-0");
  EXPECT_EQ(token_of(0.5), "0.5");
}

TEST(JsonWriter, NonFiniteDoublesAreNull) {
  EXPECT_EQ(token_of(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(token_of(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(token_of(-std::numeric_limits<double>::infinity()), "null");
}

TEST(JsonWriter, WriteJsonFileReportsFailure) {
  EXPECT_FALSE(write_json_file("/nonexistent_dir_for_json_test/x.json",
                               [](JsonWriter& json) { json.begin_object().end_object(); }));

  const std::string path =
      (std::string(::testing::TempDir()) + "util_json_test_ok.json");
  ASSERT_TRUE(write_json_file(path, [](JsonWriter& json) {
    json.begin_object().field("n", 1).end_object();
  }));
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  EXPECT_EQ(text.str(), "{\n  \"n\": 1\n}\n");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mm::util
