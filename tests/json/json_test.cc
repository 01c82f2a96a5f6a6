#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "podium/core/instance.h"
#include "podium/datagen/generator.h"
#include "podium/json/parser.h"
#include "podium/json/value.h"
#include "podium/json/writer.h"
#include "podium/util/rng.h"

namespace podium::json {
namespace {

Value MustParse(std::string_view text) {
  Result<Value> result = Parse(text);
  EXPECT_TRUE(result.ok()) << result.status();
  return result.ok() ? std::move(result).value() : Value();
}

TEST(JsonParseTest, Scalars) {
  EXPECT_TRUE(MustParse("null").is_null());
  EXPECT_EQ(MustParse("true").AsBool(), true);
  EXPECT_EQ(MustParse("false").AsBool(), false);
  EXPECT_DOUBLE_EQ(MustParse("42").AsNumber(), 42.0);
  EXPECT_DOUBLE_EQ(MustParse("-3.25").AsNumber(), -3.25);
  EXPECT_DOUBLE_EQ(MustParse("1e3").AsNumber(), 1000.0);
  EXPECT_DOUBLE_EQ(MustParse("2.5E-2").AsNumber(), 0.025);
  EXPECT_EQ(MustParse("\"hi\"").AsString(), "hi");
}

TEST(JsonParseTest, WhitespaceTolerated) {
  const Value v = MustParse("  {\n\t\"a\" : [ 1 , 2 ] \r\n} ");
  ASSERT_TRUE(v.is_object());
  const Value* a = v.AsObject().Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  EXPECT_EQ(a->AsArray().size(), 2u);
}

TEST(JsonParseTest, NestedStructures) {
  const Value v = MustParse(R"({"users":[{"name":"Alice","scores":{"x":0.5}}]})");
  const Value* users = v.AsObject().Find("users");
  ASSERT_NE(users, nullptr);
  const Value& alice = users->AsArray().at(0);
  EXPECT_EQ(alice.AsObject().Find("name")->AsString(), "Alice");
  EXPECT_DOUBLE_EQ(
      alice.AsObject().Find("scores")->AsObject().Find("x")->AsNumber(), 0.5);
}

TEST(JsonParseTest, StringEscapes) {
  EXPECT_EQ(MustParse(R"("a\"b\\c\/d\b\f\n\r\t")").AsString(),
            "a\"b\\c/d\b\f\n\r\t");
}

TEST(JsonParseTest, UnicodeEscapes) {
  EXPECT_EQ(MustParse(R"("\u0041")").AsString(), "A");
  EXPECT_EQ(MustParse(R"("\u00e9")").AsString(), "\xC3\xA9");      // e-acute
  EXPECT_EQ(MustParse(R"("\u4e2d")").AsString(), "\xE4\xB8\xAD");  // CJK
  // Surrogate pair decoding: U+1F600.
  EXPECT_EQ(MustParse(R"("\ud83d\ude00")").AsString(), "\xF0\x9F\x98\x80");
  // Raw UTF-8 bytes pass through untouched.
  EXPECT_EQ(MustParse("\"\xC3\xA9\"").AsString(), "\xC3\xA9");
}

TEST(JsonParseTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(Parse("").ok());
  EXPECT_FALSE(Parse("{").ok());
  EXPECT_FALSE(Parse("[1,]").ok());
  EXPECT_FALSE(Parse("{\"a\":}").ok());
  EXPECT_FALSE(Parse("{\"a\" 1}").ok());
  EXPECT_FALSE(Parse("tru").ok());
  EXPECT_FALSE(Parse("01").ok());
  EXPECT_FALSE(Parse("1.").ok());
  EXPECT_FALSE(Parse("+1").ok());
  EXPECT_FALSE(Parse("\"unterminated").ok());
  EXPECT_FALSE(Parse(R"("\q")").ok());
  EXPECT_FALSE(Parse(R"("\u12")").ok());
  EXPECT_FALSE(Parse(R"("\ud83d")").ok());  // unpaired high surrogate
  EXPECT_FALSE(Parse(R"("\ude00")").ok());  // unpaired low surrogate
  EXPECT_FALSE(Parse("1 2").ok());          // trailing content
}

TEST(JsonParseTest, ErrorsCarryPosition) {
  const Result<Value> result = Parse("{\n  \"a\": oops\n}");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("line 2"), std::string::npos)
      << result.status();
}

TEST(JsonParseTest, DepthLimit) {
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += "[";
  ParseOptions options;
  options.max_depth = 64;
  EXPECT_FALSE(Parse(deep, options).ok());
}

TEST(JsonValueTest, ObjectPreservesInsertionOrder) {
  Object object;
  object.Set("zebra", Value(1));
  object.Set("alpha", Value(2));
  object.Set("mid", Value(3));
  EXPECT_EQ(object.entries()[0].first, "zebra");
  EXPECT_EQ(object.entries()[1].first, "alpha");
  EXPECT_EQ(object.entries()[2].first, "mid");
}

TEST(JsonValueTest, ObjectSetOverwrites) {
  Object object;
  object.Set("k", Value(1));
  object.Set("k", Value(2));
  EXPECT_EQ(object.size(), 1u);
  EXPECT_DOUBLE_EQ(object.Find("k")->AsNumber(), 2.0);
}

TEST(JsonValueTest, CheckedAccessors) {
  EXPECT_TRUE(MustParse("1").GetNumber().ok());
  EXPECT_FALSE(MustParse("1").GetString().ok());
  EXPECT_FALSE(MustParse("\"x\"").GetBool().ok());
}

TEST(JsonValueTest, DeepCopyIsIndependent) {
  Value original = MustParse(R"({"a":[1,2]})");
  Value copy = original;
  copy.MutableObject().Set("a", Value("changed"));
  EXPECT_TRUE(original.AsObject().Find("a")->is_array());
}

TEST(JsonValueTest, EqualityIgnoresObjectKeyOrder) {
  EXPECT_EQ(MustParse(R"({"a":1,"b":2})"), MustParse(R"({"b":2,"a":1})"));
  EXPECT_FALSE(MustParse(R"([1,2])") == MustParse(R"([2,1])"));
}

TEST(JsonWriteTest, CompactOutput) {
  EXPECT_EQ(Write(MustParse(R"({"a":[1,true,null,"x"]})")),
            R"({"a":[1,true,null,"x"]})");
  EXPECT_EQ(Write(Value(Object{})), "{}");
  EXPECT_EQ(Write(Value(Array{})), "[]");
}

TEST(JsonWriteTest, EscapesSpecialCharacters) {
  EXPECT_EQ(Write(Value(std::string("a\"b\\\n\x01"))),
            "\"a\\\"b\\\\\\n\\u0001\"");
}

TEST(JsonWriteTest, PrettyPrinting) {
  WriteOptions options;
  options.indent = 2;
  EXPECT_EQ(Write(MustParse(R"({"a":1})"), options), "{\n  \"a\": 1\n}");
}

TEST(JsonWriteTest, NonFiniteNumbersBecomeNull) {
  EXPECT_EQ(Write(Value(std::nan(""))), "null");
}

/// The number path Write took before AppendNumber moved to <charconv>:
/// %.0f for an integral value below 1e15 in magnitude; otherwise %.15g,
/// unless strtod reads that back as another double, then %.17g.
std::string PrintfNumber(double value) {
  if (std::isnan(value) || std::isinf(value)) return "null";
  char buf[40];
  if (value == std::floor(value) && std::fabs(value) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", value);
    return buf;
  }
  std::snprintf(buf, sizeof(buf), "%.15g", value);
  if (std::strtod(buf, nullptr) != value) {
    std::snprintf(buf, sizeof(buf), "%.17g", value);
  }
  return buf;
}

std::string Formatted(double value) {
  std::string out;
  AppendNumber(value, out);
  return out;
}

/// Counts the values AppendNumber prints differently from PrintfNumber,
/// reporting the first few.
template <typename Values>
std::size_t CountMismatches(const Values& values) {
  std::size_t mismatches = 0;
  for (const double value : values) {
    const std::string expected = PrintfNumber(value);
    const std::string actual = Formatted(value);
    if (actual == expected) continue;
    if (++mismatches <= 5) {
      char hex[40];
      std::snprintf(hex, sizeof(hex), "%a", value);
      ADD_FAILURE() << hex << ": AppendNumber printed " << actual
                    << ", printf " << expected;
    }
  }
  return mismatches;
}

TEST(JsonNumberTest, MatchesPrintfOnEdgeValues) {
  const double two53 = 9007199254740992.0;
  const double values[] = {0.0,
                           -0.0,
                           1e15 - 1,
                           1e15,
                           1e15 + 1,
                           -(1e15 - 1),
                           -1e15,
                           -(1e15 + 1),
                           two53,
                           -two53,
                           two53 + 2,
                           0.1,
                           1.0 / 3,
                           DBL_MIN,
                           4.9e-324,
                           1e-310,
                           DBL_MAX,
                           -DBL_MAX,
                           std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()};
  EXPECT_EQ(CountMismatches(values), 0u);
  // A few of the bytes themselves.
  EXPECT_EQ(Formatted(-0.0), "-0");
  EXPECT_EQ(Formatted(1e15 - 1), "999999999999999");
  EXPECT_EQ(Formatted(1e15), "1e+15");
  EXPECT_EQ(Formatted(0.1), "0.1");
  EXPECT_EQ(Formatted(1.0 / 3), "0.33333333333333331");
  EXPECT_EQ(Formatted(4.9e-324), "4.94065645841247e-324");
  EXPECT_EQ(Formatted(DBL_MAX), "1.7976931348623157e+308");
  EXPECT_EQ(Formatted(-std::numeric_limits<double>::infinity()), "null");
}

TEST(JsonNumberTest, MatchesPrintfOnInstanceWeights) {
  datagen::DatasetConfig config;
  config.num_users = 300;
  config.num_restaurants = 600;
  config.leaf_categories = 30;
  config.holdout_destinations = 0;
  config.seed = 5;
  Result<datagen::Dataset> dataset = datagen::GenerateDataset(config);
  ASSERT_TRUE(dataset.ok()) << dataset.status();
  for (const WeightKind kind :
       {WeightKind::kLbs, WeightKind::kEbs, WeightKind::kIden}) {
    InstanceOptions options;
    options.weight_kind = kind;
    options.budget = 8;
    Result<DiversificationInstance> instance =
        DiversificationInstance::Build(dataset->repository, options);
    ASSERT_TRUE(instance.ok()) << instance.status();
    std::vector<double> weights;
    for (GroupId g = 0; g < instance->groups().group_count(); ++g) {
      weights.push_back(instance->weight(g));
    }
    ASSERT_FALSE(weights.empty());
    EXPECT_EQ(CountMismatches(weights), 0u) << WeightKindName(kind);
  }
}

TEST(JsonNumberTest, MatchesPrintfOnRandomBitPatterns) {
  // Every exponent, subnormals and NaN payloads included.
  util::Rng rng(20250101);
  std::vector<double> values(std::size_t{1} << 20);
  for (double& value : values) {
    const std::uint64_t bits = rng.NextU64();
    std::memcpy(&value, &bits, sizeof(value));
  }
  EXPECT_EQ(CountMismatches(values), 0u);
}

// Round-trip property: parse(write(v)) == v for a corpus of documents.
class JsonRoundTripTest : public ::testing::TestWithParam<const char*> {};

TEST_P(JsonRoundTripTest, ParseWriteParseIsIdentity) {
  const Value original = MustParse(GetParam());
  const std::string compact = Write(original);
  EXPECT_EQ(MustParse(compact), original);
  WriteOptions pretty;
  pretty.indent = 4;
  EXPECT_EQ(MustParse(Write(original, pretty)), original);
}

INSTANTIATE_TEST_SUITE_P(
    Documents, JsonRoundTripTest,
    ::testing::Values(
        "null", "true", "0", "-0.5", "1e-7", "123456789012",
        "0.1234567890123456", R"("plain")", R"("esc \" \\ \n")",
        "[]", "{}", "[1,[2,[3,[4]]]]",
        R"({"name":"Alice","props":{"livesIn Tokyo":1,"avgRating":0.95}})",
        R"([{"a":null},{"b":[true,false]},{"c":"é"}])"));

}  // namespace
}  // namespace podium::json
