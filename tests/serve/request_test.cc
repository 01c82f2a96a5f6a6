#include "podium/serve/request.h"

#include <gtest/gtest.h>

#include "podium/json/parser.h"

namespace podium::serve {
namespace {

Result<SelectionRequest> ParseRequest(std::string_view text) {
  Result<json::Value> document = json::Parse(text);
  EXPECT_TRUE(document.ok()) << document.status();
  if (!document.ok()) return document.status();
  return SelectionRequestFromJson(document.value());
}

SelectionRequest MustParseRequest(std::string_view text) {
  Result<SelectionRequest> request = ParseRequest(text);
  EXPECT_TRUE(request.ok()) << request.status();
  return request.ok() ? std::move(request).value() : SelectionRequest{};
}

TEST(SelectorNameTest, RoundTrips) {
  EXPECT_EQ(kSelectorName, "greedy");
  EXPECT_TRUE(ParseSelectorName(kSelectorName).ok());
  // There is one selector; every other name is rejected with a message
  // naming the one accepted value.
  for (const char* name : {"greedy-heap", "dijkstra", "Greedy", ""}) {
    const Status status = ParseSelectorName(name);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << name;
    EXPECT_NE(status.message().find("\"greedy\""), std::string::npos)
        << status;
  }
}

TEST(SelectionRequestFromJsonTest, EmptyObjectTakesDefaults) {
  const SelectionRequest request = MustParseRequest("{}");
  EXPECT_EQ(request.budget, 0u);
  EXPECT_FALSE(request.weight_kind.has_value());
  EXPECT_FALSE(request.coverage_kind.has_value());
  EXPECT_FALSE(request.customized());
  EXPECT_FALSE(request.explain);
  EXPECT_EQ(request.deadline_ms, 0);
}

TEST(SelectionRequestFromJsonTest, FullRequestParses) {
  const SelectionRequest request = MustParseRequest(R"({
    "budget": 4, "selector": "greedy",
    "weights": "Iden", "coverage": "Prop",
    "must_have": ["livesIn Tokyo"], "must_not": ["livesIn NYC"],
    "priority": ["livesIn Paris", "livesIn Bali"],
    "explain": true, "deadline_ms": 1500})");
  EXPECT_EQ(request.budget, 4u);
  ASSERT_TRUE(request.weight_kind.has_value());
  EXPECT_EQ(*request.weight_kind, WeightKind::kIden);
  ASSERT_TRUE(request.coverage_kind.has_value());
  EXPECT_EQ(*request.coverage_kind, CoverageKind::kProp);
  EXPECT_EQ(request.must_have,
            std::vector<std::string>{std::string("livesIn Tokyo")});
  EXPECT_EQ(request.must_not,
            std::vector<std::string>{std::string("livesIn NYC")});
  EXPECT_EQ(request.priority,
            (std::vector<std::string>{"livesIn Paris", "livesIn Bali"}));
  EXPECT_TRUE(request.customized());
  EXPECT_TRUE(request.explain);
  EXPECT_EQ(request.deadline_ms, 1500);
}

TEST(SelectionRequestFromJsonTest, UnknownFieldsFailLoudly) {
  const Result<SelectionRequest> request = ParseRequest(R"({"budgets": 4})");
  ASSERT_FALSE(request.ok());
  EXPECT_NE(request.status().message().find("budgets"), std::string::npos)
      << request.status();
}

TEST(SelectionRequestFromJsonTest, RejectsNonObjectAndBadTypes) {
  EXPECT_FALSE(ParseRequest("[1,2]").ok());
  EXPECT_FALSE(ParseRequest(R"({"budget": "eight"})").ok());
  EXPECT_FALSE(ParseRequest(R"({"budget": 0})").ok());
  EXPECT_FALSE(ParseRequest(R"({"budget": 2.5})").ok());
  EXPECT_FALSE(ParseRequest(R"({"budget": -3})").ok());
  EXPECT_FALSE(ParseRequest(R"({"selector": 7})").ok());
  const Result<SelectionRequest> heap =
      ParseRequest(R"({"selector": "greedy-heap"})");
  ASSERT_FALSE(heap.ok());
  EXPECT_EQ(heap.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(ParseRequest(R"({"weights": "heavy"})").ok());
  EXPECT_FALSE(ParseRequest(R"({"coverage": "Twice"})").ok());
  EXPECT_FALSE(ParseRequest(R"({"must_have": "livesIn Tokyo"})").ok());
  EXPECT_FALSE(ParseRequest(R"({"must_have": [1]})").ok());
  EXPECT_FALSE(ParseRequest(R"({"explain": "yes"})").ok());
  EXPECT_FALSE(ParseRequest(R"({"deadline_ms": -1})").ok());
}

TEST(CanonicalRequestKeyTest, EqualRequestsShareAKey) {
  const SelectionRequest a = MustParseRequest(
      R"({"budget": 4, "weights": "LBS", "must_have": ["livesIn Tokyo"]})");
  const SelectionRequest b = MustParseRequest(
      R"({"must_have": ["livesIn Tokyo"], "weights": "LBS", "budget": 4})");
  EXPECT_EQ(CanonicalRequestKey(1, a), CanonicalRequestKey(1, b));
}

TEST(CanonicalRequestKeyTest, DeadlineIsExcluded) {
  // deadline_ms changes admission, never the payload; it must not split
  // the cache.
  const SelectionRequest a = MustParseRequest(R"({"budget": 4})");
  const SelectionRequest b =
      MustParseRequest(R"({"budget": 4, "deadline_ms": 250})");
  EXPECT_EQ(CanonicalRequestKey(1, a), CanonicalRequestKey(1, b));
}

TEST(CanonicalRequestKeyTest, ResultAffectingFieldsSplitTheKey) {
  const SelectionRequest base = MustParseRequest(R"({"budget": 4})");
  const std::string key = CanonicalRequestKey(1, base);
  EXPECT_NE(key, CanonicalRequestKey(2, base));  // generation
  EXPECT_NE(key, CanonicalRequestKey(1, MustParseRequest(R"({"budget": 5})")));
  EXPECT_NE(key, CanonicalRequestKey(1, MustParseRequest(
                     R"({"budget": 4, "weights": "Iden"})")));
  EXPECT_NE(key, CanonicalRequestKey(1, MustParseRequest(
                     R"({"budget": 4, "coverage": "Prop"})")));
  EXPECT_NE(key, CanonicalRequestKey(1, MustParseRequest(
                     R"({"budget": 4, "must_have": ["livesIn Tokyo"]})")));
  EXPECT_NE(key, CanonicalRequestKey(1, MustParseRequest(
                     R"({"budget": 4, "explain": true})")));
}

TEST(CanonicalRequestKeyTest, FullRequestKeyIsPinned) {
  // The exact bytes: the generation, then every result-affecting field in
  // a fixed order as compact JSON, labels escaped like reply strings.
  const SelectionRequest request = MustParseRequest(R"({
    "budget": 4, "selector": "greedy", "weights": "EBS", "coverage": "Prop",
    "must_have": ["livesIn \"Tokyo\""], "must_not": ["livesIn N\\Y\u0001C"],
    "priority": ["livesIn Paris", "livesIn Zürich"],
    "explain": true, "deadline_ms": 1500})");
  EXPECT_EQ(CanonicalRequestKey(12345678901, request),
            R"({"gen":12345678901,"budget":4,"weights":"EBS",)"
            R"("coverage":"Prop","must_have":["livesIn \"Tokyo\""],)"
            R"("must_not":["livesIn N\\Y\u0001C"],)"
            R"("priority":["livesIn Paris","livesIn Zürich"],)"
            R"("explain":true})");
  // Absent kinds key as empty strings, absent lists as [].
  EXPECT_EQ(CanonicalRequestKey(0, MustParseRequest("{}")),
            R"({"gen":0,"budget":0,"weights":"","coverage":"",)"
            R"("must_have":[],"must_not":[],"priority":[],"explain":false})");
}

TEST(CanonicalRequestKeyTest, MustHaveAndMustNotAreDistinct) {
  const SelectionRequest have =
      MustParseRequest(R"({"must_have": ["livesIn Tokyo"]})");
  const SelectionRequest have_not =
      MustParseRequest(R"({"must_not": ["livesIn Tokyo"]})");
  EXPECT_NE(CanonicalRequestKey(1, have), CanonicalRequestKey(1, have_not));
}

}  // namespace
}  // namespace podium::serve
