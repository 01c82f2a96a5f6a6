#include "podium/profile/repository_io.h"

#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "podium/check/fuzz.h"
#include "podium/check/oracle.h"
#include "podium/util/parse.h"
#include "podium/util/string_util.h"

// Sanitizer shadow memory and quarantines make VmHWM meaningless.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PODIUM_UNDER_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define PODIUM_UNDER_SANITIZER 1
#endif
#endif

namespace podium {
namespace {

ProfileRepository MakeSample() {
  ProfileRepository repo;
  const UserId alice = repo.AddUser("Alice").value();
  const UserId bob = repo.AddUser("Bob").value();
  EXPECT_TRUE(repo.SetScore(alice, "livesIn Tokyo", 1.0,
                            PropertyKind::kBoolean).ok());
  EXPECT_TRUE(repo.SetScore(alice, "avgRating Mexican", 0.95).ok());
  EXPECT_TRUE(repo.SetScore(bob, "avgRating Mexican", 0.3).ok());
  EXPECT_TRUE(repo.SetScore(bob, "visitFreq CheapEats", 0.85).ok());
  return repo;
}

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

void ExpectSameRepository(const ProfileRepository& a,
                          const ProfileRepository& b) {
  ASSERT_EQ(a.user_count(), b.user_count());
  for (UserId u = 0; u < a.user_count(); ++u) {
    const UserProfile& pa = a.user(u);
    const UserId bu = b.FindUser(pa.name());
    ASSERT_NE(bu, kInvalidUser) << pa.name();
    const UserProfile& pb = b.user(bu);
    ASSERT_EQ(pa.size(), pb.size()) << pa.name();
    for (const PropertyScore& entry : pa.entries()) {
      const std::string& label = a.properties().Label(entry.property);
      const PropertyId bp = b.properties().Find(label);
      ASSERT_NE(bp, kInvalidProperty) << label;
      EXPECT_EQ(pb.Get(bp), entry.score) << label;
      EXPECT_EQ(a.properties().Kind(entry.property), b.properties().Kind(bp))
          << label;
    }
  }
}

TEST(RepositoryJsonTest, RoundTripsThroughValue) {
  const ProfileRepository repo = MakeSample();
  Result<ProfileRepository> back =
      check::RepositoryFromJson(RepositoryToJson(repo));
  ASSERT_TRUE(back.ok()) << back.status();
  ExpectSameRepository(repo, back.value());
}

TEST(RepositoryJsonTest, RoundTripsThroughFile) {
  const std::string path = TempPath("podium_repo_test.json");
  const ProfileRepository repo = MakeSample();
  ASSERT_TRUE(SaveRepositoryJson(repo, path).ok());
  Result<ProfileRepository> back = LoadRepositoryJson(path);
  ASSERT_TRUE(back.ok()) << back.status();
  ExpectSameRepository(repo, back.value());
  std::remove(path.c_str());
}

TEST(RepositoryJsonTest, AcceptsBooleanScores) {
  Result<ProfileRepository> repo = ParseRepositoryJson(
      R"({"users":[{"name":"A","properties":{"flag":true,"x":0.5}}]})");
  ASSERT_TRUE(repo.ok()) << repo.status();
  const PropertyId flag = repo->properties().Find("flag");
  EXPECT_EQ(repo->properties().Kind(flag), PropertyKind::kBoolean);
  EXPECT_EQ(repo->user(0).Get(flag), 1.0);
}

TEST(RepositoryJsonTest, RejectsMalformedDocuments) {
  auto parse = [](const char* text) { return ParseRepositoryJson(text); };
  EXPECT_FALSE(parse("[]").ok());                       // not an object
  EXPECT_FALSE(parse("{}").ok());                       // no users
  EXPECT_FALSE(parse(R"({"users":[{}]})").ok());        // user without name
  EXPECT_FALSE(parse(R"({"users":[1]})").ok());         // user not an object
  EXPECT_FALSE(
      parse(R"({"users":[{"name":"A","properties":{"x":"high"}}]})").ok());
  EXPECT_FALSE(
      parse(R"({"users":[{"name":"A","properties":{"x":1.5}}]})").ok());
  EXPECT_FALSE(
      parse(R"({"users":[{"name":"A"},{"name":"A"}]})").ok());  // duplicate
  EXPECT_FALSE(parse(R"({"users":[], "kinds":{"x":"weird"}})").ok());
}

// ParseRepositoryJson on `text`, checked against the tree-built reference:
// the same repository or the same status.
Result<ProfileRepository> Load(std::string_view text) {
  EXPECT_EQ(check::LoaderDivergence(std::string(text)), "") << text;
  return ParseRepositoryJson(text);
}

std::vector<std::string> Labels(const ProfileRepository& repo) {
  std::vector<std::string> labels;
  for (PropertyId p = 0; p < repo.property_count(); ++p) {
    labels.push_back(repo.properties().Label(p));
  }
  return labels;
}

std::vector<PropertyKind> Kinds(const ProfileRepository& repo) {
  std::vector<PropertyKind> kinds;
  for (PropertyId p = 0; p < repo.property_count(); ++p) {
    kinds.push_back(repo.properties().Kind(p));
  }
  return kinds;
}

constexpr PropertyKind kBool = PropertyKind::kBoolean;
constexpr PropertyKind kScore = PropertyKind::kScore;

TEST(ParseRepositoryJsonTest, KindsLabelsTakeTheFirstIdsEvenAfterUsers) {
  const std::string users =
      R"("users": [{"name": "A", "properties": {"x": 0.5, "b": true, "y": 1}},)"
      R"( {"name": "B", "properties": {"w": 0.25, "x": 1}}])";
  const std::string kinds =
      R"("kinds": {"y": "boolean", "z": "score", "w": "boolean"})";
  for (const std::string& text :
       {"{" + users + ", " + kinds + "}", "{" + kinds + ", " + users + "}"}) {
    Result<ProfileRepository> repo = Load(text);
    ASSERT_TRUE(repo.ok()) << repo.status();
    EXPECT_EQ(Labels(*repo),
              (std::vector<std::string>{"y", "z", "w", "x", "b"}));
    EXPECT_EQ(Kinds(*repo), (std::vector<PropertyKind>{kBool, kScore, kBool,
                                                       kScore, kBool}));
    EXPECT_EQ(repo->user(0).entries(),
              (std::vector<PropertyScore>{{0, 1.0}, {3, 0.5}, {4, 1.0}}));
    EXPECT_EQ(repo->user(1).entries(),
              (std::vector<PropertyScore>{{2, 0.25}, {3, 1.0}}));
  }
}

TEST(ParseRepositoryJsonTest, OtherLabelsAreBooleanIffTheirFirstOccurrenceIs) {
  // r and s repeat within one object: the first position holds the last
  // value, so r's first occurrence is 0.75 and s's is false.
  Result<ProfileRepository> repo = Load(R"({"users": [
      {"name": "A", "properties": {"p": true, "q": 0.5, "r": true, "r": 0.75}},
      {"name": "B", "properties": {"p": 0.25, "q": false, "s": 0.5, "s": false}}
  ]})");
  ASSERT_TRUE(repo.ok()) << repo.status();
  EXPECT_EQ(Labels(*repo), (std::vector<std::string>{"p", "q", "r", "s"}));
  EXPECT_EQ(Kinds(*repo),
            (std::vector<PropertyKind>{kBool, kScore, kScore, kBool}));
  EXPECT_EQ(repo->user(0).entries(),
            (std::vector<PropertyScore>{{0, 1.0}, {1, 0.5}, {2, 0.75}}));
  EXPECT_EQ(repo->user(1).entries(),
            (std::vector<PropertyScore>{{0, 0.25}, {1, 0.0}, {3, 0.0}}));
}

TEST(ParseRepositoryJsonTest, RepeatedKeysKeepTheFirstPositionAndLastValue) {
  // The first "users" and "kinds" are replaced whole: "g" and "k" are
  // never interned. Within the last ones, "c" keeps its first position in
  // "kinds" with its last kind, "name" is its last value, the first
  // "properties" object is dropped, and "b" sits before "c" with 0.75.
  Result<ProfileRepository> repo = Load(R"({
      "users": [{"name": "Gone", "properties": {"g": 1}}],
      "kinds": {"k": "boolean"},
      "users": [{"properties": {"a": 0.5}, "name": "X", "name": "A",
                 "properties": {"b": 0.25, "c": 0.5, "b": 0.75}}],
      "kinds": {"c": "weird", "m": "score", "c": "boolean"}})");
  ASSERT_TRUE(repo.ok()) << repo.status();
  EXPECT_EQ(Labels(*repo), (std::vector<std::string>{"c", "m", "b"}));
  EXPECT_EQ(Kinds(*repo), (std::vector<PropertyKind>{kBool, kScore, kScore}));
  ASSERT_EQ(repo->user_count(), 1u);
  EXPECT_EQ(repo->user(0).name(), "A");
  EXPECT_EQ(repo->user(0).entries(),
            (std::vector<PropertyScore>{{0, 0.5}, {2, 0.75}}));
}

TEST(ParseRepositoryJsonTest, SyntaxErrorsFirstThenSemanticErrorsInOrder) {
  const std::string deep = std::string(129, '[') + std::string(129, ']');
  struct Case {
    std::string text;
    StatusCode code;
    std::string message;
  };
  const Case cases[] = {
      // Any syntax error wins, with json::Parse's message and position.
      {"[1,", StatusCode::kParseError,
       "unexpected end of input at line 1 column 4"},
      {R"({"users": [{"name": 7}], "kinds": 5, "x": 1e400})",
       StatusCode::kParseError, "number out of range at line 1 column 48"},
      {R"({"users": [5],)" "\n" R"( "x": )" + deep + "}",
       StatusCode::kParseError, "nesting depth exceeded at line 2 column 134"},
      // Then a non-object root,
      {"[]", StatusCode::kParseError,
       "repository document must be a JSON object"},
      // "kinds" errors, even after "users",
      {R"({"users": [{"name": 7}], "kinds": 5})", StatusCode::kParseError,
       "'kinds' must be an object"},
      {R"({"kinds": {"x": "weird"}})", StatusCode::kParseError,
       "unknown property kind: weird"},
      {R"({"users": [5], "kinds": {"x": 1}})", StatusCode::kParseError,
       "expected string, found number"},
      // a missing "users" array (the last "users" counts),
      {R"({"users": [{"name": 7}], "users": {}})", StatusCode::kParseError,
       "repository document must have a 'users' array"},
      // then each user's errors in document order.
      {R"({"users": [{"name": "A", "properties": {"x": 2}}, {"name": 7}]})",
       StatusCode::kInvalidArgument,
       "score 2.000000 for property 'x' outside [0, 1]"},
      {R"({"users": [{"name": "A", "properties": {"x": "hi", "y": 2}}]})",
       StatusCode::kParseError, "score of 'x' must be a number or bool"},
      {R"({"users": [{"name": "A", "properties": {"x": 2, "y": "hi"}}]})",
       StatusCode::kInvalidArgument,
       "score 2.000000 for property 'x' outside [0, 1]"},
      {R"({"users": [{"name": "A"}, {"name": "A", "properties": 5}]})",
       StatusCode::kAlreadyExists, "duplicate user name: A"},
      {R"({"users": [{"properties": 5, "name": "A"}, 5]})",
       StatusCode::kParseError, "'properties' must be an object for user A"},
      {R"({"users": [5, {"name": 5}]})", StatusCode::kParseError,
       "each user must be a JSON object"},
      {R"({"users": [{"name": "A", "name": 5}]})", StatusCode::kParseError,
       "each user must have a string 'name'"},
  };
  for (const Case& c : cases) {
    Result<ProfileRepository> repo = Load(c.text);
    ASSERT_FALSE(repo.ok()) << c.text;
    EXPECT_EQ(repo.status().code(), c.code) << c.text;
    EXPECT_EQ(repo.status().message(), c.message) << c.text;
  }
}

TEST(ParseRepositoryJsonTest, NumbersAreStrtodsIncludingItsRangeErrors) {
  // from_chars would read these subnormals; strtod, and so json::Parse,
  // report them out of range.
  for (const char* number : {"1e-310", "2.2250738585072012e-308", "1e400"}) {
    const std::string text =
        util::StringPrintf(R"({"users": [], "x": %s})", number);
    Result<ProfileRepository> repo = Load(text);
    ASSERT_FALSE(repo.ok()) << number;
    EXPECT_EQ(repo.status().code(), StatusCode::kParseError);
  }
  Result<ProfileRepository> repo =
      Load(R"({"users": [{"name": "A", "properties": {"z": -0}}]})");
  ASSERT_TRUE(repo.ok()) << repo.status();
  EXPECT_TRUE(std::signbit(repo->user(0).entries()[0].score));
}

long PeakRssKib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (!util::StartsWith(line, "VmHWM:")) continue;
    std::string_view field = util::StripWhitespace(line.substr(6));
    field = field.substr(0, field.find(' '));
    Result<std::int64_t> kib = util::ParseInt64(field);
    return kib.ok() ? static_cast<long>(kib.value()) : -1;
  }
  return -1;
}

// A load holds the file's bytes and the repository it builds, nothing
// more; that is also what /v1/reload adds on top of the live snapshot.
// Reading the file into a json::Value tree first held 5-6.5x the file.
TEST(RepositoryJsonTest, LoadPeakStaysUnderTwoAndAHalfTimesTheFile) {
#ifdef PODIUM_UNDER_SANITIZER
  GTEST_SKIP() << "sanitizers inflate VmHWM";
#endif
  const std::string path = TempPath("podium_load_peak.json");
  std::size_t bytes = 0;
  {
    // 30,000 users over 400 labels, 16 each; the last 40 labels are
    // booleans listed in "kinds" after "users", as SaveRepositoryJson
    // writes it.
    std::string text = "{\"users\": [";
    std::uint64_t state = 42;
    auto next = [&state] {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      return state >> 33;
    };
    for (int u = 0; u < 30000; ++u) {
      text += util::StringPrintf("%s\n{\"name\": \"user %05d\", "
                                 "\"properties\": {",
                                 u == 0 ? "" : ",", u);
      for (int i = 0; i < 16; ++i) {
        const unsigned label = static_cast<unsigned>(next() % 400);
        text += util::StringPrintf(
            "%s\"avgRating Category %u\": ", i == 0 ? "" : ", ", label);
        text += label >= 360 ? (next() % 2 ? "true" : "false")
                             : util::FormatDouble((next() % 10000) / 9999.0, 6);
      }
      text += "}}";
    }
    text += "\n], \"kinds\": {";
    for (unsigned label = 360; label < 400; ++label) {
      text += util::StringPrintf("%s\"avgRating Category %u\": \"boolean\"",
                                 label == 360 ? "" : ", ", label);
    }
    text += "}}\n";
    bytes = text.size();
    std::ofstream(path, std::ios::binary) << text;
  }
  ASSERT_GE(bytes, std::size_t{10} << 20);

  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    const long before = PeakRssKib();
    const bool loaded = LoadRepositoryJson(path).ok();
    const long after = PeakRssKib();
    const double ratio = static_cast<double>(after - before) * 1024.0 /
                         static_cast<double>(bytes);
    std::fprintf(stderr, "VmHWM %ld -> %ld KiB: %.2fx the %zu-byte file\n",
                 before, after, ratio, bytes);
    _exit(!loaded ? 2 : (before < 0 || ratio >= 2.5) ? 1 : 0);
  }
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  std::remove(path.c_str());
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_NE(WEXITSTATUS(status), 2) << "the load failed";
  EXPECT_NE(WEXITSTATUS(status), 1) << "VmHWM grew by 2.5x the file or more";
}

TEST(RepositoryCsvTest, RoundTripsThroughFile) {
  const std::string path = TempPath("podium_repo_test.csv");
  const ProfileRepository repo = MakeSample();
  ASSERT_TRUE(SaveRepositoryCsv(repo, path).ok());
  Result<ProfileRepository> back = LoadRepositoryCsv(path);
  ASSERT_TRUE(back.ok()) << back.status();
  ExpectSameRepository(repo, back.value());
  std::remove(path.c_str());
}

TEST(RepositoryCsvTest, KindColumnIsOptional) {
  const std::string path = TempPath("podium_kindless.csv");
  {
    std::ofstream out(path);
    out << "user,property,score\nAlice,avgRating Mexican,0.95\n";
  }
  Result<ProfileRepository> repo = LoadRepositoryCsv(path);
  ASSERT_TRUE(repo.ok()) << repo.status();
  const PropertyId p = repo->properties().Find("avgRating Mexican");
  EXPECT_EQ(repo->properties().Kind(p), PropertyKind::kScore);
  EXPECT_EQ(repo->user(0).Get(p), 0.95);
  std::remove(path.c_str());
}

TEST(RepositoryCsvTest, RejectsBadContent) {
  const std::string path = TempPath("podium_bad.csv");
  {
    std::ofstream out(path);
    out << "user,property,score\nAlice,p,not-a-number\n";
  }
  EXPECT_FALSE(LoadRepositoryCsv(path).ok());
  {
    std::ofstream out(path);
    out << "who,what\nAlice,p\n";  // missing required columns
  }
  EXPECT_FALSE(LoadRepositoryCsv(path).ok());
  {
    std::ofstream out(path);
    out << "user,property,score\nAlice,p,7\n";  // out of [0,1]
  }
  EXPECT_FALSE(LoadRepositoryCsv(path).ok());
  std::remove(path.c_str());
}

TEST(RepositoryIoTest, MissingFileIsIoError) {
  EXPECT_EQ(LoadRepositoryJson("/nonexistent/path.json").status().code(),
            StatusCode::kIoError);
  EXPECT_EQ(LoadRepositoryCsv("/nonexistent/path.csv").status().code(),
            StatusCode::kIoError);
}

}  // namespace
}  // namespace podium
